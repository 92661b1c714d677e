"""An mpi4py-flavoured MPI layer over the simulated IB fabric.

Each rank holds an :class:`MPIEndpoint` with blocking ``send``/``recv``
(generator methods driven from the rank process), non-blocking
``isend``/``irecv`` (returning joinable processes), and the usual
collectives.  The eager/rendezvous protocol switch, receive-side copies,
unexpected-message queueing, and per-message software overheads follow
how a real MPI-over-IB stack behaves — these are precisely the costs the
paper's irregular workloads suffer from.  Their *host* cost stays O(1)
per message: matching is indexed by ``(src, tag)``, and the alltoall(v)
the irregular kernels live on runs without a Process per message
(:mod:`repro.ib.collectives`).

Payloads are real Python objects (usually NumPy arrays): the simulation
moves actual data, so benchmark results can be validated numerically.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.ib.config import IBConfig
from repro.ib.fastfabric import FastIBFabric
from repro.obs import registry as obsreg
from repro.sim.engine import Engine
from repro.sim.events import CompletionEvent, Event
from repro.sim.resources import Resource

ANY_SOURCE = -1
ANY_TAG = -1

_CONTROL_BYTES = 64          # RTS / CTS control message size
_COLLECTIVE_TAG_BASE = 1 << 24


def payload_nbytes(data: Any) -> int:
    """Best-effort message size for a payload object."""
    if isinstance(data, np.ndarray):
        return data.nbytes
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    if isinstance(data, (int, float, np.integer, np.floating)) or data is None:
        return 8
    if isinstance(data, (tuple, list)):
        return sum(payload_nbytes(x) for x in data) + 8
    if isinstance(data, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v)
                   for k, v in data.items()) + 8
    return 64  # generic pickled-object floor


class _Arrival:
    """One in-order eager or RTS envelope, handed to a receive or held
    in the unexpected queue (``stamp`` orders the queue)."""

    __slots__ = ("src", "tag", "kind", "payload", "nbytes", "rts_id",
                 "stamp")

    def __init__(self, src: int, tag: int, kind: str, payload: Any,
                 nbytes: int, rts_id: int) -> None:
        self.src = src
        self.tag = tag
        self.kind = kind         # "eager" or "rts"
        self.payload = payload
        self.nbytes = nbytes
        self.rts_id = rts_id
        self.stamp = -1


def _wild_match(src: int, tag: int, a_src: int, a_tag: int) -> bool:
    """Does a receive for ``(src, tag)``, wildcards allowed, accept a
    message from ``a_src`` with ``a_tag``?"""
    return ((src == ANY_SOURCE or src == a_src)
            and (tag == ANY_TAG or tag == a_tag))


class MPIEndpoint:
    """Per-rank MPI handle."""

    def __init__(self, runtime: "MPIRuntime", rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.engine = runtime.engine
        self.config = runtime.config
        self.fabric = runtime.fabric
        #: host CPU serialising per-message software overheads — two
        #: concurrent isends cannot both burn the core at once
        self._cpu = Resource(runtime.engine, capacity=1,
                             name=f"mpi{rank}:cpu")
        # Matching is indexed by (src, tag).  Posted receives without a
        # wildcard wait in per-key lists, wildcard ones in one list;
        # unexpected arrivals wait in per-key lists.  Every post and
        # every queued arrival takes the next stamp, so the earliest
        # candidate across lists is the one with the smallest stamp —
        # exactly what a linear scan in post / arrival order would pick.
        self._stamp = 0
        self._posted: Dict[Tuple[int, int],
                           List[Tuple[int, Callable]]] = {}
        self._posted_wild: List[Tuple[int, int, int, Callable]] = []
        self._unexpected: Dict[Tuple[int, int], List[_Arrival]] = {}
        self._cts_waiters: Dict[int, Event] = {}
        self._data_waiters: Dict[int, Event] = {}
        # MPI non-overtaking: every eager/RTS envelope carries a
        # per-(src, dst) sequence number stamped at send time; the
        # receiver releases arrivals to matching strictly in that
        # order, so a message the fabric delivered early (a small RTS
        # overtaking a large eager transfer, a lucky retry draw) can
        # never be matched before an earlier send from the same source.
        self._send_seq: Dict[int, int] = {}
        self._recv_next_seq: Dict[int, int] = {}
        self._recv_held: Dict[int, Dict[int, _Arrival]] = {}
        self._collective_seq = itertools.count()
        self._verbs = None
        # shared series across endpoints; label picks apart the protocol
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            # ib.mpi.sends / ib.mpi.recvs count point-to-point API calls
            # (send/isend, recv/irecv, and the collectives built on
            # them).  The chained alltoall(v) issues its messages
            # without those calls; its wire messages show up in the
            # fabric's transfer stats (ib.fabric.messages).
            self._m_sends = {p: obsreg.counter("ib.mpi.sends", protocol=p)
                             for p in ("self", "eager", "rendezvous")}
            self._m_recvs = obsreg.counter("ib.mpi.recvs")
            self._m_collectives = obsreg.counter("ib.mpi.collectives")
            self._coll_hists: Dict[str, object] = {}
        self.fabric.attach(rank, self._on_fabric)

    @property
    def verbs(self):
        """Lazily created verbs (RDMA) context sharing this HCA."""
        if self._verbs is None:
            from repro.ib.verbs import VerbsContext
            self._verbs = VerbsContext(self)
        return self._verbs

    @property
    def size(self) -> int:
        return self.runtime.n_ranks

    # -- fabric receive path -----------------------------------------------
    def _on_fabric(self, src: int, kind: str, envelope: Any,
                   nbytes: int) -> None:
        if kind.startswith("rdma_"):
            self.verbs._serve(kind, envelope)
            return
        if kind == "cts":
            rts_id = envelope
            self._cts_waiters.pop(rts_id).succeed(None)
            return
        if kind == "rdata":
            rts_id, data = envelope
            self._data_waiters.pop(rts_id).succeed(data)
            return
        tag, rts_id, data, seq = envelope
        arrival = _Arrival(src, tag, kind, data, nbytes, rts_id)
        expected = self._recv_next_seq.get(src, 0)
        if seq != expected:
            # delivered out of send order: hold until the gap closes
            self._recv_held.setdefault(src, {})[seq] = arrival
            return
        self._deliver(arrival)
        expected += 1
        held = self._recv_held.get(src)
        while held:
            nxt = held.pop(expected, None)
            if nxt is None:
                break
            self._deliver(nxt)
            expected += 1
        self._recv_next_seq[src] = expected

    def _deliver(self, arrival: _Arrival) -> None:
        """Hand one in-order arrival to the earliest-posted matching
        receive, else queue it as unexpected.

        The candidates are the head of the arrival's ``(src, tag)``
        list and the first matching wildcard posted before that head.
        """
        key = (arrival.src, arrival.tag)
        posted = self._posted.get(key)
        wild = self._posted_wild
        if wild:
            limit = posted[0][0] if posted else self._stamp
            for i, (stamp, src, tag, fn) in enumerate(wild):
                if stamp > limit:
                    break
                if _wild_match(src, tag, arrival.src, arrival.tag):
                    del wild[i]
                    fn(arrival)
                    return
        if posted:
            fn = posted.pop(0)[1]
            if not posted:
                del self._posted[key]
            fn(arrival)
            return
        self._stamp += 1
        arrival.stamp = self._stamp
        queue = self._unexpected.get(key)
        if queue is None:
            self._unexpected[key] = [arrival]
        else:
            queue.append(arrival)

    def _take(self, src: int, tag: int) -> Optional[_Arrival]:
        """Remove and return the earliest unexpected arrival a receive
        for ``(src, tag)`` accepts, or ``None``."""
        if src != ANY_SOURCE and tag != ANY_TAG:
            key = (src, tag)
        else:
            key, first = None, None
            for k, queue in self._unexpected.items():
                if (_wild_match(src, tag, k[0], k[1])
                        and (first is None or queue[0].stamp < first)):
                    key, first = k, queue[0].stamp
        queue = self._unexpected.get(key)
        if not queue:
            return None
        arrival = queue.pop(0)
        if not queue:
            del self._unexpected[key]
        return arrival

    def _post(self, src: int, tag: int, fn: Callable) -> None:
        """Post a receive for ``(src, tag)``: the first matching
        arrival is passed to ``fn``, synchronously, on delivery."""
        self._stamp += 1
        if src == ANY_SOURCE or tag == ANY_TAG:
            self._posted_wild.append((self._stamp, src, tag, fn))
            return
        key = (src, tag)
        posted = self._posted.get(key)
        if posted is None:
            self._posted[key] = [(self._stamp, fn)]
        else:
            posted.append((self._stamp, fn))

    def _next_send_seq(self, dest: int) -> int:
        seq = self._send_seq.get(dest, 0)
        self._send_seq[dest] = seq + 1
        return seq

    def _overhead(self):
        """Serialised per-message software cost (o in LogGP terms)."""
        yield self._cpu.acquire()
        try:
            yield self.engine.timeout(self.config.sw_overhead_s)
        finally:
            self._cpu.release()

    # -- protocol steps shared by p2p and the chained alltoall --------------
    def _eager(self, dest: int, payload: Any, tag: int,
               n: int) -> CompletionEvent:
        """Put one eager message on the wire."""
        done = self.fabric.transfer(
            self.rank, dest, n + _CONTROL_BYTES, kind="eager",
            payload=(tag, -1, payload, self._next_send_seq(dest)))
        done.tag = tag      # fabric knows bytes; MPI supplies tags
        return done

    def _inject_eager(self, dest: int, payload: Any, tag: int,
                      n: int) -> None:
        """:meth:`_eager` for a send nobody waits on (the chained
        alltoall's sends complete when issued): no completion event."""
        self.fabric.inject(
            self.rank, dest, n + _CONTROL_BYTES, kind="eager",
            payload=(tag, -1, payload, self._next_send_seq(dest)))

    def _rts(self, dest: int, tag: int) -> Tuple[int, Event]:
        """Open a rendezvous: send the RTS envelope; returns its id and
        the event the receiver's CTS will fire."""
        rts_id = self.runtime.next_rts_id()
        cts = self.engine.event(name=f"cts:{rts_id}")
        self._cts_waiters[rts_id] = cts
        self.fabric.transfer(
            self.rank, dest, _CONTROL_BYTES, kind="rts",
            payload=(tag, rts_id, None, self._next_send_seq(dest)))
        return rts_id, cts

    def _rendezvous_data(self, rts_id: int, cts: Event, dest: int,
                         payload: Any, n: int, tag: int) -> Generator:
        """Sender side of a rendezvous after the RTS: wait for the CTS,
        pay the handshake, move the data; the value is its completion."""
        yield cts
        yield self.engine.timeout(self.config.rendezvous_handshake_s)
        done = self.fabric.transfer(self.rank, dest, n, kind="rdata",
                                    payload=(rts_id, payload))
        done.tag = tag
        yield done
        return done

    def _grant(self, arrival: _Arrival) -> Event:
        """Receiver side of a rendezvous: send the CTS for a matched
        RTS; the returned event fires with the data."""
        data_ev = self.engine.event(name=f"rdata:{arrival.rts_id}")
        self._data_waiters[arrival.rts_id] = data_ev
        self.fabric.transfer(self.rank, arrival.src, _CONTROL_BYTES,
                             kind="cts", payload=arrival.rts_id)
        return data_ev

    # -- point to point -----------------------------------------------------
    def send(self, dest: int, payload: Any, *, tag: int = 0,
             nbytes: Optional[int] = None) -> Generator:
        """Blocking send (eager: returns after local handoff; rendezvous:
        returns once the data transfer completes).

        The generator's value is the fabric-level
        :class:`~repro.sim.events.CompletionEvent` for the message —
        the same completion vocabulary :meth:`DataVortexAPI.send_words
        <repro.dv.api.DataVortexAPI.send_words>` returns on the DV side.
        """
        return self._send(dest, payload, tag, nbytes)

    def _send(self, dest: int, payload: Any, tag: int,
              nbytes: Optional[int]) -> Generator:
        if dest == self.rank:
            # self-sends short-circuit through the unexpected queue
            if self._obs_on:
                self._m_sends["self"].inc()
            n = (nbytes if nbytes is not None
                 else payload_nbytes(payload))
            yield from self._overhead()
            self._on_fabric(self.rank, "eager",
                            (tag, -1, payload,
                             self._next_send_seq(self.rank)), n)
            done = CompletionEvent(self.engine, fabric="ib", op="self",
                                   src=self.rank, dest=dest, tag=tag,
                                   nbytes=n,
                                   name=f"ib:self @{self.rank}")
            done.succeed(None)
            return done
        n = payload_nbytes(payload) if nbytes is None else int(nbytes)
        yield from self._overhead()
        if n <= self.config.eager_threshold_bytes:
            if self._obs_on:
                self._m_sends["eager"].inc()
            return self._eager(dest, payload, tag, n)
        if self._obs_on:
            self._m_sends["rendezvous"].inc()
        rts_id, cts = self._rts(dest, tag)
        return (yield from self._rendezvous_data(rts_id, cts, dest,
                                                 payload, n, tag))

    def recv(self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG
             ) -> Generator:
        """Blocking receive; generator value is ``(data, src, tag)``."""
        if self._obs_on:
            self._m_recvs.inc()
        yield from self._overhead()
        arrival = self._match_or_wait(src, tag)
        if isinstance(arrival, Event):
            arrival = yield arrival
        if arrival.kind == "eager":
            if arrival.nbytes:
                yield self.engine.timeout(
                    arrival.nbytes / self.config.memcpy_bw)
            return arrival.payload, arrival.src, arrival.tag
        # rendezvous: grant the sender and wait for the bulk data
        data = yield self._grant(arrival)
        return data, arrival.src, arrival.tag

    def _match_or_wait(self, src: int, tag: int):
        arrival = self._take(src, tag)
        if arrival is not None:
            return arrival
        ev = self.engine.event(name=f"recv@{self.rank}")
        self._post(src, tag, ev.succeed)
        return ev

    def iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking check for a matching pending message."""
        if src != ANY_SOURCE and tag != ANY_TAG:
            return (src, tag) in self._unexpected
        return any(_wild_match(src, tag, s, t) for s, t in self._unexpected)

    def isend(self, dest: int, payload: Any, *, tag: int = 0,
              nbytes: Optional[int] = None):
        """Non-blocking send; returns a joinable process event."""
        return self.engine.process(
            self._send(dest, payload, tag, nbytes),
            name=f"isend {self.rank}->{dest}")

    def irecv(self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG):
        """Non-blocking receive; join it to obtain ``(data, src, tag)``."""
        return self.engine.process(self.recv(src, tag=tag),
                                   name=f"irecv @{self.rank}")

    def sendrecv(self, dest: int, payload: Any,
                 src: int = ANY_SOURCE, *, sendtag: int = 0,
                 recvtag: int = ANY_TAG, nbytes: Optional[int] = None
                 ) -> Generator:
        """Simultaneous exchange (deadlock-free pairwise step)."""
        return self._sendrecv(dest, payload, src, sendtag, recvtag,
                              nbytes)

    def _sendrecv(self, dest: int, payload: Any, src: int, sendtag: int,
                  recvtag: int, nbytes: Optional[int]) -> Generator:
        s = self.isend(dest, payload, tag=sendtag, nbytes=nbytes)
        r = self.irecv(src, tag=recvtag)
        got = yield r
        yield s
        return got

    # -- collectives ---------------------------------------------------------
    def _ctag(self) -> int:
        """Fresh collective-phase tag (all ranks call collectives in the
        same order, so sequence numbers agree)."""
        return _COLLECTIVE_TAG_BASE + next(self._collective_seq)

    def _timed_collective(self, op: str, gen: Generator) -> Generator:
        """Drive a collective, recording its sim-time latency per op."""
        if not self._obs_on:
            return (yield from gen)
        t0 = self.engine.now
        result = yield from gen
        self._m_collectives.inc()
        h = self._coll_hists.get(op)
        if h is None:
            h = obsreg.histogram("ib.mpi.collective_seconds", op=op)
            self._coll_hists[op] = h
        h.observe(self.engine.now - t0)
        return result

    def barrier(self) -> Generator:
        """Barrier across all ranks; the generator's value is a
        (pre-fired) :class:`~repro.sim.events.CompletionEvent` — the
        same shape the DV hardware barrier returns."""
        from repro.ib import collectives
        yield from self._timed_collective(
            "barrier", collectives.barrier(self))
        done = CompletionEvent(self.engine, fabric="ib", op="barrier",
                               src=self.rank,
                               name=f"ib:barrier @{self.rank}")
        done.succeed(None)
        return done

    def bcast(self, data: Any, root: int = 0) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "bcast", collectives.bcast(self, data, root)))

    def reduce(self, data: Any, op: Callable, root: int = 0) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "reduce", collectives.reduce(self, data, op, root)))

    def allreduce(self, data: Any, op: Callable) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "allreduce", collectives.allreduce(self, data, op)))

    def gather(self, data: Any, root: int = 0) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "gather", collectives.gather(self, data, root)))

    def allgather(self, data: Any) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "allgather", collectives.allgather(self, data)))

    def scatter(self, chunks: Optional[List[Any]], root: int = 0
                ) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "scatter", collectives.scatter(self, chunks, root)))

    def alltoall(self, chunks: List[Any]) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "alltoall", collectives.alltoall(self, chunks)))

    def alltoallv(self, chunks: List[Any]) -> Generator:
        from repro.ib import collectives
        return (yield from self._timed_collective(
            "alltoallv", collectives.alltoall(self, chunks)))


class MPIRuntime:
    """Owns the fabric and the per-rank endpoints."""

    def __init__(self, engine: Engine, config: IBConfig, n_ranks: int, *,
                 fabric=None) -> None:
        self.engine = engine
        self.config = config
        self.n_ranks = n_ranks
        # a pre-built fabric (the cluster's, or a tenancy
        # TenantFabricView over a shared fat tree) carries its own
        # contention setting; otherwise a contended fat tree
        self.fabric = fabric if fabric is not None else FastIBFabric(
            engine, config, n_ranks)
        self.endpoints = [MPIEndpoint(self, r) for r in range(n_ranks)]
        self._rts_counter = itertools.count()

    def next_rts_id(self) -> int:
        return next(self._rts_counter)

    def endpoint(self, rank: int) -> MPIEndpoint:
        return self.endpoints[rank]
