"""MPI collective algorithms over point-to-point messaging.

The algorithms mirror what OpenMPI 1.8 uses at these scales:

* ``barrier`` — Bruck dissemination (ceil(log2 P) rounds);
* ``bcast`` / ``reduce`` — binomial trees;
* ``allreduce`` — reduce + bcast (the robust small-cluster choice);
* ``gather`` / ``scatter`` — linear at the root;
* ``allgather`` — recursive doubling (ring for non-powers of two);
* ``alltoall`` — basic linear: every receive posted, then every send
  issued, as one chain of per-message software overheads on the host
  CPU, with no Process per message (:class:`_Exchange`).

Every round charges the per-stage software overhead from
:class:`~repro.ib.config.IBConfig`, and all traffic rides the contended
fabric, so collective latency inherits the fat-tree knee (Fig. 4).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, TYPE_CHECKING

from repro.ib.mpi import payload_nbytes

if TYPE_CHECKING:  # pragma: no cover
    from repro.ib.mpi import MPIEndpoint


def _stage(ep: "MPIEndpoint") -> Generator:
    yield ep.engine.timeout(ep.config.collective_stage_overhead_s)


def barrier(ep: "MPIEndpoint") -> Generator:
    """Bruck dissemination barrier."""
    p, rank = ep.size, ep.rank
    if p == 1:
        yield from _stage(ep)
        return
    tag = ep._ctag()
    k = 1
    while k < p:
        dest = (rank + k) % p
        src = (rank - k) % p
        yield from _stage(ep)
        yield from ep.sendrecv(dest, 0, src, sendtag=tag, recvtag=tag,
                               nbytes=8)
        k *= 2


def bcast(ep: "MPIEndpoint", data: Any, root: int = 0) -> Generator:
    """Binomial-tree broadcast; returns the broadcast value on all ranks."""
    p = ep.size
    tag = ep._ctag()
    if p == 1:
        return data
    vrank = (ep.rank - root) % p
    # climb: receive from the parent at this rank's lowest set bit
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank - mask) + root) % p
            yield from _stage(ep)
            data, _, _ = yield from ep.recv(parent, tag=tag)
            break
        mask <<= 1
    # descend: forward to children at every bit below the receive bit
    mask >>= 1
    while mask >= 1:
        child_v = vrank + mask
        if child_v < p:
            child = (child_v + root) % p
            yield from _stage(ep)
            yield from ep.send(child, data, tag=tag)
        mask >>= 1
    return data


def reduce(ep: "MPIEndpoint", data: Any, op: Callable,
           root: int = 0) -> Generator:
    """Binomial-tree reduction; the result is returned at ``root`` (other
    ranks get ``None``)."""
    p = ep.size
    tag = ep._ctag()
    if p == 1:
        return data
    vrank = (ep.rank - root) % p
    acc = data
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % p
            yield from _stage(ep)
            yield from ep.send(parent, acc, tag=tag)
            acc = None
            break
        child_v = vrank | mask
        if child_v < p:
            child = (child_v + root) % p
            yield from _stage(ep)
            other, _, _ = yield from ep.recv(child, tag=tag)
            acc = op(acc, other)
        mask <<= 1
    return acc if ep.rank == root else None


def allreduce(ep: "MPIEndpoint", data: Any, op: Callable) -> Generator:
    """Reduce-to-root followed by broadcast."""
    result = yield from reduce(ep, data, op, root=0)
    result = yield from bcast(ep, result, root=0)
    return result


def gather(ep: "MPIEndpoint", data: Any, root: int = 0) -> Generator:
    """Linear gather; the root receives a list indexed by rank."""
    p = ep.size
    tag = ep._ctag()
    if ep.rank == root:
        out: List[Any] = [None] * p
        out[root] = data
        for _ in range(p - 1):
            yield from _stage(ep)
            payload, src, _ = yield from ep.recv(tag=tag)
            out[src] = payload
        return out
    yield from _stage(ep)
    yield from ep.send(root, data, tag=tag)
    return None


def allgather(ep: "MPIEndpoint", data: Any) -> Generator:
    """Allgather: recursive doubling for power-of-two sizes (log P
    rounds of doubling blocks), ring otherwise."""
    p, rank = ep.size, ep.rank
    out: List[Any] = [None] * p
    out[rank] = data
    if p == 1:
        return out
    tag = ep._ctag()
    if p & (p - 1) == 0:
        have = {rank: data}
        mask = 1
        while mask < p:
            partner = rank ^ mask
            yield from _stage(ep)
            got, _, _ = yield from ep.sendrecv(
                partner, dict(have), partner, sendtag=tag, recvtag=tag)
            have.update(got)
            mask <<= 1
        for i, v in have.items():
            out[i] = v
        return out
    right = (rank + 1) % p
    left = (rank - 1) % p
    block = data
    src_idx = rank
    for _ in range(p - 1):
        yield from _stage(ep)
        block_in, _, _ = yield from ep.sendrecv(
            right, (src_idx, block), left, sendtag=tag, recvtag=tag)
        src_idx, block = block_in
        out[src_idx] = block
    return out


def scatter(ep: "MPIEndpoint", chunks: Optional[List[Any]],
            root: int = 0) -> Generator:
    """Linear scatter from the root; returns this rank's chunk."""
    p = ep.size
    tag = ep._ctag()
    if ep.rank == root:
        if chunks is None or len(chunks) != p:
            raise ValueError("root must pass one chunk per rank")
        for r in range(p):
            if r != root:
                yield from _stage(ep)
                yield from ep.send(r, chunks[r], tag=tag)
        return chunks[root]
    yield from _stage(ep)
    data, _, _ = yield from ep.recv(root, tag=tag)
    return data


def alltoall(ep: "MPIEndpoint", chunks: List[Any]) -> Generator:
    """Non-blocking linear all-to-all; returns received chunks by rank.

    The OpenMPI "basic linear" algorithm: P-1 receives are posted, then
    P-1 sends issued, and all complete together.  The per-message
    software overheads serialise on the host CPU, which is held for the
    whole run of 2(P-1) overheads; wire transfers, receive copies and
    rendezvous handshakes overlap.  See :class:`_Exchange`.
    """
    p, rank = ep.size, ep.rank
    if len(chunks) != p:
        raise ValueError("need one chunk per rank")
    out: List[Any] = [None] * p
    out[rank] = chunks[rank]
    tag = ep._ctag()
    yield from _stage(ep)
    if p > 1:
        yield ep._cpu.acquire()
        yield _Exchange(ep, chunks, out, tag).done
    return out


# Request states of an _Exchange, in the order a request goes through them
_OPEN, _NOTIFYING, _SETTLED = 0, 1, 2


class _Exchange:
    """One rank's share of an :func:`alltoall`, driven by callbacks.

    **Chain.**  Step ``k`` ends one software overhead after step ``k-1``
    (one :meth:`~repro.sim.engine.Engine.call_in` each): steps
    ``0..P-2`` post the receives, steps ``P-1..2P-3`` issue the sends,
    each to peers ``rank+1, rank+2, ...``.  An eager receive completes
    ``nbytes / memcpy_bw`` after both its post and its arrival; an eager
    send completes when issued.  The protocol is chosen per message: an
    over-threshold chunk or a matched RTS runs the endpoint's rendezvous
    handshake for that message alone.

    **Join.**  The rank resumes at the same point among same-instant
    events as when it joined one process per request, in request order:
    a finished request settled one zero-delay pass after it completed,
    and the rank took one zero-delay pass for each request it found
    already settled.  Those passes only order the rank against other
    events due at the same instant, so they are replayed as heap entries
    only when such events exist (:meth:`_replay_passes`).
    """

    __slots__ = ("ep", "chunks", "out", "tag", "peers", "done", "state",
                 "first_open", "joined")

    def __init__(self, ep: "MPIEndpoint", chunks: List[Any],
                 out: List[Any], tag: int) -> None:
        p, rank = ep.size, ep.rank
        engine = ep.engine
        self.ep = ep
        self.chunks = chunks
        self.out = out
        self.tag = tag
        self.peers = [(rank + i) % p for i in range(1, p)]
        self.done = engine.event(name=f"alltoall @{rank}")
        #: per request (receives, then sends, in step order)
        self.state = bytearray(2 * (p - 1))
        self.first_open = 0      # lowest request not yet completed
        self.joined = 0          # request the rank is joining
        engine.call_in(ep.config.sw_overhead_s, self._step, 0)

    # -- chain ----------------------------------------------------------
    def _step(self, k: int) -> None:
        ep, n = self.ep, len(self.peers)
        last = k == 2 * n - 1
        if last:
            ep._cpu.release()
        if k < n:
            src = self.peers[k]
            arrival = ep._take(src, self.tag)
            if arrival is None:
                ep._post(src, self.tag, self._arrived)
            else:
                self._matched(arrival)
        else:
            self._send(k, self.peers[k - n])
        if not last:
            ep.engine.call_in(ep.config.sw_overhead_s, self._step, k + 1)

    def _send(self, i: int, dst: int) -> None:
        ep = self.ep
        payload = self.chunks[dst]
        n = payload_nbytes(payload)
        if n <= ep.config.eager_threshold_bytes:
            ep._inject_eager(dst, payload, self.tag, n)
            self._complete(i)
            return
        rts_id, cts = ep._rts(dst, self.tag)
        ep.engine.process(self._rendezvous_send(i, rts_id, cts, dst,
                                                payload, n),
                          name=f"rendezvous {ep.rank}->{dst}")

    def _rendezvous_send(self, i: int, rts_id: int, cts, dst: int,
                         payload: Any, n: int) -> Generator:
        yield from self.ep._rendezvous_data(rts_id, cts, dst, payload, n,
                                            self.tag)
        self._complete(i)

    def _arrived(self, arrival) -> None:
        # a posted receive matched on delivery: take it up on the next
        # queue pass, where a waiting receive process would resume
        self.ep.engine.call_in(0.0, self._matched, arrival)

    def _matched(self, arrival) -> None:
        ep = self.ep
        src = arrival.src
        i = (src - ep.rank) % ep.size - 1
        if arrival.kind == "eager":
            if arrival.nbytes:
                ep.engine.call_in(arrival.nbytes / ep.config.memcpy_bw,
                                  self._received, i, src, arrival.payload)
            else:
                self._received(i, src, arrival.payload)
            return
        ep._grant(arrival).add_callback(
            lambda ev: self._received(i, src, ev.value))

    def _received(self, i: int, src: int, data: Any) -> None:
        self.out[src] = data
        self._complete(i)

    # -- join -----------------------------------------------------------
    def _replay_passes(self) -> bool:
        """Whether a zero-delay pass could reorder the rank against
        other events: only if some other event is due at this instant."""
        engine = self.ep.engine
        return engine.peek() <= engine.now

    def _complete(self, i: int) -> None:
        state = self.state
        # a request completing behind an open one is settled before the
        # rank can reach it, so only the lowest open one needs its pass
        if i == self.first_open and self._replay_passes():
            state[i] = _NOTIFYING
            self.ep.engine.call_in(0.0, self._settle, i)
        else:
            state[i] = _SETTLED
        f = self.first_open
        while f < len(state) and state[f] != _OPEN:
            f += 1
        self.first_open = f
        if i == self.joined and state[i] == _SETTLED:
            self._join()

    def _settle(self, i: int) -> None:
        self.state[i] = _SETTLED
        if i == self.joined:
            self._join()

    def _join(self) -> None:
        """The rank has collected request ``joined``; move on to the
        next one not yet settled, or finish."""
        state = self.state
        j = self.joined + 1
        while j < len(state) and state[j] == _SETTLED:
            if self._replay_passes():
                self.joined = j
                self.ep.engine.call_in(0.0, self._join)
                return
            j += 1
        self.joined = j
        if j == len(state):
            # the rank resumes inside this pass, as it did when joining
            # the last request process: fire the done event in place
            done = self.done
            done._ok, done._value = True, self.out
            done._process()
