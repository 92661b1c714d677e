"""Pooled, array-backed flow network — the ``flow_impl="fast"`` engine.

:class:`FastFlowNetwork` is bit-identical to :class:`FlowNetwork` on any
seeded scenario but replaces the per-transfer Python-object machinery
(two marker :class:`~repro.sim.events.Event` objects plus two closures
per transfer, and a pure-Python ``min_hops`` walk per call) with:

* a **numpy structured-array message pool** — per-transfer state lives
  in flat arrays indexed by a recycled slot id, not in closure cells;
* **lightweight engine callbacks** via :meth:`Engine.call_in` — one
  heap entry per arrival and one per ejection, with *no* Event
  allocation;
* a precomputed **hop table** replacing ``topology.min_hops``;
* a vectorised :meth:`transmit_batch` that prices a whole
  one-source/many-destination fan-out (a GUPS epoch, a counter
  exchange) in a handful of numpy operations;
* **one countdown join per scatter**: :meth:`scatter` (the source
  aggregation of ``DataVortexAPI.send_batch``) files one shared
  :class:`_Countdown` as every group's completion instead of a
  :class:`~repro.sim.events.CompletionEvent` per group.

Heap entries per transfer: the reference spends three (arrival marker,
ejection marker, ``done``), and a scatter's ``AllOf`` adds one per
batch.  The fast engine spends the same three for :meth:`transmit` and
``transmit_batch(collect=True)``, two for ``collect=False``, and two
per scatter group plus two per batch (the last delivery's wakeup and
the join itself).

Bit-identity argument (validated by ``tests/test_flow_equivalence.py``
and the golden suite): the reference engine's determinism comes from the
``(time, sequence)`` heap order.  The fast engine issues exactly one
``call_in`` at the instant the reference allocates each marker event and
triggers the ``done`` event at the same point of each delivery, so every
heap entry of a reference run has a fast-run counterpart with the same
timestamp and the same *relative* sequence position; all float
arithmetic is performed with the same operations in the same order
(``np.add.accumulate`` is sequential, matching the scalar
injection-serialisation recurrence), and fault RNG draws happen at
identical instants in identical order.  The entries the fast engine
drops — the ``done`` of a fire-and-forget group, and the ``done`` of
every scatter group but the last — have no callbacks in the reference
run except the ``AllOf`` count, so dropping them leaves the relative
order of every remaining entry unchanged.  The last group's delivery
enqueues the join's wakeup where the reference enqueues that group's
``done``; processing it succeeds the join, just as processing the
``done`` makes the ``AllOf`` succeed, so the join fires at the
reference ``AllOf``'s position with the same value (the payloads in
group order).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.dv.config import DVConfig
from repro.dv.flow import FlowNetwork, apply_flow_faults
from repro.dv.topology import DataVortexTopology
from repro.dv.vic import FifoPush, MemWrite
from repro.sim.engine import Engine, _Wakeup
from repro.sim.events import CompletionEvent, Event

_POOL_DTYPE = np.dtype([
    ("src", np.int32),
    ("dest", np.int32),
    ("n", np.int64),
    ("sent_at", np.float64),
    ("inj_end", np.float64),
    ("tof", np.float64),
])


def hop_table(topo: DataVortexTopology, n_ports: int) -> np.ndarray:
    """Vectorised ``min_hops`` for every (src, dest) port pair.

    Each height-bit mismatch between source and destination costs one
    deflection on the owning cylinder, so the descent phase takes
    ``levels + popcount(src_h ^ dest_h)`` hops; the packet then
    circulates the innermost cylinder to the destination angle.
    """
    angles = topo.angles
    ports = np.arange(n_ports, dtype=np.int64)
    h, a = np.divmod(ports, angles)
    x = h[:, None] ^ h[None, :]
    defl = np.zeros_like(x)
    for _ in range(topo.levels):
        defl += x & 1
        x >>= 1
    hops = topo.levels + defl
    arrive_a = (a[:, None] + hops) % angles
    hops = hops + (a[None, :] - arrive_a) % angles
    return hops.astype(np.int32)


class _Countdown:
    """The per-group ``done`` stand-in of one :meth:`FastFlowNetwork.scatter`.

    Every group of the batch files this one object as its completion;
    ``_deliver`` calls :meth:`succeed` where a per-group ``done`` would
    be triggered.  Only the last call schedules anything: a wakeup at
    the position the last ``done`` would take in the heap, which
    succeeds ``join`` with the payloads in group order — where the
    reference's ``AllOf`` over the per-group events succeeds.
    """

    __slots__ = ("join", "left", "payloads")

    def __init__(self, join: Event, left: int, payloads: List[Any]) -> None:
        self.join = join
        self.left = left
        self.payloads = payloads

    def succeed(self, _payload: Any) -> None:
        self.left -= 1
        if not self.left:
            self.join.engine.call_in(0.0, self.join.succeed, self.payloads)


class FastFlowNetwork(FlowNetwork):
    """Drop-in :class:`FlowNetwork` with pooled, vectorised internals.

    Same constructor, same public surface (``attach`` / ``transmit`` /
    ``transmit_batch`` / ``scatter`` / ``time_of_flight`` / ``stats``),
    same simulated timings to the last bit — selected via
    ``ClusterSpec(flow_impl="fast")``.
    """

    def __init__(self, engine: Engine, config: DVConfig,
                 n_ports: int) -> None:
        super().__init__(engine, config, n_ports)
        self._hop = self.config.hop_time_s
        self._hops = hop_table(self.topo, n_ports)
        self._payloads: List[Any] = []
        #: per slot: its ``done`` event, its scatter's countdown, or None
        self._dones: List[Any] = []
        self._free_slots: List[int] = []
        self._grow(256)

    # -- pool ------------------------------------------------------------
    def _grow(self, capacity: int) -> None:
        pool = np.zeros(capacity, _POOL_DTYPE)
        old = getattr(self, "_pool", None)
        if old is not None:
            pool[:old.size] = old
            lo = old.size
        else:
            lo = 0
        self._pool = pool
        self._f_src = pool["src"]
        self._f_dest = pool["dest"]
        self._f_n = pool["n"]
        self._f_sent = pool["sent_at"]
        self._f_inj_end = pool["inj_end"]
        self._f_tof = pool["tof"]
        self._payloads.extend([None] * (capacity - lo))
        self._dones.extend([None] * (capacity - lo))
        self._free_slots.extend(range(capacity - 1, lo - 1, -1))

    def _alloc(self) -> int:
        free = self._free_slots
        if not free:
            self._grow(2 * self._pool.size)
        return free.pop()

    # -- transfers -------------------------------------------------------
    def transmit(self, src: int, dest: int, n_packets: int,
                 payload: Any = None, inject_rate: Optional[float] = None,
                 ) -> Event:
        if not 0 <= src < self.n_ports:
            raise ValueError(f"bad src port {src}")
        if not 0 <= dest < self.n_ports:
            raise ValueError(f"bad dest port {dest}")
        if n_packets < 1:
            raise ValueError("n_packets must be >= 1")

        now = self.engine.now
        hop = self._hop
        gap = max(hop, 1.0 / inject_rate) if inject_rate else hop

        inj_start = max(now, self._inject_free[src])
        self.stats.total_injection_wait_s += inj_start - now
        inj_end = inj_start + n_packets * gap
        self._inject_free[src] = inj_end
        if not self._port_busy[src]:
            self._port_busy[src] = True
            self._busy_ports += 1
        heappush(self._busy_heap, (inj_end, src))

        penalty = self.config.deflection_hops_per_load * self._load(now)
        tof = (int(self._hops[src, dest]) + penalty) * hop
        first_arrival = inj_start + gap + tof

        self.stats.packets_sent += n_packets
        self.stats.transfers += 1
        if self._obs_on:
            self._m_packets.inc(n_packets)
            self._m_transfers.inc()
            self._m_inj_wait.observe(inj_start - now)

        done = CompletionEvent(self.engine, fabric="dv", op="transmit",
                               src=src, dest=dest, words=n_packets)
        idx = self._alloc()
        self._f_src[idx] = src
        self._f_dest[idx] = dest
        self._f_n[idx] = n_packets
        self._f_sent[idx] = now
        self._f_inj_end[idx] = inj_end
        self._f_tof[idx] = tof
        self._payloads[idx] = payload
        self._dones[idx] = done
        self.engine.call_in(first_arrival - now, self._reserve, idx)
        return done

    def transmit_batch(self, src: int, dests: Sequence[int],
                       counts: Sequence[int], payloads: Sequence[Any],
                       inject_rate: Optional[float] = None,
                       collect: bool = True) -> List[Event]:
        ids, d, c = self._launch(src, dests, counts, payloads, inject_rate)
        if not collect or not ids:
            # Fire-and-forget: the slots keep no completion, so no
            # ``done`` is ever enqueued (see the module docstring).
            return []
        engine = self.engine
        done_list = self._dones
        dones: List[Event] = []
        for idx, dest, n in zip(ids, d.tolist(), c.tolist()):
            done = CompletionEvent(engine, fabric="dv", op="transmit",
                                   src=src, dest=dest, words=n)
            done_list[idx] = done
            dones.append(done)
        return dones

    def _scatter(self, src: int, dests: Sequence[int],
                 counts: Sequence[int], payloads: Sequence[Any],
                 inject_rate: Optional[float]) -> Event:
        ids, _, _ = self._launch(src, dests, counts, payloads, inject_rate)
        if not ids:
            return self.engine.all_of([])
        join = Event(self.engine)
        countdown = _Countdown(join, len(ids), list(payloads))
        done_list = self._dones
        for idx in ids:
            done_list[idx] = countdown
        return join

    def _launch(self, src: int, dests: Sequence[int],
                counts: Sequence[int], payloads: Sequence[Any],
                inject_rate: Optional[float]):
        """Price one batch and schedule its arrivals.

        Returns ``(slots, dests, counts)``: the pool slot of each group,
        in group order, and the validated arrays.  The slots carry no
        completion; the caller files one in ``_dones`` or leaves them
        empty.
        """
        if not (len(dests) == len(counts) == len(payloads)):
            raise ValueError("dests, counts, payloads must align")
        m = len(dests)
        if m == 0:
            return [], None, None
        if not 0 <= src < self.n_ports:
            raise ValueError(f"bad src port {src}")
        d = np.asarray(dests, dtype=np.int64)
        c = np.asarray(counts, dtype=np.int64)
        if not ((0 <= d) & (d < self.n_ports)).all():
            bad = int(d[(d < 0) | (d >= self.n_ports)][0])
            raise ValueError(f"bad dest port {bad}")
        if not (c >= 1).all():
            raise ValueError("n_packets must be >= 1")

        engine = self.engine
        now = engine.now
        hop = self._hop
        gap = max(hop, 1.0 / inject_rate) if inject_rate else hop

        # Injection serialisation: the scalar recurrence
        # ``end_k = end_{k-1} + n_k * gap`` is a strictly sequential
        # accumulate, so the vectorised form rounds identically.
        first_start = max(now, self._inject_free[src])
        seq = np.empty(m + 1, np.float64)
        seq[0] = first_start
        np.multiply(c, gap, out=seq[1:])
        np.add.accumulate(seq, out=seq)
        inj_start = seq[:m]
        self._inject_free[src] = last_end = float(seq[m])
        if not self._port_busy[src]:
            self._port_busy[src] = True
            self._busy_ports += 1
        heappush(self._busy_heap, (last_end, src))

        # Stats mirror the scalar loop's accumulation order exactly.
        waits = inj_start - now
        acc = self.stats.total_injection_wait_s
        for w in waits.tolist():
            acc += w
        self.stats.total_injection_wait_s = acc
        n_total = int(c.sum())
        self.stats.packets_sent += n_total
        self.stats.transfers += m
        if self._obs_on:
            self._m_packets.inc(n_total)
            self._m_transfers.inc(m)
            self._m_inj_wait.observe_many(waits)

        penalty = self.config.deflection_hops_per_load * self._load(now)
        tof = (self._hops[src, d] + penalty) * hop
        first_arrival = (inj_start + gap) + tof

        ids = [self._alloc() for _ in range(m)]
        idv = np.array(ids, np.intp)
        self._f_src[idv] = src
        self._f_dest[idv] = d
        self._f_n[idv] = c
        self._f_sent[idv] = now
        self._f_inj_end[idv] = seq[1:]
        self._f_tof[idv] = tof

        payload_list = self._payloads
        reserve = self._reserve
        # inlined Engine.call_in (same arithmetic: _now + delay)
        queue = engine._queue
        eng_now = engine._now
        delays = (first_arrival - now).tolist()
        for k in range(m):
            idx = ids[k]
            payload_list[idx] = payloads[k]
            engine._seq += 1
            heappush(queue, (eng_now + delays[k], engine._seq,
                             _Wakeup(reserve, (idx,))))
        return ids, d, c

    # -- arrival / ejection ---------------------------------------------
    def _reserve(self, idx: int) -> None:
        t = self.engine.now
        dest = self._f_dest[idx]
        ej_start = self._eject_free[dest]
        if t >= ej_start:
            ej_start = t
        wait = ej_start - t
        self.stats.total_ejection_wait_s += wait
        if self._obs_on:
            self._m_ej_wait.observe(wait)
        ej_end = ej_start + (int(self._f_n[idx]) - 1) * self._hop
        # Python floats, not pool scalars: same bits, and engine.now
        # (hence every reported elapsed_s) keeps the reference's type.
        floor = float(self._f_inj_end[idx]) + float(self._f_tof[idx])
        if floor > ej_end:
            ej_end = floor
        self._eject_free[dest] = ej_end
        # inlined Engine.call_in (same arithmetic: _now + delay)
        engine = self.engine
        engine._seq += 1
        heappush(engine._queue, (t + (ej_end - t), engine._seq,
                                 _Wakeup(self._deliver, (idx,))))

    def _deliver(self, idx: int) -> None:
        src = int(self._f_src[idx])
        dest = int(self._f_dest[idx])
        n = int(self._f_n[idx])
        payload = self._payloads[idx]
        done = self._dones[idx]
        self._payloads[idx] = None
        self._dones[idx] = None
        eff = payload
        fsite = self._faults
        if fsite is not None and isinstance(eff, (MemWrite, FifoPush)):
            eff = apply_flow_faults(fsite, eff, src, dest,
                                    float(self._f_sent[idx]),
                                    self.engine.now)
            if eff is None:
                self._free_slots.append(idx)
                if done is not None:
                    done.succeed(payload)
                return
        self._free_slots.append(idx)
        receiver = self._receivers[dest]
        if receiver is not None:
            receiver(src, eff, n)
        if done is not None:
            done.succeed(payload)


class ShardedFlowNetwork(FastFlowNetwork):
    """Shard-local view of one Data Vortex switch (conservative PDES).

    Each shard owns a contiguous range of ports (its ranks' VICs).  A
    transmit performs every *port-local* step of the fast engine
    inline — injection serialisation, stats, sequence burning — but the
    deflection penalty needs the **global** busy-port census, so pricing
    is deferred: the call logs one ledger row, and at the window barrier
    the hub replays all shards' rows in the deterministic merge order
    (:mod:`repro.sim.pdes.ledger`) and hands the penalties back.
    :meth:`price_and_emit` then finishes each pending transfer with the
    serial engine's exact float operations, scheduling local arrivals
    directly and batching cross-shard ones for the hub to route
    (:meth:`ingest` on the destination shard).

    Conservative-lookahead invariant: a first arrival is at least
    ``gap + min_hops*hop >= (1 + hops.min()) * hop`` after its transmit,
    so every arrival priced at a window barrier fires at or beyond the
    window end — never in the shard's past.

    Completion events for cross-shard transfers are created (API
    parity) but never fire; the runner detects programs that wait on
    them as a sharded-only deadlock and falls back to serial.
    """

    # Per-group completion events, joined by an ``AllOf``: a scatter
    # with a cross-shard group then never completes, which the runner
    # needs in order to detect the wait and fall back to serial.
    _scatter = FlowNetwork._scatter

    def __init__(self, engine: Engine, config: DVConfig, n_ports: int,
                 shard_of: "np.ndarray", shard_id: int) -> None:
        super().__init__(engine, config, n_ports)
        self.shard_of = shard_of
        self.shard_id = shard_id
        self.n_shards = int(shard_of.max()) + 1
        #: ledger rows for the current window: (t_tx, origin, lseq, src,
        #: mark_end); 1:1 with ``_pending_px``
        self._rows: list = []
        #: deferred transfers awaiting a penalty, in row order
        self._pending_px: list = []

    # -- transfers (deferred pricing) -------------------------------------
    def transmit(self, src: int, dest: int, n_packets: int,
                 payload: Any = None, inject_rate: Optional[float] = None,
                 ) -> Event:
        if not 0 <= src < self.n_ports:
            raise ValueError(f"bad src port {src}")
        if not 0 <= dest < self.n_ports:
            raise ValueError(f"bad dest port {dest}")
        if n_packets < 1:
            raise ValueError("n_packets must be >= 1")

        engine = self.engine
        now = engine.now
        hop = self._hop
        gap = max(hop, 1.0 / inject_rate) if inject_rate else hop

        inj_start = max(now, self._inject_free[src])
        self.stats.total_injection_wait_s += inj_start - now
        inj_end = inj_start + n_packets * gap
        self._inject_free[src] = inj_end

        self.stats.packets_sent += n_packets
        self.stats.transfers += 1
        if self._obs_on:
            self._m_packets.inc(n_packets)
            self._m_transfers.inc()
            self._m_inj_wait.observe(inj_start - now)

        done = CompletionEvent(engine, fabric="dv", op="transmit",
                               src=src, dest=dest, words=n_packets)
        seq0 = engine.burn_seq(1)
        origin = engine._origin
        self._rows.append((now, origin, seq0, src, inj_end))
        self._pending_px.append(
            (False, now, origin, seq0, src, gap, inj_start, inj_end,
             dest, n_packets, payload, done))
        return done

    def transmit_batch(self, src: int, dests: Sequence[int],
                       counts: Sequence[int], payloads: Sequence[Any],
                       inject_rate: Optional[float] = None,
                       collect: bool = True) -> List[Event]:
        if not (len(dests) == len(counts) == len(payloads)):
            raise ValueError("dests, counts, payloads must align")
        m = len(dests)
        if m == 0:
            return []
        if not 0 <= src < self.n_ports:
            raise ValueError(f"bad src port {src}")
        d = np.asarray(dests, dtype=np.int64)
        c = np.asarray(counts, dtype=np.int64)
        if not ((0 <= d) & (d < self.n_ports)).all():
            bad = int(d[(d < 0) | (d >= self.n_ports)][0])
            raise ValueError(f"bad dest port {bad}")
        if not (c >= 1).all():
            raise ValueError("n_packets must be >= 1")

        engine = self.engine
        now = engine.now
        hop = self._hop
        gap = max(hop, 1.0 / inject_rate) if inject_rate else hop

        first_start = max(now, self._inject_free[src])
        seq = np.empty(m + 1, np.float64)
        seq[0] = first_start
        np.multiply(c, gap, out=seq[1:])
        np.add.accumulate(seq, out=seq)
        inj_start = seq[:m]
        self._inject_free[src] = float(seq[m])

        waits = inj_start - now
        acc = self.stats.total_injection_wait_s
        for w in waits.tolist():
            acc += w
        self.stats.total_injection_wait_s = acc
        n_total = int(c.sum())
        self.stats.packets_sent += n_total
        self.stats.transfers += m
        if self._obs_on:
            self._m_packets.inc(n_total)
            self._m_transfers.inc(m)
            self._m_inj_wait.observe_many(waits)

        dones: List[Event] = []
        if collect:
            dl = d.tolist()
            cl = c.tolist()
            dones = [CompletionEvent(engine, fabric="dv", op="transmit",
                                     src=src, dest=dl[k], words=cl[k])
                     for k in range(m)]
        seq0 = engine.burn_seq(m)
        origin = engine._origin
        self._rows.append((now, origin, seq0, src, float(seq[m])))
        self._pending_px.append(
            (True, now, origin, seq0, src, gap, inj_start, seq[1:].copy(),
             d, c, list(payloads), dones or None))
        return dones

    # -- window barrier ----------------------------------------------------
    def take_rows(self) -> list:
        rows, self._rows = self._rows, []
        return rows

    def price_and_emit(self, penalties: Sequence[float]) -> List[list]:
        """Finish the window's deferred transfers with their penalties.

        Local arrivals are scheduled on this shard's engine under their
        burned merge keys; cross-shard arrivals are returned as one
        record per destination shard, columns ready for the pipe:
        ``[sched, origin, src, fire[], floor[], seq[], dest[], n[],
        PackedEffects]``.
        """
        from repro.sim.pdes.pack import pack_effects
        pending, self._pending_px = self._pending_px, []
        if len(penalties) != len(pending):
            raise RuntimeError("penalty/pending ledger mismatch")
        engine = self.engine
        hop = self._hop
        shard_of = self.shard_of
        my = self.shard_id
        out: List[list] = []
        for p, penalty in zip(pending, penalties):
            batch = p[0]
            if not batch:
                (_, now, origin, seq0, src, gap, inj_start, inj_end,
                 dest, n_packets, payload, done) = p
                tof = (int(self._hops[src, dest]) + penalty) * hop
                first_arrival = inj_start + gap + tof
                floor = inj_end + tof
                if shard_of[dest] == my:
                    engine.schedule_key(first_arrival, now, origin, seq0,
                                        self._arrive,
                                        (src, dest, n_packets, floor,
                                         payload, done))
                else:
                    out.append([now, origin, src,
                                np.array([first_arrival]),
                                np.array([floor]),
                                np.array([seq0], np.int64),
                                np.array([dest], np.int64),
                                np.array([n_packets], np.int64),
                                pack_effects([payload]),
                                int(shard_of[dest])])
                continue
            (_, now, origin, seq0, src, gap, inj_start, inj_end,
             d, c, payloads, dones) = p
            tof = (self._hops[src, d] + penalty) * hop
            first_arrival = (inj_start + gap) + tof
            floor = inj_end + tof
            owner = shard_of[d]
            local = owner == my
            if local.any():
                fa_l = first_arrival.tolist()
                fl_l = floor.tolist()
                dl = d.tolist()
                cl = c.tolist()
                for k in np.flatnonzero(local).tolist():
                    engine.schedule_key(
                        fa_l[k], now, origin, seq0 + k, self._arrive,
                        (src, dl[k], cl[k], fl_l[k], payloads[k],
                         dones[k] if dones else None))
            if not local.all():
                for sid in np.unique(owner[~local]).tolist():
                    sel = np.flatnonzero(owner == sid)
                    out.append([now, origin, src,
                                first_arrival[sel], floor[sel],
                                seq0 + sel.astype(np.int64),
                                d[sel], c[sel],
                                pack_effects([payloads[k]
                                              for k in sel.tolist()]),
                                int(sid)])
        return out

    def ingest(self, record: list) -> None:
        """Schedule one inbound cross-shard arrival record."""
        from repro.sim.pdes.pack import unpacker
        (now, origin, src, fire, floor, seqs, dest, n, packed, _sid) = record
        take = unpacker(packed).take
        schedule = self.engine.schedule_key
        arrive = self._arrive
        fire_l = fire.tolist()
        floor_l = floor.tolist()
        seq_l = seqs.tolist()
        dest_l = dest.tolist()
        n_l = n.tolist()
        for k in range(len(fire_l)):
            schedule(fire_l[k], now, origin, seq_l[k], arrive,
                     (src, dest_l[k], n_l[k], floor_l[k], take(k), None))

    # -- arrival / ejection (pool-free) ------------------------------------
    def _arrive(self, src: int, dest: int, n: int, floor: float,
                payload: Any, done: Optional[Event]) -> None:
        t = self.engine.now
        ej_start = self._eject_free[dest]
        if t >= ej_start:
            ej_start = t
        wait = ej_start - t
        self.stats.total_ejection_wait_s += wait
        if self._obs_on:
            self._m_ej_wait.observe(wait)
        ej_end = ej_start + (n - 1) * self._hop
        if floor > ej_end:
            ej_end = floor
        self._eject_free[dest] = ej_end
        engine = self.engine
        engine._seq += 1
        engine._push += 1
        heappush(engine._queue,
                 (t + (ej_end - t), t, engine._origin, engine._seq,
                  engine._push,
                  _Wakeup(self._deliver2, (src, dest, n, payload, done))))

    def _deliver2(self, src: int, dest: int, n: int, payload: Any,
                  done: Optional[Event]) -> None:
        # Faults never run sharded (the runner falls back to serial when
        # a plan is installed), so no degradation branch here.
        receiver = self._receivers[dest]
        if receiver is not None:
            receiver(src, payload, n)
        if done is not None:
            done.succeed(payload)
