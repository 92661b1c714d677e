"""The PDES hub: shard construction, window loop, process workers.

One :class:`ShardState` is the sharded twin of everything
:func:`repro.core.cluster.run_spmd` builds — a
:class:`~repro.sim.pdes.engine.ShardEngine`, the sharded transport
(:class:`~repro.dv.fastflow.ShardedFlowNetwork` or
:class:`~repro.ib.fastfabric.ShardedIBFabric` under an
:class:`~repro.ib.mpi.MPIRuntime`), VICs/APIs/contexts for the shard's
own ranks (foreign slots are ``None``), and one rank process per local
rank, rooted at its rank as cascade origin.

The hub drives all shards through conservative windows::

    T   = min over shards of next-event time
    end = T + lookahead            # min cross-shard latency
    every shard runs events with fire_t < end, logging ledger rows
    hub merges rows (deterministic key), replays global pricing
    shards finish their transfers: local arrivals scheduled, cross-
    shard arrival records routed and ingested under burned merge keys

Lookahead guarantees every priced arrival fires at or beyond ``end``,
so no shard ever hears about its past — no rollbacks, no null messages.

Two execution modes share this loop byte-for-byte: ``fork`` (one OS
process per shard, pipes for the barrier protocol — the fast path) and
``in-process`` (same ShardState objects driven sequentially — used when
``fork`` is unavailable, and by the equivalence tests to separate
protocol bugs from transport bugs).

Anything the sharded transports cannot split exactly raises
:class:`~repro.sim.pdes.ShardingFallback`, which
:func:`repro.core.cluster.run_spmd` converts into a serial rerun.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.context import RankContext
from repro.core.trace import Tracer
from repro.dv.api import DataVortexAPI
from repro.dv.barrier import FastBarrier, HardwareBarrier
from repro.dv.fastflow import ShardedFlowNetwork
from repro.dv.flow import FlowStats
from repro.dv.vic import VIC
from repro.faults import injector as fltreg
from repro.ib.fabric import FabricStats
from repro.ib.fastfabric import ShardedIBFabric
from repro.ib.mpi import MPIRuntime
from repro.sim.engine import Engine, SimulationError
from repro.sim.pdes import ShardingFallback
from repro.sim.pdes.engine import ShardEngine, resume_order_violation
from repro.sim.pdes.ledger import DVReplayer, IBReplayer, merge_rows

_INF = float("inf")


def fork_available() -> bool:
    """Whether the fast multi-process mode can run on this platform."""
    return "fork" in mp.get_all_start_methods()


class ShardOutcome:
    """Picklable end-of-run report from one shard."""

    __slots__ = ("shard_id", "now", "processed", "results", "stats",
                 "cpu_s")

    def __init__(self, shard_id: int, now: float, processed: int,
                 results: Dict[int, tuple], stats: Any,
                 cpu_s: float = 0.0) -> None:
        self.shard_id = shard_id
        self.now = now
        self.processed = processed
        #: rank -> (triggered, ok, value-or-exception)
        self.results = results
        self.stats = stats
        #: CPU seconds this shard burned on its commands (build through
        #: finish) — process time, so valid even when shards timeshare
        #: one core; max(cpu_s) + hub CPU estimates the parallel
        #: critical path
        self.cpu_s = cpu_s


class ShardState:
    """One shard's engine, transport, and rank processes."""

    def __init__(self, spec, program, fabric: str,
                 shard_of: np.ndarray, shard_id: int) -> None:
        self.shard_id = shard_id
        self.fabric = fabric
        engine = self.engine = ShardEngine(shard_id=shard_id)
        n = spec.n_nodes
        local = [r for r in range(n) if shard_of[r] == shard_id]
        self.local_ranks = local
        tracer = Tracer(enabled=False)  # spec.trace falls back earlier

        contexts: List[RankContext] = []
        if fabric == "dv":
            net = ShardedFlowNetwork(engine, spec.dv, n, shard_of, shard_id)
            mine = set(local)
            vics = [VIC(engine, spec.dv, i, net) if i in mine else None
                    for i in range(n)]
            apis = {r: DataVortexAPI(engine, spec.dv, vics[r], net)
                    for r in local}
            hw_barrier = HardwareBarrier(engine, spec.dv, vics, net)
            fast_barrier = FastBarrier(engine, spec.dv, vics, net)
            for api in apis.values():
                api.hw_barrier = hw_barrier
                api.fast_barrier_impl = fast_barrier
            for r in local:
                contexts.append(RankContext(engine, r, n, spec.node, tracer,
                                            spec.seed, dv=apis[r]))
            self.net = net
        else:
            def fabric_cls(e, c, nn, contention=True):
                return ShardedIBFabric(e, c, nn, contention=contention,
                                       shard_of=shard_of, shard_id=shard_id)
            runtime = MPIRuntime(engine, spec.ib, n,
                                 contention=spec.ib_contention,
                                 fabric_cls=fabric_cls)
            for r in local:
                contexts.append(RankContext(engine, r, n, spec.node, tracer,
                                            spec.seed,
                                            mpi=runtime.endpoint(r)))
            self.net = runtime.fabric

        # Rank order matters: the serial engine spawns rank processes in
        # rank order, and their start events tie-break by origin.
        self.procs = {ctx.rank: engine.process(program(ctx),
                                               name=f"rank{ctx.rank}",
                                               origin=ctx.rank)
                      for ctx in contexts}

    # -- hub protocol -----------------------------------------------------
    def peek(self) -> float:
        return self.engine.peek()

    def run_window(self, end: float) -> tuple:
        """Run [now, end); returns (events processed, ledger rows,
        unsupported-reason-or-None, re-root log)."""
        n = self.engine.run_window(end)
        return (n, self.net.take_rows(),
                getattr(self.net, "unsupported", None),
                self.engine.take_resumes())

    def price(self, prices: list) -> list:
        """Finish the window's transfers; returns cross-shard records."""
        return self.net.price_and_emit(prices)

    def ingest(self, records: list) -> float:
        for rec in records:
            self.net.ingest(rec)
        return self.engine.peek()

    def finish(self) -> ShardOutcome:
        results = {}
        for r, p in self.procs.items():
            value = p.value if p.triggered else None
            results[r] = (p.triggered, p.triggered and p.ok, value)
        return ShardOutcome(self.shard_id, self.engine.now,
                            self.engine.events_processed, results,
                            self.net.stats)


# -- shard handles (uniform post/take over both modes) ----------------------

class _LocalHandle:
    """Drives a ShardState in this process (in-process mode)."""

    def __init__(self, spec, program, fabric, shard_of, shard_id) -> None:
        t0 = time.process_time()
        self.state = ShardState(spec, program, fabric, shard_of, shard_id)
        self._cpu = time.process_time() - t0
        self._reply = ("ok", self.state.peek())

    def post(self, msg: tuple) -> None:
        state = self.state
        op = msg[0]
        t0 = time.process_time()
        try:
            if op == "window":
                self._reply = ("ok", state.run_window(msg[1]))
            elif op == "price":
                self._reply = ("ok", state.price(msg[1]))
            elif op == "ingest":
                self._reply = ("ok", state.ingest(msg[1]))
            elif op == "finish":
                out = state.finish()
                out.cpu_s = self._cpu + (time.process_time() - t0)
                self._reply = ("ok", out)
            else:  # pragma: no cover - hub bug
                raise RuntimeError(f"unknown shard command {op!r}")
        except ShardingFallback:
            raise
        except BaseException as e:  # noqa: BLE001 - routed to fallback
            self._reply = ("error", f"{type(e).__name__}: {e}")
        finally:
            if op != "finish":
                self._cpu += time.process_time() - t0

    def take(self):
        return self._reply

    def close(self) -> None:
        pass


def _shard_worker(conn, spec, program, fabric, shard_of,
                  shard_id) -> None:
    """Child-process command loop (fork mode).

    State is built *after* the fork from the inherited closure — shards
    construct their hop tables and pools concurrently, and nothing but
    ledger rows, prices, and arrival records ever crosses the pipe.
    """
    try:
        state = ShardState(spec, program, fabric, shard_of, shard_id)
        conn.send(("ok", state.peek()))
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "window":
                conn.send(("ok", state.run_window(msg[1])))
            elif op == "price":
                conn.send(("ok", state.price(msg[1])))
            elif op == "ingest":
                conn.send(("ok", state.ingest(msg[1])))
            elif op == "finish":
                out = state.finish()
                # child process: everything it ever did is its own CPU
                out.cpu_s = time.process_time()
                conn.send(("ok", out))
                conn.close()
                return
            else:  # pragma: no cover - hub bug
                raise RuntimeError(f"unknown shard command {op!r}")
    except BaseException as e:  # noqa: BLE001 - routed to fallback
        try:
            conn.send(("error", f"{type(e).__name__}: {e}"))
        except Exception:
            pass


class _ForkHandle:
    """Drives a ShardState in a forked child over a pipe."""

    def __init__(self, ctx, spec, program, fabric, shard_of,
                 shard_id) -> None:
        self.conn, child = mp.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_shard_worker,
            args=(child, spec, program, fabric, shard_of, shard_id),
            daemon=True)
        self.proc.start()
        child.close()

    def post(self, msg: tuple) -> None:
        self.conn.send(msg)

    def take(self):
        try:
            return self.conn.recv()
        except EOFError:
            return ("error", "shard worker died")

    def close(self) -> None:
        try:
            self.conn.close()
        finally:
            self.proc.join(timeout=5.0)
            if self.proc.is_alive():  # pragma: no cover - hung child
                self.proc.terminate()
                self.proc.join(timeout=5.0)


def _exchange(handles: list, messages: list) -> list:
    """Issue one command to every shard, then collect every reply.

    Posting everything before reading anything is what lets forked
    shards overlap their windows — the whole speedup lives here.
    Any shard-side error aborts the sharded attempt.
    """
    for h, msg in zip(handles, messages):
        h.post(msg)
    replies = []
    for h in handles:
        status, payload = h.take()
        if status != "ok":
            raise ShardingFallback(f"shard error: {payload}")
        replies.append(payload)
    return replies


def _broadcast(handles: list, msg: tuple) -> list:
    return _exchange(handles, [msg] * len(handles))


# -- the hub ----------------------------------------------------------------

def _precheck(spec, shards: int) -> None:
    """Raise ShardingFallback for runs the sharded path must not take."""
    if shards < 2:
        raise ShardingFallback("shards < 2 — serial path")
    if spec.flow_impl != "fast":
        raise ShardingFallback(
            "sharding requires flow_impl='fast' (the reference engines "
            "price transfers inline against global state)")
    if spec.trace:
        raise ShardingFallback(
            "tracing records a single global event stream; rerunning "
            "serially")
    if fltreg.active() is not None:
        raise ShardingFallback(
            "fault injection draws from process-global RNG streams in "
            "delivery order; rerunning serially")


def run_spmd_sharded(spec, program, fabric: str = "dv",
                     max_events: Optional[int] = None, *,
                     shards: int, in_process: bool = False):
    """Sharded twin of :func:`repro.core.cluster.run_spmd`.

    Returns a :class:`repro.core.cluster.RunResult` that is
    bit-identical (values, elapsed time, integer network stats) to the
    serial run, or raises :class:`ShardingFallback` when it cannot
    guarantee that — the caller then runs serially.
    """
    from repro.core.cluster import RunResult
    from repro.core.scaling import (dv_lookahead_s, ib_lookahead_s,
                                    partition_ports)

    _precheck(spec, shards)
    n = spec.n_nodes
    shard_of = partition_ports(n, shards, fabric=fabric,
                               dv=spec.dv, ib=spec.ib)
    n_shards = int(shard_of[-1]) + 1  # trailing shards may be empty
    if n_shards < 2:
        raise ShardingFallback("partition degenerated to one shard")

    if fabric == "dv":
        lookahead = dv_lookahead_s(spec.dv, n)
        replayer = DVReplayer(spec.dv, n)
    else:
        lookahead = ib_lookahead_s(spec.ib)
        replayer = IBReplayer(spec.ib, n, contention=spec.ib_contention)

    use_fork = not in_process and fork_available()
    handles: list = []
    hub_cpu0 = time.process_time()
    n_windows = 0
    try:
        if use_fork:
            ctx = mp.get_context("fork")
            handles = [_ForkHandle(ctx, spec, program, fabric, shard_of, s)
                       for s in range(n_shards)]
        else:
            handles = [_LocalHandle(spec, program, fabric, shard_of, s)
                       for s in range(n_shards)]

        peeks = []
        for h in handles:
            status, payload = h.take()
            if status != "ok":
                raise ShardingFallback(f"shard build failed: {payload}")
            peeks.append(payload)

        total_events = 0
        while True:
            t0 = min(peeks)
            if t0 == _INF:
                break
            end = t0 + lookahead
            n_windows += 1
            windows = _broadcast(handles, ("window", end))

            rows_by_shard = []
            for n_ev, rows, unsupported, _ in windows:
                if unsupported is not None:
                    raise ShardingFallback(unsupported)
                total_events += n_ev
                rows_by_shard.append(rows)
            misorder = resume_order_violation([w[3] for w in windows])
            if misorder is not None:
                raise ShardingFallback(misorder)
            if max_events is not None and total_events > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} "
                    f"(simulated time {t0:g}s)")

            # Global pricing in the deterministic serial replay order;
            # each price is routed back to the shard that logged its row,
            # in that shard's local row order.
            prices: List[list] = [[None] * len(r) for r in rows_by_shard]
            if fabric == "dv":
                for t_tx, _o, _q, sid, k, row in merge_rows(rows_by_shard):
                    prices[sid][k] = replayer.price(t_tx, row[3], row[4])
            else:
                for t_tx, _o, _q, sid, k, row in merge_rows(rows_by_shard):
                    prices[sid][k] = replayer.price(t_tx, row[3], row[4],
                                                    row[5])

            records = _exchange(handles,
                                [("price", p) for p in prices])
            inboxes: List[list] = [[] for _ in range(n_shards)]
            for recs in records:
                for rec in recs:
                    inboxes[rec[-1]].append(rec)
            peeks = _exchange(handles,
                              [("ingest", box) for box in inboxes])

        outcomes = _broadcast(handles, ("finish",))
    finally:
        for h in handles:
            h.close()

    # -- assemble the serial-shaped result ---------------------------------
    values: List[Any] = [None] * n
    for out in outcomes:
        for r, (triggered, ok, value) in out.results.items():
            if not triggered:
                raise ShardingFallback(
                    f"rank{r} never finished under sharding (likely "
                    "waiting on a cross-shard completion event); "
                    "rerunning serially")
            if not ok:
                # A genuine program error reproduces serially with full
                # traceback fidelity; a sharded-only failure vanishes.
                raise ShardingFallback(
                    f"rank{r} failed under sharding: {value!r}; "
                    "rerunning serially")
            values[r] = value

    elapsed = max(out.now for out in outcomes)
    if fabric == "dv":
        stats = FlowStats()
        for out in outcomes:
            stats.packets_sent += out.stats.packets_sent
            stats.transfers += out.stats.transfers
            # float wait totals are order-sensitive sums; the per-shard
            # partials give a close (not bit-exact) aggregate.  Nothing
            # golden-pinned consumes them.
            stats.total_injection_wait_s += out.stats.total_injection_wait_s
            stats.total_ejection_wait_s += out.stats.total_ejection_wait_s
    else:
        stats = FabricStats()
        for out in outcomes:
            stats.messages += out.stats.messages
            stats.bytes += out.stats.bytes
            stats.cross_leaf_messages += out.stats.cross_leaf_messages
        # exact: accumulated by the replayer in serial row order
        stats.total_queue_wait_s = replayer.total_queue_wait_s

    # Execution report for perf tooling (repro.sim.pdes.last_report):
    # max shard CPU + hub CPU is the parallel critical path, which
    # projects the fork-mode wall clock even when the host timeshares
    # the shards over fewer cores than shards.
    import repro.sim.pdes as _pdes
    hub_cpu = time.process_time() - hub_cpu0
    _pdes._LAST_REPORT = {
        "fabric": fabric,
        "mode": "fork" if use_fork else "in-process",
        "n_shards": n_shards,
        "windows": n_windows,
        "events_per_shard": [out.processed for out in outcomes],
        "shard_cpu_s": [out.cpu_s for out in outcomes],
        "hub_cpu_s": hub_cpu,
        "critical_path_s": max(out.cpu_s for out in outcomes) + hub_cpu,
    }

    # A synthetic engine carrying the merged clock: RunResult consumers
    # read .now / .events_processed off it.
    engine = Engine(start=elapsed)
    engine._processed_count = sum(out.processed for out in outcomes)
    return RunResult(values=values, elapsed=elapsed,
                     tracer=Tracer(enabled=False), engine=engine,
                     fabric=fabric, net_stats=stats)
