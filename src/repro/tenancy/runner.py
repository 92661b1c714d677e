"""The co-scheduler: N tenants, one engine, one fabric.

:func:`run_cotenants` resolves a tenant list into contiguous rank
windows on a single :class:`~repro.core.cluster.ClusterSpec`-sized
fabric and runs every tenant's program concurrently on one shared
:class:`~repro.sim.engine.Engine`, so tenants contend for injection
ports, switch load and spine uplinks physically.  Construction order
deliberately replicates :func:`repro.core.cluster.run_spmd` — network,
then every VIC, then per tenant (APIs in rank order, hardware barrier,
fast barrier), then contexts, then processes — because the engine
breaks simultaneous-event ties by creation sequence: with a single
tenant spanning the whole cluster the sequence is *identical* to the
untenanted path, which is what makes solo runs byte-identical (the
``tenancy`` determinism axis pins this on every golden figure via
:func:`run_solo_shadow`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core import cluster
from repro.core.cluster import ClusterSpec, RunResult
from repro.core.context import RankContext
from repro.core.trace import Tracer
from repro.dv.api import DataVortexAPI
from repro.dv.barrier import FastBarrier, HardwareBarrier
from repro.dv.vic import VIC
from repro.ib.mpi import MPIRuntime
from repro.obs import registry as obsreg
from repro.sim.engine import Engine
from repro.tenancy.spec import (TenantPartition, TenantSpec, TenancyError,
                                merge_fault_plans, resolve_partitions,
                                tenant_seed)
from repro.tenancy.views import (TenantFabricView, TenantNetworkView,
                                 TenantVICView)
from repro.tenancy.workloads import TenantWorkload, build_workload

__all__ = ["TenancyResult", "run_cotenants", "run_solo_shadow"]


@dataclass
class TenancyResult:
    """Outcome of one co-scheduled run."""

    fabric: str
    #: per-tenant metrics dicts (the same shape the standalone kernel
    #: entry points report), keyed by tenant id
    tenants: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: raw per-rank values, keyed by tenant id
    values: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    #: simulated cluster time when the last tenant finished
    elapsed: float = 0.0
    net_stats: Any = None
    engine: Optional[Engine] = None
    tracer: Optional[Tracer] = None


@dataclass(frozen=True)
class _Runnable:
    """One resolved tenant ready to execute."""

    partition: TenantPartition
    program: Any                     # program(ctx) -> generator
    seed: int
    name_prefix: str                 # process name prefix ("" = legacy)


def _execute(spec: ClusterSpec, runnables: Sequence[_Runnable],
             fabric: str, max_events: Optional[int]):
    """Build the shared fabric, one view stack per tenant, and run.

    Returns ``(engine, tracer, per-runnable process lists, net_stats)``.
    The body mirrors ``run_spmd`` exactly — see the module docstring.
    """
    engine = Engine()
    tracer = Tracer(enabled=spec.trace)
    n = spec.n_nodes

    context_groups: List[List[RankContext]] = []
    net_stats: Any = None
    if fabric == "dv":
        network = cluster.build_network(engine, spec, fabric)
        vics = [VIC(engine, spec.dv, i, network) for i in range(n)]
        for rn in runnables:
            part = rn.partition
            net_view = TenantNetworkView(network, part)
            vic_views = [TenantVICView(vics[part.base + i], part, i)
                         for i in range(part.n_ranks)]
            apis = [DataVortexAPI(engine, spec.dv, v, net_view)
                    for v in vic_views]
            hw_barrier = HardwareBarrier(engine, spec.dv, vic_views,
                                         net_view)
            fast_barrier = FastBarrier(engine, spec.dv, vic_views,
                                       net_view)
            for api in apis:
                api.hw_barrier = hw_barrier
                api.fast_barrier_impl = fast_barrier
            context_groups.append([
                RankContext(engine, r, part.n_ranks, spec.node, tracer,
                            rn.seed, dv=apis[r])
                for r in range(part.n_ranks)])
        net_stats = network.stats
    else:
        shared = cluster.build_network(engine, spec, fabric)
        for rn in runnables:
            part = rn.partition
            view = TenantFabricView(shared, part)
            runtime = MPIRuntime(engine, spec.ib, part.n_ranks,
                                 fabric=view)
            context_groups.append([
                RankContext(engine, r, part.n_ranks, spec.node, tracer,
                            rn.seed, mpi=runtime.endpoint(r))
                for r in range(part.n_ranks)])
        net_stats = shared.stats

    proc_groups = []
    for rn, contexts in zip(runnables, context_groups):
        proc_groups.append([
            engine.process(rn.program(ctx),
                           name=f"{rn.name_prefix}rank{ctx.rank}")
            for ctx in contexts])
    engine.run(max_events=max_events)

    failures = []
    for procs in proc_groups:
        for p in procs:
            if not p.triggered:
                raise RuntimeError(
                    f"deadlock: {p.name} never finished "
                    f"(fabric={fabric})")
            if not p.ok:
                failures.append(p)
    if failures:
        raise failures[0].value

    return engine, tracer, proc_groups, net_stats


def run_cotenants(spec: ClusterSpec, tenants: Sequence[TenantSpec],
                  fabric: str = "dv",
                  max_events: Optional[int] = None) -> TenancyResult:
    """Co-schedule ``tenants`` on one ``spec``-sized cluster.

    Tenant rank windows are assigned contiguously in list order and
    must fit inside ``spec.n_nodes`` (ranks beyond the last window sit
    idle, which keeps solo baselines and co-scheduled runs on
    identically sized fabrics).  Per-tenant fault plans are merged into
    one cluster-wide plan (outages translated to global ports;
    conflicting probabilistic knobs raise
    :class:`~repro.tenancy.spec.TenancyError`).  A tenant with no
    explicit ``seed`` inherits ``spec.seed``.
    """
    if fabric not in ("dv", "mpi"):
        raise TenancyError(
            f'fabric must be "dv" or "mpi", got {fabric!r}')
    tenants = list(tenants)
    parts = resolve_partitions(tenants, spec.n_nodes, spec.dv)
    plan = merge_fault_plans(tenants, parts, spec.seed)

    from repro import agg as aggmod
    runnables: List[_Runnable] = []
    workloads: List[TenantWorkload] = []
    for t, part in zip(tenants, parts):
        seed = tenant_seed(t, spec.seed)
        # Only the irregular kernels consult the scoped aggregation
        # override in the legacy path (run_fft1d / run_snap never call
        # resolve_spec), so an ambient agg.session must stay invisible
        # to FFT/scan tenants exactly as it is untenanted; an explicit
        # per-tenant aggregation on those workloads still raises.
        agg_spec = t.aggregation
        if agg_spec is None and t.workload in ("gups", "bfs"):
            agg_spec = aggmod.resolve_spec(None)
        wl = build_workload(t.workload, fabric=fabric,
                            n_ranks=part.n_ranks, seed=seed,
                            params=t.params, traffic=t.traffic,
                            agg_spec=agg_spec)
        workloads.append(wl)
        runnables.append(_Runnable(partition=part, program=wl.program,
                                   seed=seed,
                                   name_prefix=f"{t.tenant_id}:"))

    session = nullcontext()
    if plan is not None:
        from repro import faults
        session = faults.session(plan)
    with session:
        engine, tracer, proc_groups, net_stats = _execute(
            spec, runnables, fabric, max_events)

    result = TenancyResult(fabric=fabric, elapsed=engine.now,
                           net_stats=net_stats, engine=engine,
                           tracer=tracer)
    obs_on = obsreg.enabled()
    for t, wl, procs in zip(tenants, workloads, proc_groups):
        values = [p.value for p in procs]
        metrics = wl.finish(values)
        result.values[t.tenant_id] = values
        result.tenants[t.tenant_id] = metrics
        if obs_on and "elapsed_s" in metrics:
            obsreg.gauge("tenant.elapsed_s",
                         tenant=t.tenant_id).set(metrics["elapsed_s"])
    return result


def run_solo_shadow(spec: ClusterSpec, program,
                    fabric: str = "dv",
                    max_events: Optional[int] = None) -> RunResult:
    """Run an arbitrary ``run_spmd`` program through the tenancy stack.

    Builds a single identity partition spanning every rank — base 0,
    full counter and DV-memory windows, no credit budget — so every
    translation is the identity and every guard passes.  This is the
    ``tenancy`` determinism axis: every golden figure re-run through
    this path must be bit-identical to the untenanted serial body.
    """
    n_ctrs = spec.dv.group_counters
    part = TenantPartition(
        tenant_id="solo", base=0, n_ranks=spec.n_nodes,
        ctr_lo=0, ctr_hi=n_ctrs,
        mem_lo=0, mem_hi=spec.dv.dv_memory_words,
        ib_credits=None,
        allowed_counters=frozenset(range(n_ctrs)))
    rn = _Runnable(partition=part, program=program, seed=spec.seed,
                   name_prefix="")
    engine, tracer, proc_groups, net_stats = _execute(
        spec, [rn], fabric, max_events)
    return RunResult(values=[p.value for p in proc_groups[0]],
                     elapsed=engine.now, tracer=tracer, engine=engine,
                     fabric=fabric, net_stats=net_stats)
