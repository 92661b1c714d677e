"""The interference matrix: ``fig_interference``.

For each ordered (victim, aggressor) pair the experiment runs the
victim twice on the *same* cluster geometry — once alone in its rank
window (solo baseline; the aggressor's ranks sit idle) and once
co-scheduled with the aggressor — and reports the slowdown
``elapsed_co / elapsed_solo`` per fabric.

Geometry matters here and is itself the finding.  The Data Vortex side
runs the stock switch: its only cross-tenant coupling is the
load-driven deflection penalty (paper §II, "statistically ~2 hops"
under contention), which prices into *latency*, so DV slowdowns sit
near 1.0 — the flat deflection fabric isolates co-tenants.  The IB side
runs a deliberately oversubscribed fat tree whose leaf size does not
divide the tenant windows, so both tenants straddle a shared leaf and
their cross-leaf flows contend for its few uplinks — fat-tree slowdowns
reach tens of percent.  Regular tenants (FFT, the transport scan) are
the heaviest aggressors because their dense phases hold the shared
uplinks busy for sustained stretches; irregular victims (GUPS, BFS)
feel them through queueing on the straddled leaf.

Points run through the PR-2 cached executor (solo baselines dedupe
across pairs), and the golden harness pins a 4-pair matrix on both
fabrics across every determinism axis.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.report import Table

__all__ = [
    "DEFAULT_PAIRS",
    "WORKLOAD_PARAMS",
    "interference_point",
    "interference_table",
    "default_pairs",
]

#: Ordered (victim, aggressor) pairs: every irregular x regular
#: combination, both directions.
DEFAULT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("gups", "fft"), ("fft", "gups"),
    ("gups", "scan"), ("scan", "gups"),
    ("bfs", "fft"), ("fft", "bfs"),
    ("bfs", "scan"), ("scan", "bfs"),
)

#: Per-workload parameters sized so every tenant communicates in a
#: sustained way for a few tens of simulated microseconds — long enough
#: that co-scheduled tenants genuinely overlap on the wire.
WORKLOAD_PARAMS: Dict[str, Dict[str, Any]] = {
    "gups": {"table_words": 1 << 12, "n_updates": 1 << 10, "window": 32},
    "bfs": {"scale": 10, "edgefactor": 16, "window": 64},
    "fft": {"log2_points": 14},
    "scan": {"nx": 16, "ny_per_rank": 4, "nz": 16, "n_angles": 16,
             "chunk": 4},
}


def default_pairs(tenants: Optional[Sequence[str]] = None
                  ) -> Tuple[Tuple[str, str], ...]:
    """The pair list: all ordered pairs over ``tenants`` when given
    (the CLI ``--tenants`` idiom), else :data:`DEFAULT_PAIRS`."""
    if tenants is None:
        return DEFAULT_PAIRS
    names = list(tenants)
    if len(names) < 2:
        raise ValueError(
            f"need at least two tenant workloads, got {names}")
    return tuple((v, a) for v in names for a in names if v != a)


def interference_point(*, victim: str, aggressor: Optional[str],
                       fabric: str, nodes_per_tenant: int = 4,
                       seed: int = 2017, ib_leaf_size: int = 3,
                       ib_uplinks: int = 2,
                       workload_params: Optional[Mapping] = None
                       ) -> Dict[str, Any]:
    """One cell's raw timing: the victim alone (``aggressor=None``) or
    co-scheduled, on a ``2 * nodes_per_tenant``-node cluster.

    Module-level and keyword-only so the pool executor can pickle it
    and the cache can key it.  The victim keeps the cluster seed (its
    own randomness is identical solo and co-scheduled); the aggressor
    runs a derived ``("tenant", "aggressor")`` stream.
    """
    from repro.core.cluster import ClusterSpec
    from repro.ib.config import IBConfig
    from repro.tenancy.runner import run_cotenants
    from repro.tenancy.spec import TenantSpec, aggressor_seed

    params = dict(WORKLOAD_PARAMS)
    for name, over in dict(workload_params or {}).items():
        params[name] = {**params.get(name, {}), **dict(over)}

    spec = ClusterSpec(
        n_nodes=2 * int(nodes_per_tenant), seed=int(seed),
        ib=IBConfig(leaf_size=int(ib_leaf_size),
                    uplinks_per_leaf=int(ib_uplinks)))
    tenants = [TenantSpec(tenant_id="victim", workload=victim,
                          params=params[victim],
                          n_ranks=int(nodes_per_tenant))]
    if aggressor:
        tenants.append(TenantSpec(
            tenant_id="aggressor", workload=aggressor,
            params=params[aggressor], n_ranks=int(nodes_per_tenant),
            seed=aggressor_seed(int(seed), "aggressor")))
    res = run_cotenants(spec, tenants, fabric=fabric)
    out: Dict[str, Any] = {
        "victim": victim,
        "aggressor": aggressor or "",
        "fabric": fabric,
        "elapsed_victim_s": res.tenants["victim"]["elapsed_s"],
    }
    if aggressor:
        out["elapsed_aggressor_s"] = res.tenants["aggressor"]["elapsed_s"]
    return out


def interference_table(executor=None, *,
                       pairs: Sequence[Tuple[str, str]] = DEFAULT_PAIRS,
                       fabrics: Sequence[str] = ("dv", "mpi"),
                       nodes_per_tenant: int = 4, seed: int = 2017,
                       ib_leaf_size: int = 3, ib_uplinks: int = 2,
                       workload_params: Optional[Mapping] = None
                       ) -> Table:
    """The slowdown matrix: one row per ordered (victim, aggressor)
    pair, both fabrics side by side, points fanned through the
    executor (solo baselines dedupe across pairs via the cache)."""
    from repro.exec import Executor
    executor = executor or Executor()
    pairs = [(str(v), str(a)) for v, a in pairs]
    fabrics = tuple(fabrics)

    common = dict(nodes_per_tenant=int(nodes_per_tenant),
                  seed=int(seed), ib_leaf_size=int(ib_leaf_size),
                  ib_uplinks=int(ib_uplinks))
    if workload_params:
        common["workload_params"] = {
            k: dict(v) for k, v in dict(workload_params).items()}

    victims = sorted({v for v, _ in pairs})
    grid = [dict(victim=v, aggressor=None, fabric=f, **common)
            for f in fabrics for v in victims]
    grid += [dict(victim=v, aggressor=a, fabric=f, **common)
             for f in fabrics for v, a in pairs]
    rows = executor.map(interference_point, grid,
                        name="tenancy.interference")
    by_key = {(r["victim"], r["aggressor"], r["fabric"]): r for r in rows}

    columns = ["victim", "aggressor"]
    for f in fabrics:
        columns += [f"{f}_solo_s", f"{f}_co_s", f"{f}_slowdown"]
    t = Table("fig_interference: co-scheduled slowdown "
              "(elapsed co / elapsed solo)", columns)
    for v, a in pairs:
        cells: list = [v, a]
        for f in fabrics:
            solo = by_key[(v, "", f)]["elapsed_victim_s"]
            co = by_key[(v, a, f)]["elapsed_victim_s"]
            cells += [solo, co, co / solo]
        t.add_row(*cells)
    return t
