"""Perf trajectory guard (slow): times the hot paths this repo promises
to keep fast and records them in ``BENCH_exec.json`` at the repo root,
so later PRs can see whether they sped things up or regressed them.

Measured:

* 64-port ``FastCycleSwitch.run_until_drained`` under saturating
  uniform-random load (the §IX scale-up inner loop);
* a cold (all points simulated) vs warm (all points from the on-disk
  cache) switch-scaling sweep through the executor;
* the faults-disabled guard cost on the same 64-port drain (the
  ``repro.faults`` zero-cost-when-disabled contract, same bound as the
  obs guard);
* a small throughput-degradation sweep (GUPS vs. drop rate on both
  fabrics), serial and parallel runs asserted identical;
* fast-vs-reference engine A/B runs of 256-node GUPS on DV and on MPI.
"""

import json
import pathlib
import platform
import time

import pytest

from repro.core.scaling import switch_scaling
from repro.dv.fastswitch import FastCycleSwitch
from repro.dv.topology import DataVortexTopology
from repro.exec import Executor, ResultCache

BENCH_FILE = pathlib.Path(__file__).resolve().parents[1] / "BENCH_exec.json"

pytestmark = pytest.mark.slow


def _record(section: str, payload: dict) -> None:
    data = {}
    if BENCH_FILE.exists():
        try:
            data = json.loads(BENCH_FILE.read_text())
        except ValueError:
            data = {}
    data.setdefault("meta", {}).update({
        "python": platform.python_version(),
        "machine": platform.machine(),
    })
    data[section] = payload
    BENCH_FILE.write_text(json.dumps(data, indent=2) + "\n")


def test_fastswitch_64port_drain_rate():
    import random
    topo = DataVortexTopology(height=32, angles=2)
    assert topo.ports == 64
    per_port = 256
    reps = []
    for rep in range(3):
        sw = FastCycleSwitch(topo)
        rng = random.Random(7)
        for src in range(topo.ports):
            for _ in range(per_port):
                sw.inject(src, rng.randrange(topo.ports))
        t0 = time.perf_counter()
        ejected = sw.run_until_drained(max_cycles=10_000_000)
        dt = time.perf_counter() - t0
        assert len(ejected) == per_port * topo.ports
        reps.append((dt, sw.cycle))
    best_dt = min(dt for dt, _ in reps)
    cycles = reps[0][1]
    _record("fastswitch_64port_drain", {
        "ports": topo.ports,
        "packets": per_port * topo.ports,
        "drain_cycles": cycles,
        "seconds_best_of_3": round(best_dt, 4),
        "cycles_per_second": round(cycles / best_dt),
        "packets_per_second": round(per_port * topo.ports / best_dt),
    })
    # sanity floor, generous enough for slow CI machines
    assert cycles / best_dt > 500


def test_cached_sweep_vs_cold(tmp_path):
    cache_dir = str(tmp_path / "bench-cache")
    heights = (8, 16, 32)

    t0 = time.perf_counter()
    cold = switch_scaling(heights=heights, per_port=64,
                          executor=Executor(cache_dir=cache_dir))
    cold_s = time.perf_counter() - t0

    cache = ResultCache(cache_dir)
    t0 = time.perf_counter()
    warm = switch_scaling(heights=heights, per_port=64,
                          executor=Executor(cache=cache))
    warm_s = time.perf_counter() - t0

    assert warm == cold                      # bit-identical points
    assert cache.hits == len(heights)        # all points from cache
    assert cache.misses == 0                 # zero simulations re-run
    assert warm_s < cold_s
    _record("cached_sweep", {
        "heights": list(heights),
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "speedup": round(cold_s / max(warm_s, 1e-9), 1),
    })


def test_faults_disabled_guard_overhead_under_ten_percent():
    """With no FaultPlan installed, the fault hooks cost one
    ``is not None`` test per injection — bound their total under 10%
    of the 64-port drain, the same contract `tests/test_obs_overhead.py`
    pins for the obs guards."""
    import random
    import timeit

    from repro import faults

    faults.injector.clear()
    topo = DataVortexTopology(height=32, angles=2)
    per_port = 64
    rng = random.Random(7)
    pairs = [(src, rng.randrange(topo.ports))
             for src in range(topo.ports) for _ in range(per_port)]

    sw = FastCycleSwitch(topo)
    assert sw._faults is None                   # truly disabled
    t0 = time.perf_counter()
    for s, d in pairs:
        sw.inject(s, d)
    ejected = sw.run_until_drained(max_cycles=10_000_000)
    run_s = time.perf_counter() - t0
    assert len(ejected) == len(pairs)

    guards = len(pairs)                         # one guard per inject
    guard_s = timeit.timeit("f is not None",
                            globals={"f": sw._faults}, number=guards)
    _record("faults_disabled_guard", {
        "ports": topo.ports,
        "packets": len(pairs),
        "run_seconds": round(run_s, 4),
        "guard_seconds": round(guard_s, 6),
        "guard_fraction": round(guard_s / run_s, 4),
    })
    assert guard_s < 0.10 * run_s, (
        f"faults guard overhead {guard_s:.4f}s is >= 10% of the "
        f"{run_s:.4f}s faults-disabled run ({guards} guards)")


def test_degradation_sweep_serial_parallel_identical(tmp_path):
    """The capstone sweep on a small grid: GUPS throughput vs. drop
    rate on both fabrics.  The parallel cached run must reproduce the
    serial one row for row (seeded fault plans are worker-invariant)."""
    from repro.faults.experiments import degradation_table

    t0 = time.perf_counter()
    serial = degradation_table(Executor(), workloads=("gups",),
                               drops=(0.0, 0.02), nodes=4)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    par = degradation_table(
        Executor(workers=2, cache_dir=str(tmp_path / "deg-cache")),
        workloads=("gups",), drops=(0.0, 0.02), nodes=4)
    par_s = time.perf_counter() - t0

    assert par.render() == serial.render()
    rows = {(r[0], r[1], r[2]): r for r in serial.rows}
    assert all(r[6] for r in serial.rows)        # every point validated
    # loss actually degrades DV and costs retransmits
    assert rows[("gups", "dv", 0.02)][5] > 0
    assert (rows[("gups", "dv", 0.02)][3]
            < rows[("gups", "dv", 0.0)][3])
    _record("degradation_sweep", {
        "drops": [0.0, 0.02],
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(par_s, 4),
        "dv_mups_clean": round(rows[("gups", "dv", 0.0)][3], 2),
        "dv_mups_drop02": round(rows[("gups", "dv", 0.02)][3], 2),
        "retransmits_drop02": rows[("gups", "dv", 0.02)][5],
    })


def test_flow_engine_ab_speedup_at_256_nodes(monkeypatch,
                                            reference_engines):
    """The nightly A/B guard for the pooled flow engines: one 256-node
    GUPS run per implementation (the reference one inside the
    ``reference_engines`` fixture), identical simulated results, the
    fast engine at least 3x quicker wall-clock, and no more engine
    events than the reference.  A regression here means someone de-vectorised
    a hot path (or taught the reference model a trick the fast one
    didn't learn)."""
    import repro.core.cluster as cluster
    from repro.core.cluster import ClusterSpec
    from repro.kernels import run_gups
    from repro.sim.engine import Engine

    kw = dict(table_words=1 << 12, n_updates=1 << 11, window=256)
    engines = []

    class Counted(Engine):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            engines.append(self)

    monkeypatch.setattr(cluster, "Engine", Counted)

    def one(reps=2):
        best, result = float("inf"), None
        for _ in range(reps):               # best-of-N against noise
            spec = ClusterSpec(n_nodes=256, seed=2017)
            engines.clear()
            t0 = time.perf_counter()
            result = run_gups(spec, "dv", **kw)
            best = min(best, time.perf_counter() - t0)
        return result, best, sum(e.events_processed for e in engines)

    with reference_engines():
        ref, ref_s, ref_events = one()
    fast, fast_s, fast_events = one()
    drop = lambda r: {k: v for k, v in r.items() if k != "tracer"}
    assert drop(fast) == drop(ref)           # bit-identical simulation
    ratio = ref_s / max(fast_s, 1e-9)
    _record("flow_engine_ab_gups256", {
        "nodes": 256,
        "n_updates_per_node": kw["n_updates"],
        "reference_seconds": round(ref_s, 2),
        "fast_seconds": round(fast_s, 2),
        "speedup": round(ratio, 2),
        "reference_events": ref_events,
        "fast_events": fast_events,
    })
    assert fast_events <= ref_events, (
        f"fast flow engine processed {fast_events} engine events, more "
        f"than the reference's {ref_events}")
    assert ratio >= 3.0, (
        f"fast flow engine only {ratio:.2f}x faster than reference "
        f"({fast_s:.1f}s vs {ref_s:.1f}s) — regression below the 3x "
        f"floor")


def test_ib_fabric_ab_speedup_at_256_nodes(monkeypatch, reference_engines):
    """The nightly A/B guard for the fast IB fabric: 256-node MPI GUPS
    runs alternating between the reference fabric (inside the
    ``reference_engines`` fixture) and the fast one, best of two each,
    so that host drift hits both alike.  Simulated results must be
    identical, the fast fabric may process no more engine events, and
    it must keep at least 0.85x the reference's speed, below two thirds
    of the 1.37x median measured on a 2-CPU x86_64 host under Python
    3.11 (1.24-1.45x over four runs).  The fast fabric reserves integer
    channels in a flat list and sends the chained alltoall's eager
    messages without completion events, where the reference keys a
    dict by tuple channels and allocates a completion per message.
    Both hash each route once per pair here (every pair sends once),
    and the rest of the run (engine, MPI matching, the chain) is
    common to both, which caps the ratio."""
    import contextlib

    import repro.core.cluster as cluster
    from repro.core.cluster import ClusterSpec
    from repro.kernels import run_gups
    from repro.sim.engine import Engine

    kw = dict(table_words=1 << 12, n_updates=1 << 7, window=256)
    engines = []

    class Counted(Engine):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            engines.append(self)

    monkeypatch.setattr(cluster, "Engine", Counted)

    def one(reference):
        spec = ClusterSpec(n_nodes=256, seed=2017)
        engines.clear()
        with reference_engines() if reference else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = run_gups(spec, "mpi", **kw)
            wall = time.perf_counter() - t0
        return result, wall, sum(e.events_processed for e in engines)

    best = {}
    for _ in range(2):
        for reference in (True, False):
            run = one(reference)
            if reference not in best or run[1] < best[reference][1]:
                best[reference] = run
    ref, ref_s, ref_events = best[True]
    fast, fast_s, fast_events = best[False]
    drop = lambda r: {k: v for k, v in r.items() if k != "tracer"}
    assert drop(fast) == drop(ref)           # bit-identical simulation
    ratio = ref_s / max(fast_s, 1e-9)
    _record("ib_fabric_ab_gups256", {
        "nodes": 256,
        "n_updates_per_node": kw["n_updates"],
        "reference_seconds": round(ref_s, 2),
        "fast_seconds": round(fast_s, 2),
        "speedup": round(ratio, 2),
        "reference_events": ref_events,
        "fast_events": fast_events,
    })
    assert fast_events <= ref_events, (
        f"fast IB fabric processed {fast_events} engine events, more "
        f"than the reference's {ref_events}")
    assert ratio >= 0.85, (
        f"fast IB fabric at {ratio:.2f}x the reference's speed "
        f"({fast_s:.1f}s vs {ref_s:.1f}s) — regression below the 0.85x "
        f"floor")


def test_skew_sweep_timing_and_degradation_guard(tmp_path):
    """Nightly guard for the skewed-traffic sweep (fig_skew): time the
    full default grid through a pooled cached executor, assert the
    parallel run reproduces the serial rows bit-for-bit, and pin the
    physics — aggregate GUPS at the steepest Zipf exponent must sit
    below uniform on both fabrics (destination concentration
    serialises the hot node), with the degradation bounded away from
    collapse (> 25% of uniform throughput retained)."""
    from repro.traffic.experiments import skew_table

    kw = dict(nodes=4, table_words=1 << 12, n_updates=1 << 10,
              window=256, exponents=(0.0, 0.6, 1.2, 1.8))

    t0 = time.perf_counter()
    serial = skew_table(Executor(), **kw)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    par = skew_table(
        Executor(workers=2, cache_dir=str(tmp_path / "skew-cache")),
        **kw)
    par_s = time.perf_counter() - t0

    assert par.render() == serial.render()
    rows = {r[0]: r for r in serial.rows}
    uniform = rows["zipf(exponent=0.0)"]
    steep = rows["zipf(exponent=1.8)"]
    for col, name in ((2, "dv"), (3, "mpi")):
        assert steep[col] < uniform[col], (
            f"{name} did not degrade under skew")
        assert steep[col] > 0.25 * uniform[col], (
            f"{name} collapsed under skew")
    _record("skew_sweep", {
        "nodes": kw["nodes"],
        "exponents": list(kw["exponents"]),
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(par_s, 4),
        "dv_mups_uniform": round(uniform[2], 2),
        "dv_mups_zipf18": round(steep[2], 2),
        "mpi_mups_uniform": round(uniform[3], 2),
        "mpi_mups_zipf18": round(steep[3], 2),
        "dv_over_mpi_zipf18": round(steep[4], 3),
    })


def test_agg_sweep_crossover_and_message_reduction_guard(tmp_path):
    """Nightly A/B guard for the aggregation runtime (fig_agg): run the
    watermark-by-skew sweep through a pooled cached executor, assert
    the parallel run reproduces the serial rows bit-for-bit, and pin
    the headline physics — at the largest watermark the coalescing
    must (a) fold at least 20 legacy messages into each wire frame,
    (b) lift aggregated IB past the un-aggregated Data Vortex on
    uniform and hot-set traffic while plain IB stays far behind, and
    (c) still *lose* to DV on steep Zipf: fat frames amortise
    software overhead, not hot-receiver serialisation.  A regression
    here means the coalescing stopped fattening frames (watermark
    plumbing broke) or stopped translating fat frames into throughput
    (flush/settle path grew per-frame overhead)."""
    from repro.agg.experiments import agg_table

    kw = dict(nodes=8, exponents=(0.0, 1.8), include_hotset=True,
              watermarks=(64, 8192))

    t0 = time.perf_counter()
    serial = agg_table(Executor(), **kw)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    par = agg_table(
        Executor(workers=2, cache_dir=str(tmp_path / "agg-cache")),
        **kw)
    par_s = time.perf_counter() - t0

    assert par.render() == serial.render()
    rows = {(r[0], r[1]): r for r in serial.rows}
    hot = next(t for t, _ in rows if t.startswith("hotset"))
    uniform_big = rows[("zipf(exponent=0.0)", 8192)]
    steep_big = rows[("zipf(exponent=1.8)", 8192)]
    hot_big = rows[(hot, 8192)]
    for row, name in ((uniform_big, "uniform"), (hot_big, "hot-set")):
        # message reduction: the fat watermark must actually coalesce
        assert row[6] >= 20.0, (
            f"{name} message ratio collapsed to {row[6]:.1f}x")
        # the crossover: aggregated IB catches DV where per-message
        # overhead is the bottleneck...
        assert row[5] >= 1.0, (
            f"aggregated IB fell below DV on {name} ({row[5]:.3f})")
        # ...while the legacy per-window path stays far behind
        assert row[3] < 0.5 * row[2], (
            f"plain IB unexpectedly close to DV on {name} — the "
            "small-window regime this sweep probes has drifted")
    # the non-crossover: a hot receiver serialises either way
    assert steep_big[5] < 1.0, (
        f"zipf(1.8) crossed over ({steep_big[5]:.3f}) — aggregation "
        "should not cure destination serialisation")
    _record("agg_sweep", {
        "nodes": kw["nodes"],
        "watermarks": list(kw["watermarks"]),
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(par_s, 4),
        "uniform_ib_agg_over_dv": round(uniform_big[5], 3),
        "hotset_dv_mups": round(hot_big[2], 2),
        "hotset_ib_mups": round(hot_big[3], 2),
        "hotset_ib_agg_mups": round(hot_big[4], 2),
        "hotset_ib_agg_over_dv": round(hot_big[5], 3),
        "hotset_message_ratio": round(hot_big[6], 1),
        "zipf18_ib_agg_over_dv": round(steep_big[5], 3),
    })


def test_interference_matrix_isolation_guard(tmp_path):
    """Nightly guard for the co-tenant interference matrix
    (fig_interference, docs/tenancy.md): run the full 8-pair sweep on
    both fabrics through a pooled cached executor, assert the parallel
    run reproduces the serial rows bit-for-bit, and pin the finding —
    the Data Vortex deflection fabric isolates co-tenants (every DV
    slowdown inside a tight band around 1.0) while the oversubscribed
    fat tree shows real contention (the irregular-victim /
    regular-aggressor cells clear a 2% slowdown floor).  A regression
    here means either the tenancy views started perturbing the shared
    fabric (DV band breached) or the IB geometry stopped
    oversubscribing the straddled leaf (fat-tree floor lost)."""
    from repro.tenancy.experiments import DEFAULT_PAIRS, interference_table

    t0 = time.perf_counter()
    serial = interference_table(Executor(), pairs=DEFAULT_PAIRS)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    par = interference_table(
        Executor(workers=2, cache_dir=str(tmp_path / "intf-cache")),
        pairs=DEFAULT_PAIRS)
    par_s = time.perf_counter() - t0

    assert par.render() == serial.render()
    rows = {(r[0], r[1]): r for r in serial.rows}
    dv_slow = {k: r[4] for k, r in rows.items()}
    mpi_slow = {k: r[7] for k, r in rows.items()}
    for pair, s in dv_slow.items():
        assert 0.99 <= s <= 1.02, (
            f"DV stopped isolating co-tenants: {pair} slowdown {s:.4f} "
            f"outside the [0.99, 1.02] band")
    for pair in (("gups", "fft"), ("scan", "bfs")):
        assert mpi_slow[pair] >= 1.02, (
            f"fat-tree contention vanished: {pair} mpi slowdown "
            f"{mpi_slow[pair]:.4f} under the 1.02 floor")
    assert max(mpi_slow.values()) > max(dv_slow.values()), (
        "the fat tree no longer interferes more than the DV switch")
    _record("interference_matrix", {
        "pairs": len(DEFAULT_PAIRS),
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(par_s, 4),
        "dv_max_slowdown": round(max(dv_slow.values()), 5),
        "mpi_max_slowdown": round(max(mpi_slow.values()), 4),
        "mpi_gups_fft_slowdown": round(mpi_slow[("gups", "fft")], 4),
        "mpi_scan_bfs_slowdown": round(mpi_slow[("scan", "bfs")], 4),
    })

