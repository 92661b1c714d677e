"""Tests for the core framework: node model, metrics, trace, report."""


import pytest

from repro.core import (ClusterSpec, NodeModel, Table, Tracer, bandwidth_gbs,
                        gflops_fft1d, gups, harmonic_mean, run_spmd, speedup,
                        teps)
from repro.core.cluster import run_both
from repro.core.metrics import (fft1d_flops, geometric_mean, mups,
                                percent_of_peak)


# ------------------------------------------------------------- NodeModel ---

def test_node_flops_time():
    node = NodeModel(flops_per_s=1e9)
    assert node.time_flops(2e9) == 2.0


def test_node_random_updates_time():
    node = NodeModel(random_updates_per_s=100e6)
    assert node.time_random_updates(100_000_000) == pytest.approx(1.0)


def test_node_combined_time_additive():
    node = NodeModel(flops_per_s=1e9, random_updates_per_s=1e6,
                     stream_bw=1e9, dispatch_s=1e-6)
    t = node.time(flops=1e9, random_updates=1_000_000,
                  stream_bytes=1e9, seconds=0.5, dispatches=2)
    assert t == pytest.approx(1 + 1 + 1 + 0.5 + 2e-6)


def test_node_negative_rejected():
    node = NodeModel()
    with pytest.raises(ValueError):
        node.time_flops(-1)
    with pytest.raises(ValueError):
        node.time_random_updates(-1)
    with pytest.raises(ValueError):
        node.time_stream(-1)


# --------------------------------------------------------------- metrics ---

def test_bandwidth_gbs():
    assert bandwidth_gbs(1e9, 1.0) == 1.0
    assert bandwidth_gbs(4.4e9, 1.0) == pytest.approx(4.4)


def test_percent_of_peak():
    assert percent_of_peak(4.4e9, 4.4e9) == 100.0
    assert percent_of_peak(3.4e9, 6.8e9) == 50.0


def test_gups_mups():
    assert gups(1_000_000_000, 1.0) == 1.0
    assert mups(1_000_000, 1.0) == 1.0


def test_fft_flop_count_hpcc_formula():
    assert fft1d_flops(1024) == 5 * 1024 * 10
    assert gflops_fft1d(1024, 1e-9 * 5 * 1024 * 10) == pytest.approx(1.0)


def test_teps():
    assert teps(1000, 2.0) == 500.0


def test_harmonic_mean():
    assert harmonic_mean([1, 1, 1]) == 1.0
    assert harmonic_mean([1, 2]) == pytest.approx(4 / 3)
    with pytest.raises(ValueError):
        harmonic_mean([])
    with pytest.raises(ValueError):
        harmonic_mean([1.0, 0.0])


def test_speedup():
    assert speedup(2.0, 1.0) == 2.0
    with pytest.raises(ValueError):
        speedup(0.0, 1.0)


def test_geometric_mean():
    assert geometric_mean([2, 8]) == pytest.approx(4.0)


def test_metrics_reject_nonpositive_time():
    for fn in (lambda: bandwidth_gbs(1, 0), lambda: gups(1, 0),
               lambda: teps(1, 0), lambda: gflops_fft1d(4, 0)):
        with pytest.raises(ValueError):
            fn()


# ----------------------------------------------------------------- trace ---

def test_tracer_spans_and_totals():
    tr = Tracer()
    tr.span(0, 0.0, 1.0, "compute")
    tr.span(0, 1.0, 3.0, "mpi")
    tr.span(1, 0.0, 0.5, "compute")
    totals = tr.time_by_kind()
    assert totals == {"compute": 1.5, "mpi": 2.0}
    assert tr.time_by_kind(rank=0) == {"compute": 1.0, "mpi": 2.0}


def test_tracer_rejects_negative_span():
    tr = Tracer()
    with pytest.raises(ValueError):
        tr.span(0, 2.0, 1.0, "compute")


def test_tracer_disabled_records_nothing():
    tr = Tracer(enabled=False)
    tr.span(0, 0.0, 1.0, "compute")
    tr.message(0, 1, 0.5)
    assert not tr.spans and not tr.messages


def test_destination_runs_detects_irregularity():
    tr = Tracer()
    # source 0 alternates destinations -> all runs length 1
    for i, d in enumerate([1, 2, 1, 3, 2, 1]):
        tr.message(0, d, float(i))
    assert tr.destination_runs() == [1] * 6


def test_destination_runs_detects_regularity():
    tr = Tracer()
    for i, d in enumerate([1, 1, 1, 2, 2]):
        tr.message(0, d, float(i))
    assert sorted(tr.destination_runs()) == [2, 3]


def test_timeline_rendering():
    tr = Tracer()
    tr.span(0, 0.0, 1.0, "compute")
    tr.span(1, 0.5, 1.0, "mpi")
    text = tr.render_timeline(width=20)
    assert "rank   0" in text and "rank   1" in text
    assert "#" in text  # compute glyph


def test_timeline_empty():
    assert "no spans" in Tracer().render_timeline()


# ----------------------------------------------------------------- table ---

def test_table_render_and_column():
    t = Table("Fig. X", ["nodes", "value"])
    t.add_row(2, 1.5)
    t.add_row(4, 3.25)
    text = t.render()
    assert "Fig. X" in text and "nodes" in text
    assert t.column("value") == [1.5, 3.25]


def test_table_row_arity_checked():
    t = Table("t", ["a", "b"])
    with pytest.raises(ValueError):
        t.add_row(1)


def test_table_csv():
    t = Table("t", ["a", "b"])
    t.add_row(1, 2.0)
    assert t.to_csv().splitlines() == ["a,b", "1,2.000"]


# ---------------------------------------------------------------- runner ---

def test_run_spmd_returns_per_rank_values():
    def prog(ctx):
        yield from ctx.compute(flops=1e6)
        return ctx.rank * 2

    res = run_spmd(ClusterSpec(n_nodes=4), prog, "dv")
    assert res.values == [0, 2, 4, 6]
    assert res.elapsed > 0


def test_run_spmd_rejects_bad_fabric():
    with pytest.raises(ValueError):
        run_spmd(ClusterSpec(n_nodes=2), lambda ctx: iter(()), "tcp")


def test_run_spmd_propagates_program_error():
    def prog(ctx):
        yield from ctx.compute(flops=1)
        raise RuntimeError("rank failure")

    with pytest.raises(RuntimeError, match="rank failure"):
        run_spmd(ClusterSpec(n_nodes=2), prog, "mpi")


def test_run_spmd_detects_deadlock():
    def prog(ctx):
        if ctx.rank == 0:
            yield ctx.engine.event()  # waits forever

    with pytest.raises(RuntimeError, match="deadlock"):
        run_spmd(ClusterSpec(n_nodes=2), prog, "dv")


def test_run_both_gives_both_fabrics():
    def prog(ctx):
        yield from ctx.barrier()
        return ctx.fabric

    out = run_both(ClusterSpec(n_nodes=2), prog)
    assert out["dv"].values == ["dv", "dv"]
    assert out["mpi"].values == ["mpi", "mpi"]


def test_context_marks():
    def prog(ctx):
        ctx.mark("t0")
        yield from ctx.compute(seconds=1.5)
        return ctx.since("t0")

    res = run_spmd(ClusterSpec(n_nodes=1), prog, "dv")
    assert res.values[0] == pytest.approx(1.5)


def test_context_rng_deterministic_and_per_rank():
    def prog(ctx):
        yield from ctx.sleep(0)
        return float(ctx.rng.random())

    a = run_spmd(ClusterSpec(n_nodes=2, seed=7), prog, "dv").values
    b = run_spmd(ClusterSpec(n_nodes=2, seed=7), prog, "dv").values
    c = run_spmd(ClusterSpec(n_nodes=2, seed=8), prog, "dv").values
    assert a == b
    assert a[0] != a[1]
    assert a != c


def test_paper_testbed_is_32_nodes():
    assert ClusterSpec.paper_testbed().n_nodes == 32


def test_cluster_rejects_zero_nodes():
    with pytest.raises(ValueError):
        ClusterSpec(n_nodes=0)


def test_cluster_rejects_removed_shards_field():
    with pytest.raises(TypeError, match="shards"):
        ClusterSpec(shards=2)
