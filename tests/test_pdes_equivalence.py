"""Sharded-vs-serial bit-identity — the PDES engine's whole contract.

``run_spmd`` with ``shards > 1`` (or under a ``pdes.session(n)``
override) must return results **bit-identical** to the single-process
run: identical floats, identical counters, identical per-rank values.
These tests sweep the kernels the scale-out study exercises across
shard counts (including counts that do not divide the node count),
check the in-process driver against the fork driver, and pin the
fallback policy — anything the sharded runner cannot reproduce
bit-identically must take the serial path, not approximate.
"""

import pytest

from repro.core.cluster import ClusterSpec
from repro.kernels.barrier_bench import run_barrier_bench
from repro.kernels.gups import run_gups
from repro.sim import pdes
from repro.sim.pdes.runner import (ShardingFallback, _precheck,
                                   run_spmd_sharded)


def _spec(n, **kw):
    kw.setdefault("flow_impl", "fast")
    return ClusterSpec(n_nodes=n, seed=2017, **kw)


def _gups(spec, fabric):
    out = run_gups(spec, fabric, table_words=1 << 10,
                   n_updates=1 << 6, window=64)
    # the tracer compares by identity; every numeric field must match
    out.pop("tracer", None)
    return out


# ------------------------------------------------------- bit-identity ---

@pytest.mark.parametrize("fabric", ["dv", "mpi"])
@pytest.mark.parametrize("shards", [2, 3, 4])
def test_gups_sharded_bit_identical(fabric, shards):
    serial = _gups(_spec(8), fabric)
    sharded = _gups(_spec(8, shards=shards), fabric)
    assert sharded == serial


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
def test_gups_non_dividing_node_count(fabric):
    # 12 nodes / 5 shards: unequal shards, some possibly empty
    serial = _gups(_spec(12), fabric)
    sharded = _gups(_spec(12, shards=5), fabric)
    assert sharded == serial


_IMPLS = ("dv", "dv_fast", "mpi")


@pytest.mark.parametrize(
    "impl,n_nodes,shards",
    [pytest.param(i, 16, 3, id=i) for i in _IMPLS]
    # small clusters, where crossed barrier wake-ups defeat the origin
    # tie-break unless the runner falls back
    + [pytest.param(i, n, 2, id=f"{i}-{n}n2s")
       for n in (4, 8) for i in _IMPLS])
def test_barrier_bench_sharded_bit_identical(impl, n_nodes, shards):
    serial = run_barrier_bench(_spec(n_nodes), impl, iters=8)
    sharded = run_barrier_bench(_spec(n_nodes, shards=shards), impl,
                                iters=8)
    assert sharded == serial


def test_vorticity_sharded_bit_identical():
    from repro.apps import run_vorticity
    serial = run_vorticity(_spec(4), "dv", n=256, steps=2)
    sharded = run_vorticity(_spec(4, shards=2), "dv", n=256, steps=2)
    assert sharded == serial


def test_session_override_matches_explicit_shards():
    explicit = _gups(_spec(8, shards=2), "dv")
    with pdes.session(2):
        scoped = _gups(_spec(8), "dv")
    assert scoped == explicit


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
def test_in_process_driver_matches_fork_driver(fabric):
    """The single-process debug driver and the fork fleet run the same
    shard code; both must produce identical RunResults."""
    from repro.core.cluster import run_spmd

    def program(ctx):
        # a small all-to-all: each rank messages every peer, barriers,
        # and reports its simulated finish time
        import numpy as np
        if fabric == "dv":
            api = ctx.dv
            addrs = np.arange(8, dtype=np.int64)
            vals = np.full(8, ctx.rank, dtype=np.int64)
            for peer in range(ctx.size):
                if peer != ctx.rank:
                    yield from api.send_words(peer, addrs, vals)
            yield from api.barrier()
        else:
            api = ctx.mpi
            for peer in range(ctx.size):
                if peer != ctx.rank:
                    yield from api.send(peer, ctx.rank)
            for peer in range(ctx.size):
                if peer != ctx.rank:
                    yield from api.recv(peer)
            yield from api.barrier()
        return ctx.engine.now

    # 16 nodes for IB: 8 would fit a single leaf switch (unsplittable)
    spec = _spec(8 if fabric == "dv" else 16)
    serial = run_spmd(spec, program, fabric)
    r_fork = run_spmd_sharded(spec, program, fabric, None, shards=2,
                              in_process=False)
    r_local = run_spmd_sharded(spec, program, fabric, None, shards=2,
                               in_process=True)
    for r in (r_fork, r_local):
        assert r.values == serial.values
        assert r.elapsed == serial.elapsed
    # the two drivers run identical shard code: exact agreement,
    # including the aggregate event count (which serial does not share —
    # ledger replay collapses the pricing events serial processes)
    assert (r_fork.engine._processed_count
            == r_local.engine._processed_count)


# ---------------------------------------------------------- fallback ---

def test_precheck_rejects_reference_impl():
    with pytest.raises(ShardingFallback):
        _precheck(ClusterSpec(n_nodes=8, flow_impl="reference"), 2)


def test_precheck_rejects_trace():
    with pytest.raises(ShardingFallback):
        _precheck(_spec(8, trace=True), 2)


def test_precheck_rejects_single_shard():
    with pytest.raises(ShardingFallback):
        _precheck(_spec(8), 1)


def test_precheck_rejects_active_fault_plan():
    from repro.faults import FaultPlan
    from repro.faults import injector
    with injector.session(FaultPlan()):
        with pytest.raises(ShardingFallback):
            _precheck(_spec(8), 2)


def test_session_override_on_reference_spec_falls_back_to_serial():
    """The golden shards axis runs reference-engine figures under
    session(2); they must take the fallback path and come back
    identical."""
    serial = _gups(ClusterSpec(n_nodes=8, seed=2017), "dv")
    with pdes.session(2):
        scoped = _gups(ClusterSpec(n_nodes=8, seed=2017), "dv")
    assert scoped == serial


def test_spec_validation_rejects_shards_on_reference():
    with pytest.raises(ValueError, match="fast"):
        ClusterSpec(n_nodes=8, shards=2)
    with pytest.raises(ValueError, match="shards"):
        ClusterSpec(n_nodes=8, flow_impl="fast", shards=0)
