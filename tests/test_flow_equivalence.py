"""Bit-identity of the pooled fast engines vs the scalar references.

The pooled engines every cluster runs (:mod:`repro.dv.fastflow`,
:mod:`repro.ib.fastfabric`) promise *bit-identical* simulated behaviour
to the reference models — same delivery times, same receiver call
sequence, same stats, same end-to-end results — across a grid of port
counts, traffic loads, and fault plans.  These tests drive both
implementations through identical seeded scenarios and compare
everything observable, to the last bit.  Cluster-level comparisons run
the reference side inside the ``reference_engines`` fixture
(tests/conftest.py).
"""

import gc
import random
import weakref

import numpy as np
import pytest

from repro import faults
from repro.core.cluster import ClusterSpec
from repro.dv.api import DataVortexAPI
from repro.dv.config import DVConfig
from repro.dv.fastflow import FastFlowNetwork, hop_table
from repro.dv.flow import FlowNetwork
from repro.dv.topology import DataVortexTopology
from repro.dv.vic import VIC, FifoPush, MemWrite
from repro.faults.plan import FaultPlan
from repro.ib.config import IBConfig
from repro.ib.fabric import IBFabric
from repro.ib.fastfabric import FastIBFabric
from repro.kernels.gups import run_gups
from repro.sim.engine import Engine
from repro.tenancy.spec import TenantPartition
from repro.tenancy.views import TenantNetworkView, TenantVICView


# --------------------------------------------------------- hop table ---

@pytest.mark.parametrize("height,angles", [(2, 1), (4, 3), (8, 4), (16, 2)])
def test_hop_table_matches_min_hops(height, angles):
    topo = DataVortexTopology(height=height, angles=angles)
    n = topo.ports
    table = hop_table(topo, n)
    for s in range(n):
        for d in range(n):
            assert table[s, d] == topo.min_hops(s, d), (s, d)
    # built once per (levels, angles, n_ports) and shared read-only
    again = hop_table(DataVortexTopology(height=height, angles=angles), n)
    assert again is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 99


# ------------------------------------------------ raw network driver ---

def _effect_digest(eff):
    """Stable, comparable summary of a delivered effect."""
    if eff is None:
        return None
    if isinstance(eff, FifoPush):
        return ("fifo", eff.values.tolist(), eff.counter)
    if isinstance(eff, MemWrite):
        return ("mem", np.asarray(eff.addrs).tolist(),
                np.asarray(eff.values).tolist(), eff.counter)
    return ("other", repr(eff))


def _drive_flow(net_cls, n_ports, seed, n_rounds=120):
    """Random mixed traffic over one flow network; returns everything
    observable: the delivery log, final stats, and the clock."""
    engine = Engine()
    net = net_cls(engine, DVConfig(), n_ports)
    log = []
    for p in range(n_ports):
        net.attach(p, lambda src, eff, n, p=p: log.append(
            (engine.now, p, int(src), int(n), _effect_digest(eff))))
    rng = random.Random(seed)
    hop = net.config.hop_time_s

    def prog():
        for _ in range(n_rounds):
            # integer multiples of the hop time force same-instant ties
            yield engine.timeout(rng.randrange(0, 6) * hop)
            op = rng.randrange(4)
            src = rng.randrange(n_ports)
            if op == 0:
                dest = rng.randrange(n_ports)
                n = rng.randrange(1, 5)
                vals = np.arange(n, dtype=np.uint64)
                rate = rng.choice([None, 0.5 / hop])
                net.transmit(src, dest, n, payload=FifoPush(vals),
                             inject_rate=rate)
            elif op == 1:
                dest = rng.randrange(n_ports)
                n = rng.randrange(1, 4)
                addrs = np.arange(n, dtype=np.int64)
                vals = np.full(n, rng.randrange(99), np.uint64)
                net.transmit(src, dest, n,
                             payload=MemWrite(addrs=addrs, values=vals))
            elif op == 2:
                m = rng.randrange(1, min(n_ports, 4) + 1)
                dests = rng.sample(range(n_ports), m)
                counts = [rng.randrange(1, 4) for _ in range(m)]
                payloads = [FifoPush(np.arange(c, dtype=np.uint64))
                            for c in counts]
                net.transmit_batch(src, dests, counts, payloads,
                                   collect=rng.random() < 0.5)
            else:
                dest = rng.randrange(n_ports)
                ev = net.transmit(src, dest, 1)
                yield ev

    engine.run_process(prog())
    return (log, net.stats.packets_sent, net.stats.transfers,
            float(net.stats.total_injection_wait_s),
            float(net.stats.total_ejection_wait_s), float(engine.now))


PLANS = {
    "none": None,
    "all-zero": FaultPlan(seed=7),
    "lossy": FaultPlan(seed=11, drop_prob=0.15, corrupt_prob=0.1),
    "outages": FaultPlan(seed=13, drop_prob=0.05,
                         link_outages=((0, 0.0, 2e-7), (1, 1e-7, 4e-7)),
                         node_outages=((2, 0.0, 3e-7),)),
}


@pytest.mark.parametrize("n_ports", [2, 5, 8, 16])
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_flow_fast_equals_reference_random_traffic(n_ports, plan_name):
    """ports x fault-plan grid of random mixed traffic, bit-compared."""
    plan = PLANS[plan_name]
    seed = 1000 * n_ports + len(plan_name)
    with faults.session(plan):
        ref = _drive_flow(FlowNetwork, n_ports, seed)
    with faults.session(plan):
        fast = _drive_flow(FastFlowNetwork, n_ports, seed)
    assert ref == fast


@pytest.mark.parametrize("load", ["fine", "coarse"])
def test_flow_fast_equals_reference_heavy_load(load):
    """Saturating many-to-one + all-to-all traffic (ejection queueing)."""
    n_ports = 8
    rounds = 400 if load == "fine" else 150
    seed = 42 if load == "fine" else 43
    ref = _drive_flow(FlowNetwork, n_ports, seed, n_rounds=rounds)
    fast = _drive_flow(FastFlowNetwork, n_ports, seed, n_rounds=rounds)
    assert ref == fast


# ------------------------------------------------- scatter joins ---

def _expected_join(dests, addrs, vals):
    """What ``send_batch``'s event must succeed with: one MemWrite per
    distinct destination, in destination order, entries in send order."""
    return [("mem", [a for dd, a in zip(dests, addrs) if dd == d],
             [v for dd, v in zip(dests, vals) if dd == d], None)
            for d in sorted(set(dests))]


def _drive_joins(net_cls, n_ports, seed, tenant=False, n_ops=30):
    """Ranks that wait on ``send_batch``'s join while other ranks'
    same-instant traffic (more batches, single sends, raw fan-outs)
    runs; returns the ordered log of join values and finish times, the
    final DV memories, the flow stats and the clock."""
    engine = Engine()
    cfg = DVConfig()
    net = net_cls(engine, cfg, n_ports)
    vics = [VIC(engine, cfg, i, net) for i in range(n_ports)]
    if tenant:
        part = TenantPartition(
            "t", base=1, n_ranks=n_ports - 2, ctr_lo=0,
            ctr_hi=cfg.group_counters, mem_lo=0, mem_hi=64,
            ib_credits=None)
        view = TenantNetworkView(net, part)
        apis = [DataVortexAPI(engine, cfg,
                              TenantVICView(vics[part.base + i], part, i),
                              view)
                for i in range(part.n_ranks)]
    else:
        apis = [DataVortexAPI(engine, cfg, v, net) for v in vics]
    P = len(apis)
    hop = net.config.hop_time_s
    log = []

    def rank(r):
        rng = random.Random(seed * 1000 + r)
        api = apis[r]
        for _ in range(n_ops):
            # hop multiples force same-instant ties across ranks
            yield engine.timeout(rng.randrange(0, 4) * hop)
            op = rng.randrange(5)
            if op <= 2:
                m = rng.randrange(1, 7)
                dests = [rng.randrange(P) for _ in range(m)]
                addrs = [rng.randrange(64) for _ in range(m)]
                vals = [rng.randrange(1 << 20) for _ in range(m)]
                ev = yield from api.send_batch(dests, addrs, vals)
                if op <= 1:
                    value = yield ev
                    got = [_effect_digest(p) for p in value]
                    assert got == _expected_join(dests, addrs, vals)
                    log.append((r, "join", engine.now, got))
            elif op == 3:
                ev = yield from api.send_words(rng.randrange(P),
                                               [rng.randrange(64)],
                                               [rng.randrange(99)])
                log.append((r, "sent", engine.now))
            else:
                m = rng.randrange(1, P + 1)
                dests = rng.sample(range(P), m)
                api.network.transmit_batch(
                    r, dests, [1] * m,
                    [FifoPush(np.array([r], np.uint64))] * m,
                    collect=False)
        log.append((r, "end", engine.now))

    for r in range(P):
        engine.process(rank(r), name=f"rank{r}")
    engine.run()
    mem = [v.memory.gather(np.arange(64)).tolist() for v in vics]
    return (log, mem, net.stats.packets_sent, net.stats.transfers,
            float(net.stats.total_injection_wait_s),
            float(net.stats.total_ejection_wait_s), float(engine.now))


@pytest.mark.parametrize("tenant", [False, True], ids=["whole", "tenant"])
@pytest.mark.parametrize("plan_name", ["none", "lossy", "outages"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scatter_join_fast_equals_reference(seed, plan_name, tenant):
    """``send_batch``'s join fires at the same instant and in the same
    order on both engines — waiters resume where the reference ``AllOf``
    resumes them — and carries the payloads in destination order."""
    plan = PLANS[plan_name]
    with faults.session(plan):
        ref = _drive_joins(FlowNetwork, 6, seed, tenant)
    with faults.session(plan):
        fast = _drive_joins(FastFlowNetwork, 6, seed, tenant)
    assert ref == fast
    assert sum(1 for e in ref[0] if e[1] == "join") > 10


def _drive_join_ties(net_cls, n_ports, seed, n_ops=40):
    """Raw-network joins under exact same-instant deliveries: with no
    load penalty every time is a sum of hop multiples, so transfers
    from different sources land at the same instant and the order in
    which waiters resume is observable in the log."""
    engine = Engine()
    net = net_cls(engine, DVConfig(deflection_hops_per_load=0.0), n_ports)
    for p in range(n_ports):
        net.attach(p, lambda src, eff, n: None)
    hop = net.config.hop_time_s
    log = []

    def rank(r):
        rng = random.Random(seed * 1000 + r)
        for i in range(n_ops):
            yield engine.timeout(rng.randrange(0, 3) * hop)
            op = rng.randrange(3)
            if op == 0:
                dests = sorted(rng.sample(range(n_ports),
                                          rng.randrange(1, 4)))
                value = yield net.scatter(r, dests, [1] * len(dests),
                                          [(r, i, d) for d in dests])
                log.append((r, "join", engine.now, value))
            elif op == 1:
                value = yield net.transmit(r, rng.randrange(n_ports), 1,
                                           payload=(r, i))
                log.append((r, "done", engine.now, value))
            else:
                dests = rng.sample(range(n_ports), rng.randrange(1, 3))
                net.transmit_batch(r, dests, [1] * len(dests),
                                   [None] * len(dests), collect=False)

    for r in range(n_ports):
        engine.process(rank(r), name=f"rank{r}")
    engine.run()
    return log, float(engine.now)


@pytest.mark.parametrize("seed", range(6))
def test_scatter_join_resumes_in_reference_order_under_ties(seed):
    ref = _drive_join_ties(FlowNetwork, 8, seed)
    fast = _drive_join_ties(FastFlowNetwork, 8, seed)
    assert ref == fast
    # the scenario really produces same-instant resumptions
    times = [e[2] for e in ref[0]]
    assert len(times) - len(set(times)) > 5


def test_scatter_empty_batch_succeeds_at_once():
    for net_cls in (FlowNetwork, FastFlowNetwork):
        engine = Engine()
        net = net_cls(engine, DVConfig(), 2)
        ev = net.scatter(0, [], [], [])
        engine.run()
        assert ev.processed and ev.value == [] and engine.now == 0.0


def test_gups_dv_32_nodes_event_budget(monkeypatch):
    """The countdown join, the one-word memory write and the drain loop
    keep a 32-node DV GUPS at <= 5,492 engine events (7,444 with a
    completion event per transfer)."""
    import repro.core.cluster as cluster
    engines = []

    class Counted(Engine):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            engines.append(self)

    monkeypatch.setattr(cluster, "Engine", Counted)
    r = run_gups(ClusterSpec(n_nodes=32, seed=1), "dv",
                 table_words=4096, n_updates=128, window=256, validate=True)
    assert r["valid"]
    assert len(engines) == 1
    assert engines[0].events_processed <= 5492


# ---------------------------------------------------- IB equivalence ---

def _drive_ib(fab_cls, n_nodes, seed, contention=True, leaf_size=8,
              numpy_ints=False):
    """Seeded mix of ``transfer`` (some awaited) and ``inject`` calls;
    returns everything observable, with the types of the values the
    receivers and stats see (``numpy_ints`` passes ranks and sizes as
    ``np.int64``, as kernels that index numpy arrays do)."""
    engine = Engine()
    fab = fab_cls(engine, IBConfig(leaf_size=leaf_size), n_nodes,
                  contention=contention)
    log = []
    for p in range(n_nodes):
        fab.attach(p, lambda src, kind, payload, nbytes, p=p: log.append(
            (engine.now, p, src, type(src).__name__, kind, payload,
             nbytes, type(nbytes).__name__)))
    rng = random.Random(seed)
    num = np.int64 if numpy_ints else int

    def prog():
        for _ in range(150):
            yield engine.timeout(rng.randrange(0, 4) * 1e-7)
            src = num(rng.randrange(n_nodes))
            dst = num(rng.randrange(n_nodes))
            nbytes = num(rng.choice([0, 8, 64, 4096]))
            kind = rng.choice(["data", "eager", "rts"])
            payload = rng.randrange(99)
            if rng.random() < 0.4:
                assert fab.inject(src, dst, nbytes, kind=kind,
                                  payload=payload) is None
                continue
            ev = fab.transfer(src, dst, nbytes, kind=kind, payload=payload)
            if rng.random() < 0.3:
                got = yield ev
                log.append(("done", engine.now, got, ev.src, ev.dest,
                            ev.nbytes, ev.op))

    engine.run_process(prog())
    st = fab.stats
    return (log, st.messages, st.bytes, type(st.bytes).__name__,
            st.cross_leaf_messages, st.total_queue_wait_s,
            type(st.total_queue_wait_s).__name__, engine.now)


@pytest.mark.parametrize("n_nodes", [2, 6, 16])
@pytest.mark.parametrize("contention", [True, False])
def test_ib_fast_equals_reference(n_nodes, contention):
    ref = _drive_ib(IBFabric, n_nodes, 7 * n_nodes, contention)
    fast = _drive_ib(FastIBFabric, n_nodes, 7 * n_nodes, contention)
    assert ref == fast


@pytest.mark.parametrize("leaf_size", [1, 3, 4])
@pytest.mark.parametrize("contention", [True, False])
def test_ib_fast_equals_reference_across_leaf_sizes(leaf_size,
                                                    contention):
    # 13 nodes: a partly filled last leaf at sizes 3 and 4, and every
    # two distinct nodes on different leaves at size 1
    ref = _drive_ib(IBFabric, 13, leaf_size, contention, leaf_size)
    fast = _drive_ib(FastIBFabric, 13, leaf_size, contention, leaf_size)
    assert ref == fast


@pytest.mark.parametrize("contention", [True, False])
def test_ib_fast_equals_reference_with_numpy_ints(contention):
    ref = _drive_ib(IBFabric, 12, 5, contention, 4, numpy_ints=True)
    fast = _drive_ib(FastIBFabric, 12, 5, contention, 4, numpy_ints=True)
    assert ref == fast
    assert {entry[3] for entry in fast[0] if entry[0] != "done"} == \
        {"int64"}


def test_ib_fast_under_retry_faults():
    plan = FaultPlan(seed=3, ib_drop_prob=0.3)
    with faults.session(plan):
        ref = _drive_ib(IBFabric, 8, 99)
    with faults.session(plan):
        fast = _drive_ib(FastIBFabric, 8, 99)
    assert ref == fast


@pytest.mark.parametrize("leaf_size", [2, 5])
@pytest.mark.parametrize("contention", [True, False])
def test_ib_fast_under_retry_faults_across_geometries(leaf_size,
                                                      contention):
    plan = FaultPlan(seed=11, ib_drop_prob=0.3)
    with faults.session(plan):
        ref = _drive_ib(IBFabric, 11, 3, contention, leaf_size)
    with faults.session(plan):
        fast = _drive_ib(FastIBFabric, 11, 3, contention, leaf_size)
    assert ref == fast


def test_ib_routes_belong_to_their_fabric():
    """Routes are cached per fabric and go with it, so a process that
    builds fabrics of many sizes one after another keeps none of them."""
    def fabric(n_nodes=16, contention=True, **cfg):
        return FastIBFabric(Engine(), IBConfig(**cfg), n_nodes,
                            contention=contention)

    first, second = fabric(), fabric()
    first.transfer(1, 12, 64)
    assert first._paths is not second._paths
    assert second._paths[1 * 16 + 12] is None
    gone = weakref.ref(first)
    del first
    gc.collect()
    assert gone() is None
    # one free-time slot per channel: tx and rx per node, plus an up
    # and a down channel per uplink of each leaf under contention
    assert len(fabric()._free_at) == 2 * 16 + 2 * 2 * 12
    assert len(fabric(contention=False)._free_at) == 2 * 16
    assert len(fabric(n_nodes=17, leaf_size=4,
                      uplinks_per_leaf=6)._free_at) == 2 * 17 + 2 * 5 * 6
    # filled lazily, with the same blake2b uplinks the reference uses:
    # 16 nodes, 2 leaves of 12 uplinks -> uplinks from 32, downlinks
    # from 32 + 2 * 12
    fab = FastIBFabric(Engine(), IBConfig(), 16)
    fab.transfer(1, 12, 64)
    tx, up, down, rx = fab._paths[1 * 16 + 12]
    assert IBFabric(Engine(), IBConfig(), 16)._path(1, 12) == [
        ("tx", 1), ("up", 0, up - 32), ("down", 1, down - 56 - 12),
        ("rx", 12)]
    assert (tx, rx) == (1, 16 + 12)


# ------------------------------------------- end-to-end application ---

def _typed(r, keys):
    """``{key: (type name, value)}``: a fast engine must match the
    reference in type as well as value (a numpy scalar leaking into a
    result changes its cache form)."""
    return {k: (type(r[k]).__name__, r[k]) for k in keys}


def _gups(fabric, plan=None, **kw):
    spec = ClusterSpec(n_nodes=kw.pop("n_nodes", 8))
    with faults.session(plan):
        r = run_gups(spec, fabric, **kw)
    return _typed(r, ("elapsed_s", "mups_total", "mups_per_pe"))


def _app(app):
    from repro.apps import run_heat, run_vorticity
    from repro.kernels import run_pingpong
    if app == "pingpong":
        r = run_pingpong(ClusterSpec(n_nodes=2),
                         "dma_cached", 1 << 12, iters=4)
        return _typed(r, ("one_way_s", "bandwidth_gbs"))
    spec = ClusterSpec(n_nodes=4)
    if app == "vorticity":
        r = run_vorticity(spec, "dv", n=256, steps=2)
    else:
        r = run_heat(spec, "dv", n=48, steps=10)
    return _typed(r, ("elapsed_s",))


@pytest.mark.parametrize("app", ["pingpong", "vorticity", "heat"])
def test_apps_fast_equals_reference_in_value_and_type(app,
                                                      reference_engines):
    fast = _app(app)
    with reference_engines():
        assert fast == _app(app)


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
def test_gups_fast_equals_reference(fabric, reference_engines):
    kw = dict(table_words=1 << 10, n_updates=1 << 9, window=128)
    with reference_engines():
        ref = _gups(fabric, **kw)
    assert ref == _gups(fabric, **kw)


@pytest.mark.parametrize("window", [32, 1024])
def test_gups_fast_equals_reference_windows(window, reference_engines):
    kw = dict(table_words=1 << 10, n_updates=1 << 9, window=window)
    with reference_engines():
        ref = _gups("dv", **kw)
    assert ref == _gups("dv", **kw)


def test_gups_fast_equals_reference_under_faults(reference_engines):
    # IB drop faults are survivable end-to-end (link-level retry); raw
    # dv data drops would stall GUPS termination in either impl, so
    # flow-level fault parity is covered by the raw-driver grid above.
    plan = FaultPlan(seed=5, ib_drop_prob=0.1)
    kw = dict(table_words=1 << 10, n_updates=1 << 8, window=64)
    with reference_engines():
        ref = _gups("mpi", plan=plan, **kw)
    assert ref == _gups("mpi", plan=plan, **kw)


def test_reference_engines_fixture_builds_the_oracle(reference_engines):
    import repro.core.cluster as cluster
    spec = ClusterSpec(n_nodes=2)

    def built():
        return [type(cluster.build_network(Engine(), spec, f))
                for f in ("dv", "mpi")]

    assert built() == [FastFlowNetwork, FastIBFabric]
    with reference_engines():
        assert built() == [FlowNetwork, IBFabric]
    assert built() == [FastFlowNetwork, FastIBFabric]


def test_gups_fast_validates_against_serial_reference():
    r = run_gups(ClusterSpec(n_nodes=4), "dv",
                 table_words=1 << 10, n_updates=1 << 8, window=64,
                 validate=True)
    assert r["valid"]


def test_flow_impl_validation():
    # the field survives single-valued; the reference engines are a
    # test oracle (the reference_engines fixture), not an option
    assert ClusterSpec(n_nodes=4).flow_impl == "fast"
    for impl in ("reference", "turbo"):
        with pytest.raises(ValueError, match="test oracle"):
            ClusterSpec(n_nodes=4, flow_impl=impl)


def test_build_cluster_rejects_flow_impl():
    import repro.api as api
    for impl in ("fast", "reference"):
        with pytest.raises(TypeError, match="flow_impl"):
            api.build_cluster(n_nodes=4, flow_impl=impl)


def test_fig_scaleout_rejects_flow_impl_param():
    import repro.api as api
    spec = api.ExperimentSpec(exp_id="fig_scaleout",
                              params={"nodes": (64,),
                                      "workloads": ("gups",),
                                      "flow_impl": "fast"})
    with pytest.raises(TypeError, match="flow_impl"):
        api.run(spec=spec)
