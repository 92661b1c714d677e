"""Bit-identity of the pooled fast engines vs the scalar references.

The ``flow_impl="fast"`` engines (:mod:`repro.dv.fastflow`,
:mod:`repro.ib.fastfabric`) promise *bit-identical* simulated behaviour
to the reference models — same delivery times, same receiver call
sequence, same stats, same end-to-end results — across a grid of port
counts, traffic loads, and fault plans.  These tests drive both
implementations through identical seeded scenarios and compare
everything observable, to the last bit.
"""

import random

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
    r = run_gups(ClusterSpec(n_nodes=32, seed=1, flow_impl="fast"), "dv",
                 table_words=4096, n_updates=128, window=256, validate=True)
    assert r["valid"]
    assert len(engines) == 1
    assert engines[0].events_processed <= 5492


# ---------------------------------------------------- IB equivalence ---

def _drive_ib(fab_cls, n_nodes, seed, contention=True):
    engine = Engine()
    fab = fab_cls(engine, IBConfig(), n_nodes, contention=contention)
    log = []
    for p in range(n_nodes):
        fab.attach(p, lambda src, kind, payload, nbytes, p=p: log.append(
            (engine.now, p, int(src), kind, payload, int(nbytes))))
    rng = random.Random(seed)

    def prog():
        for _ in range(150):
            yield engine.timeout(rng.randrange(0, 4) * 1e-7)
            src = rng.randrange(n_nodes)
            dst = rng.randrange(n_nodes)
            nbytes = rng.choice([0, 8, 64, 4096])
            ev = fab.transfer(src, dst, nbytes,
                              kind=rng.choice(["data", "eager", "rts"]),
                              payload=rng.randrange(99))
            if rng.random() < 0.3:
                yield ev

    engine.run_process(prog())
    return (log, fab.stats.messages, fab.stats.bytes,
            fab.stats.cross_leaf_messages,
            float(fab.stats.total_queue_wait_s), float(engine.now))


@pytest.mark.parametrize("n_nodes", [2, 6, 16])
@pytest.mark.parametrize("contention", [True, False])
def test_ib_fast_equals_reference(n_nodes, contention):
    ref = _drive_ib(IBFabric, n_nodes, 7 * n_nodes, contention)
    fast = _drive_ib(FastIBFabric, n_nodes, 7 * n_nodes, contention)
    assert ref == fast


def test_ib_fast_under_retry_faults():
    plan = FaultPlan(seed=3, ib_drop_prob=0.3)
    with faults.session(plan):
        ref = _drive_ib(IBFabric, 8, 99)
    with faults.session(plan):
        fast = _drive_ib(FastIBFabric, 8, 99)
    assert ref == fast


# ------------------------------------------- end-to-end application ---

def _typed(r, keys):
    """``{key: (type name, value)}``: a fast engine must match the
    reference in type as well as value (a numpy scalar leaking into a
    result changes its cache form)."""
    return {k: (type(r[k]).__name__, r[k]) for k in keys}


def _gups(impl, fabric, plan=None, **kw):
    spec = ClusterSpec(n_nodes=kw.pop("n_nodes", 8), flow_impl=impl)
    with faults.session(plan):
        r = run_gups(spec, fabric, **kw)
    return _typed(r, ("elapsed_s", "mups_total", "mups_per_pe"))


def _app(impl, app):
    from repro.apps import run_heat, run_vorticity
    from repro.kernels import run_pingpong
    if app == "pingpong":
        r = run_pingpong(ClusterSpec(n_nodes=2, flow_impl=impl),
                         "dma_cached", 1 << 12, iters=4)
        return _typed(r, ("one_way_s", "bandwidth_gbs"))
    spec = ClusterSpec(n_nodes=4, flow_impl=impl)
    if app == "vorticity":
        r = run_vorticity(spec, "dv", n=256, steps=2)
    else:
        r = run_heat(spec, "dv", n=48, steps=10)
    return _typed(r, ("elapsed_s",))


@pytest.mark.parametrize("app", ["pingpong", "vorticity", "heat"])
def test_apps_fast_equals_reference_in_value_and_type(app):
    assert _app("fast", app) == _app("reference", app)


@pytest.mark.parametrize("fabric", ["dv", "mpi"])
def test_gups_fast_equals_reference(fabric):
    kw = dict(table_words=1 << 10, n_updates=1 << 9, window=128)
    assert _gups("reference", fabric, **kw) == _gups("fast", fabric, **kw)


@pytest.mark.parametrize("window", [32, 1024])
def test_gups_fast_equals_reference_windows(window):
    kw = dict(table_words=1 << 10, n_updates=1 << 9, window=window)
    assert _gups("reference", "dv", **kw) == _gups("fast", "dv", **kw)


def test_gups_fast_equals_reference_under_faults():
    # IB drop faults are survivable end-to-end (link-level retry); raw
    # dv data drops would stall GUPS termination in either impl, so
    # flow-level fault parity is covered by the raw-driver grid above.
    plan = FaultPlan(seed=5, ib_drop_prob=0.1)
    kw = dict(table_words=1 << 10, n_updates=1 << 8, window=64)
    assert (_gups("reference", "mpi", plan=plan, **kw)
            == _gups("fast", "mpi", plan=plan, **kw))


def test_gups_fast_validates_against_serial_reference():
    r = run_gups(ClusterSpec(n_nodes=4, flow_impl="fast"), "dv",
                 table_words=1 << 10, n_updates=1 << 8, window=64,
                 validate=True)
    assert r["valid"]


def test_flow_impl_validation():
    with pytest.raises(ValueError, match="flow_impl"):
        ClusterSpec(n_nodes=4, flow_impl="turbo")
