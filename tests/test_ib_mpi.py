"""Tests for the MPI-over-InfiniBand model: p2p semantics, protocol
switch, and all collectives (functional correctness on every rank count
from 1 to 9 so non-power-of-two paths are covered)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ib import ANY_SOURCE, ANY_TAG, IBConfig, MPIRuntime
from repro.ib.fastfabric import FastIBFabric
from repro.sim import Engine
from repro.sim.events import Event


def run_ranks(n, fn, config=None, until=None):
    """Spawn fn(ep) per rank, run, return list of process values."""
    eng = Engine()
    rt = MPIRuntime(eng, config or IBConfig(), n)
    procs = [eng.process(fn(rt.endpoint(r)), name=f"rank{r}")
             for r in range(n)]
    eng.run(until=until)
    for p in procs:
        if not p.triggered:
            raise AssertionError("deadlock: a rank did not finish")
        if not p.ok:
            raise p.value
    return [p.value for p in procs], eng


# ----------------------------------------------------------------- p2p ---

def test_send_recv_roundtrip():
    def fn(ep):
        if ep.rank == 0:
            yield from ep.send(1, np.arange(10), tag=7)
        else:
            data, src, tag = yield from ep.recv(0, tag=7)
            assert src == 0 and tag == 7
            assert np.array_equal(data, np.arange(10))
            return "got"

    vals, _ = run_ranks(2, fn)
    assert vals[1] == "got"


def test_recv_any_source():
    def fn(ep):
        if ep.rank == 0:
            seen = set()
            for _ in range(2):
                _, src, _ = yield from ep.recv(ANY_SOURCE)
                seen.add(src)
            return seen
        yield from ep.send(0, ep.rank)

    vals, _ = run_ranks(3, fn)
    assert vals[0] == {1, 2}


def test_tag_matching_out_of_order():
    def fn(ep):
        if ep.rank == 0:
            yield from ep.send(1, "first", tag=1)
            yield from ep.send(1, "second", tag=2)
        else:
            # receive in reverse tag order
            d2, _, _ = yield from ep.recv(0, tag=2)
            d1, _, _ = yield from ep.recv(0, tag=1)
            return (d1, d2)

    vals, _ = run_ranks(2, fn)
    assert vals[1] == ("first", "second")


def test_eager_vs_rendezvous_timing():
    """A rendezvous message must cost more than an eager one of nearly
    the same size (handshake penalty at the threshold)."""
    cfg = IBConfig()

    def timed(nbytes):
        def fn(ep):
            if ep.rank == 0:
                data = np.zeros(nbytes, np.uint8)
                yield from ep.send(1, data, nbytes=nbytes)
            else:
                t0 = ep.engine.now
                yield from ep.recv(0)
                return ep.engine.now - t0
        vals, _ = run_ranks(2, fn, config=cfg)
        return vals[1]

    just_under = timed(cfg.eager_threshold_bytes)
    just_over = timed(cfg.eager_threshold_bytes + 8)
    assert just_over > just_under + 0.5 * cfg.rendezvous_handshake_s


def test_rendezvous_moves_data_intact():
    def fn(ep):
        big = np.arange(100_000, dtype=np.float64)
        if ep.rank == 0:
            yield from ep.send(1, big)
        else:
            data, _, _ = yield from ep.recv(0)
            assert np.array_equal(data, big)
            return True

    vals, _ = run_ranks(2, fn)
    assert vals[1]


def test_self_send():
    def fn(ep):
        yield from ep.send(ep.rank, "loop")
        data, src, _ = yield from ep.recv(ep.rank)
        return (data, src)

    vals, _ = run_ranks(1, fn)
    assert vals[0] == ("loop", 0)


def test_isend_irecv_overlap():
    def fn(ep):
        other = 1 - ep.rank
        s = ep.isend(other, ep.rank * 100)
        r = ep.irecv(other)
        data, _, _ = yield r
        yield s
        return data

    vals, _ = run_ranks(2, fn)
    assert vals == [100, 0]


def test_sendrecv_exchange_all_pairs():
    def fn(ep):
        other = 1 - ep.rank
        data, _, _ = yield from ep.sendrecv(other, f"from{ep.rank}", other)
        return data

    vals, _ = run_ranks(2, fn)
    assert vals == ["from1", "from0"]


def test_iprobe():
    def fn(ep):
        if ep.rank == 0:
            yield from ep.send(1, 42, tag=9)
        else:
            assert not ep.iprobe(0, 5)  # wrong tag, nothing yet
            yield ep.engine.timeout(1.0)
            assert ep.iprobe(0, 9)
            assert not ep.iprobe(0, 5)
            data, _, _ = yield from ep.recv(0, tag=9)
            return data

    vals, _ = run_ranks(2, fn)
    assert vals[1] == 42


# ------------------------------------------------------------ collectives ---

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9])
def test_barrier_completes_all_sizes(n):
    def fn(ep):
        yield from ep.barrier()
        return ep.engine.now

    vals, _ = run_ranks(n, fn)
    assert len(vals) == n


def test_barrier_synchronises():
    """No rank may leave the barrier before the slowest rank enters it."""
    enter_time = 5.0

    def fn(ep):
        if ep.rank == 0:
            yield ep.engine.timeout(enter_time)
        yield from ep.barrier()
        return ep.engine.now

    vals, _ = run_ranks(4, fn)
    assert all(v >= enter_time for v in vals)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast_all_sizes_and_roots(n, root):
    root = 0 if root == 0 else n - 1

    def fn(ep):
        data = {"v": 123} if ep.rank == root else None
        out = yield from ep.bcast(data, root=root)
        return out["v"]

    vals, _ = run_ranks(n, fn)
    assert vals == [123] * n


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_reduce_sum(n):
    def fn(ep):
        out = yield from ep.reduce(ep.rank + 1, lambda a, b: a + b, root=0)
        return out

    vals, _ = run_ranks(n, fn)
    assert vals[0] == n * (n + 1) // 2
    assert all(v is None for v in vals[1:])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_allreduce_arrays(n):
    def fn(ep):
        data = np.full(4, float(ep.rank))
        out = yield from ep.allreduce(data, np.add)
        return out

    vals, _ = run_ranks(n, fn)
    expect = np.full(4, sum(range(n)), float)
    for v in vals:
        assert np.array_equal(v, expect)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_gather(n):
    def fn(ep):
        out = yield from ep.gather(ep.rank * 10, root=0)
        return out

    vals, _ = run_ranks(n, fn)
    assert vals[0] == [r * 10 for r in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_allgather(n):
    def fn(ep):
        out = yield from ep.allgather(ep.rank)
        return out

    vals, _ = run_ranks(n, fn)
    for v in vals:
        assert v == list(range(n))


@pytest.mark.parametrize("n", [2, 4, 5])
def test_scatter(n):
    def fn(ep):
        chunks = [f"chunk{r}" for r in range(n)] if ep.rank == 0 else None
        out = yield from ep.scatter(chunks, root=0)
        return out

    vals, _ = run_ranks(n, fn)
    assert vals == [f"chunk{r}" for r in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_alltoall(n):
    def fn(ep):
        chunks = [(ep.rank, dst) for dst in range(n)]
        out = yield from ep.alltoall(chunks)
        return out

    vals, _ = run_ranks(n, fn)
    for rank, v in enumerate(vals):
        assert v == [(src, rank) for src in range(n)]


# ---------------------------------------------------------------- fabric ---

def test_barrier_latency_grows_with_ranks():
    """Fig. 4's MPI line: barrier cost increases with node count."""
    def timing(n):
        def fn(ep):
            yield from ep.barrier()
            t0 = ep.engine.now
            yield from ep.barrier()
            return ep.engine.now - t0
        vals, _ = run_ranks(n, fn)
        return max(vals)

    t2, t8, t32 = timing(2), timing(8), timing(32)
    assert t2 < t8 < t32
    assert t32 > 2.5 * t2


def test_cross_leaf_messages_counted():
    cfg = IBConfig(leaf_size=2)

    def fn(ep):
        if ep.rank == 0:
            yield from ep.send(1, 1)   # same leaf
            yield from ep.send(3, 1)   # cross leaf
        elif ep.rank in (1, 3):
            yield from ep.recv(0)

    _, eng_holder = run_ranks(4, fn, config=cfg)


def test_contention_slows_colliding_flows():
    """With static routing, concurrent cross-leaf flows can share an
    uplink; the ideal-crossbar variant must be at least as fast."""
    def workload(contention):
        eng = Engine()
        cfg = IBConfig(leaf_size=4, uplinks_per_leaf=1)
        rt = MPIRuntime(eng, cfg, 8, fabric=FastIBFabric(
            eng, cfg, 8, contention=contention))

        def fn(ep):
            if ep.rank < 4:
                data = np.zeros(1 << 18, np.uint8)
                yield from ep.send(ep.rank + 4, data)
            else:
                yield from ep.recv(ep.rank - 4)

        procs = [eng.process(fn(rt.endpoint(r))) for r in range(8)]
        eng.run()
        assert all(p.ok for p in procs)
        return eng.now

    assert workload(contention=True) > workload(contention=False)


def test_runtime_takes_contention_only_through_its_fabric():
    """The runtime has no ``contention=`` of its own to drop silently
    beside a pre-built fabric: contention is the fabric's setting."""
    eng = Engine()
    fab = FastIBFabric(eng, IBConfig(), 4, contention=False)
    with pytest.raises(TypeError):
        MPIRuntime(eng, IBConfig(), 4, contention=False, fabric=fab)
    assert MPIRuntime(eng, IBConfig(), 4, fabric=fab).fabric is fab
    built = MPIRuntime(Engine(), IBConfig(), 4).fabric
    assert type(built) is FastIBFabric and built.contention is True


# ------------------------------------------------- matching-order fixes ---

def test_reordered_arrivals_respect_send_order():
    """MPI non-overtaking: if the fabric delivers a later send first
    (its envelope carries a higher sequence number), the endpoint must
    hold it until every earlier send from that source has been
    delivered.  The pre-fix endpoint matched purely on arrival order
    and handed over "B" here."""
    eng = Engine()
    rt = MPIRuntime(eng, IBConfig(), 2)
    ep = rt.endpoint(1)
    # rank 0's sends arrive swapped: seq 1 ("B") before seq 0 ("A")
    ep._on_fabric(0, "eager", (0, -1, "B", 1), 8)
    ep._on_fabric(0, "eager", (0, -1, "A", 0), 8)

    def fn(ep):
        first, _, _ = yield from ep.recv()
        second, _, _ = yield from ep.recv()
        return first, second

    p = eng.process(fn(ep))
    eng.run()
    assert p.ok and p.value == ("A", "B")


def test_wildcard_never_matches_later_eligible_first():
    """Property: drain with recv(ANY_SOURCE, ANY_TAG) under randomly
    interleaved multi-sender traffic — for every (source, tag) stream
    the payload sequence must come back in send order, whatever the
    global interleaving."""
    rng = np.random.default_rng(90)
    big = IBConfig().eager_threshold_bytes // 8 + 16
    for trial in range(8):
        n_senders = int(rng.integers(2, 5))
        # (tag, seq-id, rendezvous?) — mixing eager and rendezvous
        # from the same sender is what lets a later message physically
        # arrive first (a small eager overtakes a large handshake)
        plans = {s: [(int(rng.integers(0, 3)), i,
                      bool(rng.integers(0, 2)))
                     for i in range(int(rng.integers(3, 8)))]
                 for s in range(1, n_senders + 1)}
        total = sum(len(v) for v in plans.values())

        def fn(ep, plans=plans, total=total):
            if ep.rank == 0:
                got = []
                for _ in range(total):
                    item, src, tag = yield from ep.recv()
                    got.append((src, tag, int(np.asarray(item)[0])))
                return got
            handles = []
            for tag, i, rendezvous in plans[ep.rank]:
                payload = np.full(big if rendezvous else 1, i,
                                  np.int64)
                handles.append(ep.isend(0, payload, tag=tag))
            for h in handles:
                yield h
            return None

        vals, _ = run_ranks(n_senders + 1, fn)
        got = vals[0]
        for s, plan in plans.items():
            for tag in set(t for t, _, _ in plan):
                sent = [i for t, i, _ in plan if t == tag]
                recvd = [i for src, t, i in got
                         if src == s and t == tag]
                assert recvd == sent, (trial, s, tag, recvd, sent)


# ------------------------------------------- indexed matching vs oracle ---

class _LinearScanMatcher:
    """Reference matcher: posted receives in post order and unexpected
    arrivals in arrival order, each scanned linearly for the first
    match (the endpoint's algorithm before matching was indexed by
    (src, tag))."""

    def __init__(self):
        self.unexpected = []    # (src, tag, payload)
        self.waiters = []       # (src, tag, receive id)

    @staticmethod
    def _matches(a_src, a_tag, src, tag):
        return ((src == ANY_SOURCE or a_src == src)
                and (tag == ANY_TAG or a_tag == tag))

    def arrive(self, src, tag, payload):
        """Receive id the arrival is handed to, or None if queued."""
        for i, (wsrc, wtag, rid) in enumerate(self.waiters):
            if self._matches(src, tag, wsrc, wtag):
                del self.waiters[i]
                return rid
        self.unexpected.append((src, tag, payload))
        return None

    def post(self, rid, src, tag):
        """Payload the receive takes at once, or None if it waits."""
        for i, (a_src, a_tag, payload) in enumerate(self.unexpected):
            if self._matches(a_src, a_tag, src, tag):
                del self.unexpected[i]
                return payload
        self.waiters.append((src, tag, rid))
        return None

    def iprobe(self, src, tag):
        return any(self._matches(a_src, a_tag, src, tag)
                   for a_src, a_tag, _ in self.unexpected)


_PEERS = (0, 1, 2)
_TAGS = (0, 1)
_match_op = st.one_of(
    st.tuples(st.just("post"), st.sampled_from((ANY_SOURCE,) + _PEERS),
              st.sampled_from((ANY_TAG,) + _TAGS)),
    st.tuples(st.just("arrive"), st.sampled_from(_PEERS),
              st.sampled_from(_TAGS)),
    st.tuples(st.just("probe"), st.sampled_from((ANY_SOURCE,) + _PEERS),
              st.sampled_from((ANY_TAG,) + _TAGS)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_match_op, max_size=60))
def test_indexed_matching_equals_linear_scan(ops):
    """Property: under any interleaving of specific and wildcard posts,
    in-order arrivals and probes, the (src, tag)-indexed endpoint hands
    every arrival to the same receive as the linear-scan oracle, and
    every probe answers the same."""
    eng = Engine()
    ep = MPIRuntime(eng, IBConfig(), len(_PEERS) + 1).endpoint(len(_PEERS))
    oracle = _LinearScanMatcher()
    seq = dict.fromkeys(_PEERS, 0)
    got, want, pending = {}, {}, {}
    for n, (op, src, tag) in enumerate(ops):
        if op == "arrive":
            ep._on_fabric(src, "eager", (tag, -1, n, seq[src]), 8)
            seq[src] += 1
            rid = oracle.arrive(src, tag, n)
            if rid is not None:
                want[rid] = n
        elif op == "post":
            res = ep._match_or_wait(src, tag)
            if isinstance(res, Event):
                pending[n] = res
            else:
                got[n] = res.payload
            payload = oracle.post(n, src, tag)
            if payload is not None:
                want[n] = payload
        else:
            assert ep.iprobe(src, tag) == oracle.iprobe(src, tag)
        for rid, ev in list(pending.items()):
            if ev.triggered:
                got[rid] = pending.pop(rid).value.payload
        assert got == want
    for src in (ANY_SOURCE,) + _PEERS:
        for tag in (ANY_TAG,) + _TAGS:
            assert ep.iprobe(src, tag) == oracle.iprobe(src, tag)


# ------------------------------------------- mixed-protocol alltoall(v) ---

_BIG_WORDS = IBConfig().eager_threshold_bytes // 8 + 32


def _chunk_words(scenario, src, dst, p):
    """Words rank ``src`` sends to ``dst``: over the eager threshold
    for some senders, some destinations, everyone, or no one."""
    if scenario == "eager":
        return 4
    if scenario == "some_ranks":
        return _BIG_WORDS if src % 2 == 0 else 4
    if scenario == "some_dests":
        return _BIG_WORDS if (dst - src) % p == 1 or dst == 0 else 4
    return _BIG_WORDS


#: Each rank's time at the end of its first and second alltoallv, as the
#: Process-per-message exchange computed them.
_PINNED_FINISH = {
    ("eager", 1): [
        (4e-07, 8e-07),
    ],
    ("eager", 2): [
        (3.7619999999999997e-06, 5.962e-06),
        (3.2e-06, 6.524e-06),
    ],
    ("eager", 3): [
        (5.661999999999999e-06, 1.1123999999999997e-05),
        (6.561999999999999e-06, 1.0561999999999998e-05),
        (5.999999999999999e-06, 1.0323999999999998e-05),
    ],
    ("eager", 8): [
        (1.4661999999999998e-05, 2.912400000000002e-05),
        (1.5562e-05, 2.8562000000000022e-05),
        (1.4999999999999999e-05, 2.862400000000002e-05),
        (1.5061999999999997e-05, 2.806200000000002e-05),
        (1.4499999999999998e-05, 2.8324000000000015e-05),
        (1.4661999999999998e-05, 2.912400000000002e-05),
        (1.5562e-05, 2.8562000000000022e-05),
        (1.4999999999999999e-05, 2.8324000000000015e-05),
    ],
    ("some_ranks", 1): [
        (4e-07, 8e-07),
    ],
    ("some_ranks", 2): [
        (5.204372019077901e-06, 1.0408744038155801e-05),
        (5.204372019077901e-06, 1.0408744038155801e-05),
    ],
    ("some_ranks", 3): [
        (8.108744038155801e-06, 1.5113116057233701e-05),
        (9.008744038155801e-06, 1.6013116057233702e-05),
        (9.008744038155801e-06, 1.6013116057233702e-05),
    ],
    ("some_ranks", 8): [
        (1.7108744038155803e-05, 3.3417488076311614e-05),
        (1.8063116057233708e-05, 3.417623211446741e-05),
        (1.8063116057233708e-05, 3.417623211446741e-05),
        (1.75043720190779e-05, 3.350874403815582e-05),
        (1.75043720190779e-05, 3.350874403815582e-05),
        (1.7108744038155803e-05, 3.327186009538951e-05),
        (1.7108744038155803e-05, 3.327186009538951e-05),
        (1.6408744038155803e-05, 3.3171860095389514e-05),
    ],
    ("some_dests", 1): [
        (4e-07, 8e-07),
    ],
    ("some_dests", 2): [
        (6.204372019077901e-06, 1.1408744038155802e-05),
        (6.204372019077901e-06, 1.1408744038155802e-05),
    ],
    ("some_dests", 3): [
        (8.363116057233703e-06, 1.5117488076311603e-05),
        (8.108744038155801e-06, 1.5117488076311603e-05),
        (8.363116057233703e-06, 1.4467488076311603e-05),
    ],
    ("some_dests", 8): [
        (1.72587440381558e-05, 3.3008744038155814e-05),
        (1.70043720190779e-05, 3.3008744038155814e-05),
        (1.72587440381558e-05, 3.236311605723372e-05),
        (1.5333860095389506e-05, 2.962074403815581e-05),
        (1.5221860095389506e-05, 2.8570744038155806e-05),
        (1.4661999999999998e-05, 2.912400000000002e-05),
        (1.5562e-05, 2.992074403815582e-05),
        (1.4999999999999999e-05, 3.082074403815582e-05),
    ],
    ("rendezvous", 1): [
        (4e-07, 8e-07),
    ],
    ("rendezvous", 2): [
        (6.204372019077901e-06, 1.1408744038155802e-05),
        (6.204372019077901e-06, 1.1408744038155802e-05),
    ],
    ("rendezvous", 3): [
        (8.363116057233703e-06, 1.6471860095389504e-05),
        (9.263116057233703e-06, 1.6471860095389504e-05),
        (9.263116057233703e-06, 1.6267488076311604e-05),
    ],
    ("rendezvous", 8): [
        (1.886995230524643e-05, 3.585930047694754e-05),
        (1.9124324324324333e-05, 3.600930047694755e-05),
        (1.9124324324324333e-05, 3.600930047694755e-05),
        (1.8978696343402238e-05, 3.565492845786965e-05),
        (1.8978696343402238e-05, 3.560492845786964e-05),
        (1.886995230524643e-05, 3.565492845786965e-05),
        (1.9124324324324333e-05, 3.565492845786965e-05),
        (1.9124324324324333e-05, 3.565492845786965e-05),
    ],
}


@pytest.mark.parametrize("p", [1, 2, 3, 8])
@pytest.mark.parametrize("scenario",
                         ["eager", "some_ranks", "some_dests", "rendezvous"])
def test_alltoallv_mixed_protocols(scenario, p):
    """Eager and rendezvous chunks mix within one exchange: a rank whose
    own chunks are all eager must still serve a peer's RTS.  Ranks
    enter skewed, so arrivals meet both posted and not-yet-posted
    receives; two back-to-back exchanges must deliver every chunk and
    finish at the pinned instants."""
    def fn(ep):
        r = ep.rank
        yield ep.engine.timeout(((r * 7) % 5) * 0.5e-6)
        chunks = [np.full(_chunk_words(scenario, r, d, p), 1000 * r + d,
                          np.int64) for d in range(p)]
        first = yield from ep.alltoallv(chunks)
        t1 = ep.engine.now
        second = yield from ep.alltoallv([c[::-1] + 1 for c in chunks])
        return first, second, (t1, ep.engine.now)

    vals, _ = run_ranks(p, fn)
    for r, (first, second, _) in enumerate(vals):
        for s in range(p):
            want = np.full(_chunk_words(scenario, s, r, p), 1000 * s + r,
                           np.int64)
            assert np.array_equal(first[s], want)
            assert np.array_equal(second[s], want + 1)
    assert [v[2] for v in vals] == _PINNED_FINISH[(scenario, p)]


# ------------------------------------------------- MPI message churn ---

def _counted_gups(monkeypatch, n_nodes, window, obs=False):
    """Run MPI GUPS and count Processes spawned, engine events,
    alltoallv calls and point-to-point send/isend calls."""
    from repro.core.cluster import ClusterSpec
    from repro.ib.mpi import MPIEndpoint
    from repro.kernels.gups import run_gups
    from repro.obs import registry as obsreg
    from repro.sim.process import Process

    counts = dict.fromkeys(("processes", "alltoallv", "sends"), 0)
    engines = []

    def counting(cls, name, key):
        orig = getattr(cls, name)

        def wrapper(self, *a, **k):
            counts[key] += 1
            return orig(self, *a, **k)
        monkeypatch.setattr(cls, name, wrapper)

    counting(Process, "__init__", "processes")
    counting(MPIEndpoint, "alltoallv", "alltoallv")
    counting(MPIEndpoint, "send", "sends")
    counting(MPIEndpoint, "isend", "sends")
    orig_run = Engine.run

    def run(self, *a, **k):
        engines.append(self)
        return orig_run(self, *a, **k)
    monkeypatch.setattr(Engine, "run", run)

    with obsreg.session(obs) as reg:
        out = run_gups(ClusterSpec(n_nodes=n_nodes, seed=3), "mpi",
                       table_words=1024, n_updates=256, window=window,
                       validate=True)
        counts["obs_sends"] = None if reg is None else reg.total(
            "ib.mpi.sends")
    monkeypatch.undo()
    assert out["valid"]
    counts["events"] = sum(e.events_processed for e in set(engines))
    return counts


#: Engine events of the 32-node run below with the chained alltoallv
#: (the Process-per-message exchange took 32,235).
_GUPS32_EVENTS = 17_669


@pytest.mark.parametrize("n_nodes", [16, 32])
def test_alltoallv_spawns_no_process_per_message(monkeypatch, n_nodes):
    """Processes spawned per rank per alltoallv stay O(1) as P grows
    (the Process-per-message exchange spawned 2(P-1))."""
    two = _counted_gups(monkeypatch, n_nodes, window=128)
    eight = _counted_gups(monkeypatch, n_nodes, window=32)
    calls = eight["alltoallv"] - two["alltoallv"]
    assert calls == 6 * n_nodes
    assert (eight["processes"] - two["processes"]) / calls <= 1


def test_gups32_event_budget_and_send_counter(monkeypatch):
    """The 32-node MPI GUPS run stays within its recorded event count,
    and ``ib.mpi.sends`` counts exactly the send/isend API calls."""
    plain = _counted_gups(monkeypatch, 32, window=128)
    assert plain["events"] <= _GUPS32_EVENTS
    traced = _counted_gups(monkeypatch, 32, window=128, obs=True)
    assert traced["obs_sends"] == traced["sends"] > 0


def test_same_instant_exchange_ends_keep_their_order():
    """With IB retries, ranks leave an alltoall at the same instant and
    go on to race for the fabric: the order they resume in decides the
    result.  Pinned to what the Process-per-message exchange gave."""
    from repro.core.scaling import scaleout_point
    from repro.faults import FaultPlan

    out = scaleout_point("fft", "mpi", 16,
                         plan=FaultPlan(seed=5, ib_drop_prob=0.05))
    assert out["elapsed_s"] == 8.733398018018029e-05
