"""ShardEngine semantics: 6-field merge keys, explicit-key insertion,
sequence burning, origin tracking, and the conservative window loop."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.pdes.engine import ShardEngine, resume_order_violation


def test_heap_entries_carry_six_field_merge_keys():
    eng = ShardEngine()
    eng.call_in(2.0, lambda: None)
    eng.timeout(1.0)
    for entry in eng._queue:
        fire_t, sched_t, origin, seq, push, _item = entry
        assert fire_t >= sched_t == 0.0
        assert origin == -1  # no cascade rooted yet
        assert isinstance(seq, int) and isinstance(push, int)


def test_same_program_same_event_order_as_serial_engine():
    """A single ShardEngine over a whole program is a drop-in Engine:
    the richer key must not change processing order."""
    def drive(eng):
        fired = []
        for i, d in enumerate([3.0, 1.0, 1.0, 2.0, 1.0]):
            eng.call_in(d, fired.append, i)
        eng.run()
        return fired

    assert drive(ShardEngine()) == drive(Engine())


def test_schedule_key_files_cross_shard_arrival_before_local_tie():
    """An explicit key with a smaller (sched_t, origin, seq) must fire
    before a locally enqueued event at the same instant, exactly where
    the sending shard's serial-equivalent enqueue would have placed it."""
    eng = ShardEngine(shard_id=1)
    fired = []

    def empty():
        return
        yield

    eng.process(empty(), origin=5)  # root a cascade as rank 5
    eng.call_in(1.0, fired.append, "local")
    # remote arrival burned earlier in serial order: lower origin wins
    eng.schedule_key(1.0, 0.0, 2, 1, fired.append, ("remote",))
    eng.run()
    assert fired == ["remote", "local"]


def test_schedule_key_does_not_advance_local_seq():
    eng = ShardEngine()
    before = eng._seq
    eng.schedule_key(1.0, 0.0, 0, 7, lambda: None, ())
    assert eng._seq == before


def test_burn_seq_returns_first_and_advances():
    eng = ShardEngine()
    start = eng._seq
    first = eng.burn_seq(3)
    assert first == start + 1
    assert eng._seq == start + 3
    # next local enqueue continues after the burned block
    eng.call_in(1.0, lambda: None)
    assert eng._queue[0][3] == start + 4


def test_origin_restored_on_pop_and_rerooted_by_process():
    eng = ShardEngine()
    seen = []

    def prog(rank):
        yield eng.timeout(1.0)
        seen.append((rank, eng._origin))
        yield eng.timeout(1.0)
        seen.append((rank, eng._origin))

    eng.process(prog(0), origin=0)
    eng.process(prog(1), origin=1)
    eng.run()
    assert seen == [(0, 0), (1, 1), (0, 0), (1, 1)]


def test_resume_log_records_rank_bodies_only():
    eng = ShardEngine()

    def helper():
        yield eng.timeout(0.5)

    def body():
        eng.process(helper())
        yield eng.timeout(1.0)

    eng.process(body(), origin=7)
    eng.run()
    # start + the wake-up after the timeout; the helper is not logged
    assert [(r[0], r[-1]) for r in eng.take_resumes()] == [(0.0, 7),
                                                            (1.0, 7)]
    assert eng.take_resumes() == []


def test_resume_order_violation_flags_crossed_wakeups():
    # (t, sched, origin, seq, k, resumed rank): at t=2 the trigger
    # sorting first wakes rank 3, the later one rank 1
    crossed = [[(2.0, 1.0, 1, 5, 0, 3)], [(2.0, 1.0, 3, 4, 0, 1)]]
    assert "rank 1 first resumes after rank 3" in \
        resume_order_violation(crossed)
    in_order = [[(2.0, 1.0, 1, 5, 0, 1)], [(2.0, 1.0, 3, 4, 0, 3)]]
    assert resume_order_violation(in_order) is None
    # a rank resuming again later in the instant is not a crossing
    again = [[(2.0, 1.0, 1, 5, 0, 1), (2.0, 1.0, 4, 9, 1, 1)],
             [(2.0, 1.0, 3, 4, 0, 3)]]
    assert resume_order_violation(again) is None
    # different instants are independent
    apart = [[(2.0, 1.0, 1, 5, 0, 3)], [(3.0, 1.0, 3, 4, 0, 1)]]
    assert resume_order_violation(apart) is None


def test_run_window_stops_strictly_before_horizon():
    eng = ShardEngine()
    fired = []
    for d in (0.5, 1.0, 1.5, 2.0):
        eng.call_in(d, fired.append, d)
    n = eng.run_window(1.5)  # strictly below: 1.5 stays queued
    assert n == 2 and fired == [0.5, 1.0]
    assert eng.peek() == 1.5
    n = eng.run_window(float("inf"))
    assert n == 2 and fired == [0.5, 1.0, 1.5, 2.0]
    assert eng.peek() == float("inf")


def test_run_window_on_empty_queue_is_a_noop():
    eng = ShardEngine()
    assert eng.run_window(10.0) == 0


def test_step_on_empty_queue_raises():
    with pytest.raises(SimulationError):
        ShardEngine().step()


def test_negative_delay_rejected():
    eng = ShardEngine()
    with pytest.raises(ValueError):
        eng.call_in(-1.0, lambda: None)
    with pytest.raises(ValueError):
        eng.timeout(-1.0)
