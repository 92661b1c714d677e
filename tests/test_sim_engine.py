"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim import Engine, SimulationError


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_clock_custom_start():
    eng = Engine(start=5.0)
    assert eng.now == 5.0


def test_timeout_advances_clock():
    eng = Engine()
    eng.timeout(2.5)
    eng.run()
    assert eng.now == 2.5


def test_timeout_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_timeouts_fire_in_time_order():
    eng = Engine()
    order = []
    for d in (3.0, 1.0, 2.0):
        eng.timeout(d).add_callback(lambda ev, d=d: order.append(d))
    eng.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fifo():
    eng = Engine()
    order = []
    for i in range(10):
        eng.timeout(1.0).add_callback(lambda ev, i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_run_until_stops_and_sets_clock():
    eng = Engine()
    fired = []
    eng.timeout(10.0).add_callback(lambda ev: fired.append(1))
    eng.run(until=4.0)
    assert eng.now == 4.0
    assert not fired
    eng.run()
    assert fired and eng.now == 10.0


def test_run_until_beyond_queue_advances_clock():
    eng = Engine()
    eng.timeout(1.0)
    eng.run(until=100.0)
    assert eng.now == 100.0


def test_max_events_guard():
    eng = Engine()

    def forever(eng):
        while True:
            yield eng.timeout(1.0)

    eng.process(forever(eng))
    with pytest.raises(SimulationError):
        eng.run(max_events=50)


def test_step_on_empty_queue_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.step()


def test_peek_empty_is_inf():
    eng = Engine()
    assert eng.peek() == float("inf")


def test_event_succeed_value():
    eng = Engine()
    ev = eng.event()
    ev.succeed(42)
    eng.run()
    assert ev.processed and ev.ok and ev.value == 42


def test_event_fail_carries_exception():
    eng = Engine()
    ev = eng.event()
    err = RuntimeError("boom")
    ev.fail(err)
    eng.run()
    assert ev.processed and not ev.ok and ev.value is err


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("x"))


def test_fail_requires_exception_instance():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.event().fail("not an exception")  # type: ignore[arg-type]


def test_value_before_trigger_raises():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_late_callback_still_invoked():
    eng = Engine()
    ev = eng.event()
    ev.succeed("x")
    eng.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    eng.run()
    assert seen == ["x"]


def test_events_processed_counter():
    eng = Engine()
    for _ in range(5):
        eng.timeout(1.0)
    eng.run()
    assert eng.events_processed == 5


def test_run_process_returns_value():
    eng = Engine()

    def body(eng):
        yield eng.timeout(1.0)
        return "ok"

    assert eng.run_process(body(eng)) == "ok"


def test_run_process_raises_body_exception():
    eng = Engine()

    def body(eng):
        yield eng.timeout(1.0)
        raise ValueError("inside")

    with pytest.raises(ValueError, match="inside"):
        eng.run_process(body(eng))


def test_run_process_detects_deadlock():
    eng = Engine()

    def body(eng):
        yield eng.event()  # never triggered

    with pytest.raises(SimulationError, match="did not finish"):
        eng.run_process(body(eng))


def test_simultaneous_events_fire_in_insertion_order():
    """Property: events scheduled for the same instant fire in exactly
    the order they were enqueued, for any interleaving of ``timeout``
    and ``call_in`` scheduling and any grouping of instants.  This is
    the tie-determinism invariant the fast/reference bit-identity
    guarantee rests on (see Engine's docstring).
    """
    import random

    for seed in range(100):
        rng = random.Random(seed)
        eng = Engine()
        fired = []
        expected = []
        # a handful of distinct instants, each receiving several events
        instants = sorted(rng.sample(range(1, 50), rng.randint(2, 6)))
        order = [t for t in instants
                 for _ in range(rng.randint(2, 5))]
        rng.shuffle(order)  # interleave scheduling across instants
        for i, t in enumerate(order):
            tag = (t, i)
            if rng.random() < 0.5:
                eng.call_in(float(t), fired.append, tag)
            else:
                ev = eng.timeout(float(t), value=tag)
                ev.add_callback(lambda e, tag=tag: fired.append(tag))
        # expected: sort by time only, ties in insertion (i) order
        expected = sorted(((t, i) for i, t in enumerate(order)),
                          key=lambda ti: (ti[0], ti[1]))
        eng.run()
        assert fired == expected, f"tie order broken at seed={seed}"


# -------------------------------------------------- misuse and counting ---

def test_run_until_before_now_raises_and_keeps_clock():
    eng = Engine()
    eng.timeout(15.0)
    eng.run()
    assert eng.now == 15.0
    with pytest.raises(SimulationError, match="before the current time"):
        eng.run(until=5.0)
    assert eng.now == 15.0
    eng.run(until=15.0)             # the current instant is still allowed
    assert eng.now == 15.0


@pytest.mark.parametrize("schedule", [
    lambda eng: eng.call_in(float("nan"), lambda: None),
    lambda eng: eng._enqueue(eng.event(), float("nan")),
    lambda eng: eng.timeout(float("nan")),
    lambda eng: eng.call_in(-1e-9, lambda: None),
])
def test_nan_and_negative_delays_rejected(schedule):
    eng = Engine()
    eng.timeout(1.0)
    with pytest.raises(ValueError):
        schedule(eng)
    assert len(eng._queue) == 1     # nothing was scheduled
    eng.run()
    assert eng.now == 1.0


def test_events_processed_exact_when_a_callback_raises():
    eng = Engine()
    fired = []

    def cb(i):
        fired.append(i)
        if i == 3:
            raise RuntimeError("boom")

    for i in range(1, 6):
        eng.call_in(float(i), cb, i)
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()
    assert fired == [1, 2, 3]
    assert eng.events_processed == 3
    assert eng.now == 3.0
    eng.run()
    assert fired == [1, 2, 3, 4, 5]
    assert eng.events_processed == 5


def test_events_processed_same_on_every_run_path():
    def build():
        eng = Engine()
        for i in range(7):
            eng.timeout(float(i % 3)).add_callback(
                lambda ev, eng=eng: eng.call_in(0.5, lambda: None))
        return eng

    plain = build()
    plain.run()
    capped = build()
    capped.run(max_events=100)
    horizon = build()
    horizon.run(until=1e9)
    assert plain.events_processed == capped.events_processed == 14
    assert horizon.events_processed == 14
    assert plain.now == capped.now == 2.5


def test_engine_events_metric_counts_with_obs_on():
    from repro.obs import registry as obsreg
    with obsreg.session() as reg:
        eng = Engine()
        for i in range(4):
            eng.timeout(float(i))
        eng.call_in(2.0, lambda: None)
        eng.run()
        assert eng.events_processed == 5
        assert reg.total("sim.engine.events") == 5
