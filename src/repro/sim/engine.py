"""The discrete-event engine: an event heap and a run loop.

The engine owns simulated time.  Everything that happens in a simulation is
an :class:`~repro.sim.events.Event` popped off a priority heap keyed by
``(time, sequence)``; the sequence number guarantees FIFO ordering among
same-time events, which is what makes runs bit-reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, List, Optional, Tuple

from repro.obs import registry as obsreg
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process


class SimulationError(RuntimeError):
    """Raised for engine misuse (e.g. running a finished simulation)."""


class _Wakeup:
    """Zero-payload heap entry invoking a bare callback when popped.

    The pooled fast fabrics (:mod:`repro.dv.fastflow`,
    :mod:`repro.ib.fastfabric`) schedule one of these per arrival or
    ejection instead of a full :class:`Event` + closure pair; it shares
    the heap with regular events (the engine only ever calls
    ``_process``), so ordering between the two kinds is governed by the
    usual ``(time, sequence)`` key.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn, args) -> None:
        self.fn = fn
        self.args = args

    def _process(self) -> None:
        self.fn(*self.args)


class Engine:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start:
        Initial simulated time in seconds (default ``0.0``).

    Notes
    -----
    The engine is single-threaded and re-entrant-safe in the sense that
    callbacks may create and trigger further events; they are appended to
    the heap and processed in order.

    **Tie determinism guarantee.**  Events scheduled for the *same*
    simulated instant fire in the order they were enqueued: every heap
    entry carries a monotonically increasing sequence number assigned at
    enqueue time, and no two entries share one, so heap ordering among
    same-time events is exactly insertion order.  This invariant is what
    the fast/reference bit-identity proofs and the sharded PDES merge
    ordering (:mod:`repro.sim.pdes`) are built on — see
    ``tests/test_sim_engine.py::test_simultaneous_events_fire_in_insertion_order``.
    """

    # Subclasses that replay events merged from several shards flip this
    # on so Process resumption re-roots the cascade-origin bookkeeping
    # (see repro.sim.pdes.engine.ShardEngine).  The serial engine never
    # reads _origin; keeping the flag a class attribute keeps the serial
    # hot path untouched.
    _track_origin = False
    _origin = -1

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._processed_count = 0
        # observability handles, resolved once; hot paths guard on the bool
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_events = obsreg.counter("sim.engine.events")
            self._m_qdepth = obsreg.gauge("sim.engine.queue_depth")
            self._m_clock = obsreg.gauge("sim.engine.clock")

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (diagnostics).

        Exact between runs; while a plain ``run()`` drains the heap the
        count is only stored back when it returns or raises."""
        return self._processed_count

    # -- event factories -----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` seconds from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn a :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Barrier condition over ``events``."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Race condition over ``events``."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        """Insert a triggered event into the heap ``delay`` seconds ahead."""
        # ``not >=`` also rejects NaN, which would otherwise sort first
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))

    def call_in(self, delay: float, fn, *args) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        A heap-only alternative to ``event + add_callback + _enqueue``
        for hot paths: no :class:`Event` is allocated and nothing can
        wait on the callback.  The sequence number is assigned *here*,
        so a ``call_in`` issued at the same instant a reference
        implementation would enqueue a marker event occupies the exact
        same position among same-time events — the property the
        fast/reference bit-identity guarantee rests on.
        """
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue,
                       (self._now + delay, self._seq, _Wakeup(fn, args)))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        t, _seq, event = heapq.heappop(self._queue)
        if t < self._now:  # pragma: no cover - heap invariant guard
            raise SimulationError("event scheduled in the past")
        self._now = t
        self._processed_count += 1
        if self._obs_on:
            self._m_events.inc()
            self._m_qdepth.set_max(len(self._queue) + 1)
            # the live simulation clock: progress streams (repro.service)
            # read the peak as "how far has simulated time advanced"
            self._m_clock.set_max(t)
        event._process()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.

        Parameters
        ----------
        until:
            Stop once the next event would occur strictly after this time;
            the clock is advanced to ``until``.  An ``until`` before the
            current time raises :class:`SimulationError` (the clock never
            runs backwards).
        max_events:
            Safety valve for runaway simulations; raises
            :class:`SimulationError` when exhausted.
        """
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"run(until={until!r}) is before the current time "
                f"{self._now!r}")
        if (until is None and max_events is None and not self._obs_on
                and type(self).step is Engine.step):
            self._drain()
            return
        n = 0
        while self._queue:
            if until is not None and self.peek() > until:
                self._now = until
                return
            if max_events is not None and n >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} "
                    f"(simulated time {self._now:g}s)")
            self.step()
            n += 1
        if until is not None and until > self._now:
            self._now = until

    def _drain(self) -> None:
        """:meth:`step` until the queue is empty, as one tight loop.

        The common ``run()`` case: no horizon, no event budget, no
        metrics.  The processed count is kept in a local and stored back
        on the way out, so it is exact after a normal return and after a
        callback raises.
        """
        queue = self._queue
        pop = heapq.heappop
        n = self._processed_count
        try:
            while queue:
                t, _seq, event = pop(queue)
                self._now = t
                n += 1
                event._process()
        finally:
            self._processed_count = n

    def run_process(self, generator: Generator, name: str = "",
                    until: Optional[float] = None) -> Any:
        """Convenience: spawn ``generator``, run to completion, return its
        value.  Raises the process's exception on failure."""
        proc = self.process(generator, name=name)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError(
                f"process {name or generator!r} did not finish "
                f"(deadlock or until= too small)")
        if not proc.ok:
            raise proc.value
        return proc.value
