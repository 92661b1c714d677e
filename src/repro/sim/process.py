"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: every value the generator
yields must be a waitable (:class:`~repro.sim.events.Event`, another
:class:`Process`, or a condition), and the process is resumed with the
waitable's value when it fires.  A process is itself an event that succeeds
with the generator's return value, so processes compose (``yield other``
joins on ``other``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class ProcessKilled(Exception):
    """Thrown into a generator by :meth:`Process.kill`."""


class Process(Event):
    """An event that completes when its generator returns.

    Do not instantiate directly; use :meth:`Engine.process`.
    """

    __slots__ = ("_generator", "_waiting_on", "_started")

    def __init__(self, engine: "Engine", generator: Generator,
                 name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"process body must be a generator, got {generator!r} — "
                "did you forget to call the generator function?")
        super().__init__(engine, name=name or getattr(
            generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Event | None = None
        self._started = False
        # Kick off on the next queue pass so that creation order, not
        # creation *code position*, determines interleaving.
        start = Event(engine, name=f"{self.name}:start")
        start.add_callback(self._resume)
        start._ok = True
        start._value = None
        self._waiting_on = start
        engine._enqueue(start, delay=0.0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def kill(self, reason: str = "killed") -> None:
        """Throw :class:`ProcessKilled` into the generator.

        If the generator does not catch it the process fails with the
        ``ProcessKilled`` exception.
        """
        if self.triggered:
            return
        # Detach from whatever we were waiting on: its eventual trigger
        # must not resume the generator a second time (see _resume guard).
        self._waiting_on = None
        exc = ProcessKilled(reason)
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
        except ProcessKilled as pk:
            self.fail(pk)
        except BaseException as err:
            self.fail(err)
        else:
            self._wait_on(target)

    # -- internal stepping -----------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the trigger's value."""
        if trigger is not self._waiting_on:
            # Stale wakeup: the process was killed (or re-targeted) while
            # this waitable was pending.  Ignore it.
            return
        self._waiting_on = None
        try:
            if trigger.ok:
                target = self._generator.send(trigger.value)
            else:
                # Propagate child failure into the generator so it may
                # handle it (e.g. a timed-out counter wait).
                target = self._generator.throw(trigger.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            if isinstance(err, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(err)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(TypeError(
                f"process {self.name!r} yielded non-waitable {target!r}"))
            return
        if target.engine is not self.engine:
            self._generator.close()
            self.fail(ValueError(
                f"process {self.name!r} yielded event from another engine"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)
