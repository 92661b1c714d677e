"""Per-shard event engine for the conservative PDES layer.

A :class:`ShardEngine` is a drop-in :class:`~repro.sim.engine.Engine`
whose heap entries carry a *merge key* instead of the serial engine's
bare sequence number::

    (fire_t, sched_t, origin, seq, push)

* ``fire_t``  — when the event fires (identical to serial);
* ``sched_t`` — the simulated instant the entry was scheduled at.  The
  serial engine processes same-``fire_t`` events in enqueue order, and
  enqueue order is monotone in enqueue *time*, so ``sched_t`` is the
  coarse reconstruction of the serial sequence number;
* ``origin``  — the rank whose cascade scheduled the entry.  SPMD
  programs are symmetric: at any common instant each rank performs the
  same schedule calls, and the serial engine interleaves them in rank
  order because ``run_spmd`` spawns rank processes in rank order.
  Ordering ties by origin therefore reproduces the serial interleave
  even when the cascades live on different shards;
* ``seq``     — shard-local sequence number (or, for cross-shard
  arrivals, the sequence number *burned on the sending shard*, which
  matches what the serial engine would have assigned relative to the
  rest of that origin's cascade);
* ``push``    — local push counter; pure anti-crash tiebreak so tuple
  comparison never reaches the event object.

Origins propagate through :class:`~repro.sim.process.Process`: the
engine stamps ``_origin`` on every pop, and a resuming process re-roots
it to its own origin (``Engine._track_origin`` hook), so each rank's
cascade keeps its identity however deep the event chain gets.

Re-rooting is where the origin tie-break can go wrong.  Serial orders a
resumed cascade by the event that woke it; the merge key orders it by
the resumed rank.  The two agree only while rank bodies first resume
at each instant in rank order.  In a 4-node dissemination barrier rank
3 can be woken (by rank 1's packet) before rank 1 is (by rank 3's), and
the two cascades then tie the wrong way round.  Each shard therefore
logs its rank bodies' resumptions (:meth:`ShardEngine.take_resumes`),
and at every window the hub checks them across all shards
(:func:`resume_order_violation`); a violation falls back to serial.
"""

from __future__ import annotations

import heapq
from typing import Generator, Optional

from repro.sim.engine import Engine, SimulationError, _Wakeup
from repro.sim.process import Process


class ShardEngine(Engine):
    """Engine variant whose heap ordering is shard-mergeable.

    Running a single ShardEngine over a whole program produces the same
    *set* of events as the serial engine; running one per shard and
    merging by the key above reproduces the serial *order* for the SPMD
    programs the cluster layer runs (see docs/scaling.md for the
    argument and its limits).
    """

    _track_origin = True

    def __init__(self, start: float = 0.0, shard_id: int = 0) -> None:
        super().__init__(start)
        self.shard_id = shard_id
        self._origin = -1
        self._push = 0
        #: heap entry of the event being processed
        self._popped: tuple = ()
        #: re-roots this window: (t, sched_t, origin, seq of the waking
        #: event, local index, resumed origin)
        self._resumes: list = []
        #: rank bodies (processes spawned as cascade roots)
        self._ranks: set = set()

    # -- scheduling (6-field merge keys) -----------------------------------
    def _enqueue(self, event, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        self._push += 1
        heapq.heappush(self._queue,
                       (self._now + delay, self._now, self._origin,
                        self._seq, self._push, event))

    def call_in(self, delay: float, fn, *args) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        self._push += 1
        heapq.heappush(self._queue,
                       (self._now + delay, self._now, self._origin,
                        self._seq, self._push, _Wakeup(fn, args)))

    def schedule_key(self, fire_t: float, sched_t: float, origin: int,
                     seq: int, fn, args) -> None:
        """Insert a callback under an *explicit* merge key.

        Used for cross-shard arrivals: the sending shard burned ``seq``
        on its own engine at transmit time, and the receiving shard must
        file the arrival exactly where the serial engine would have.
        Does not advance the local sequence counter.
        """
        self._push += 1
        heapq.heappush(self._queue,
                       (fire_t, sched_t, origin, seq, self._push,
                        _Wakeup(fn, args)))

    def burn_seq(self, n: int = 1) -> int:
        """Consume ``n`` sequence numbers; return the first one.

        Mirrors what the serial engine would burn for actions that, under
        sharding, happen on a *different* shard (remote deliveries).
        Keeping local counters aligned with serial keeps later local keys
        aligned too.
        """
        first = self._seq + 1
        self._seq += n
        return first

    def reroot(self, process: Process) -> None:
        """Process-resumption hook: re-root to the process's origin,
        logging the resumptions of rank bodies."""
        origin = process.origin
        if process in self._ranks:
            self._resumes.append((self._now, *self._popped[1:4],
                                  len(self._resumes), origin))
        self._origin = origin

    def take_resumes(self) -> list:
        resumes, self._resumes = self._resumes, []
        return resumes

    # -- processes ----------------------------------------------------------
    def process(self, generator: Generator, name: str = "",
                origin: Optional[int] = None) -> Process:
        """Spawn a process; ``origin`` roots a new cascade (rank id)."""
        if origin is None:
            return Process(self, generator, name=name)
        self._origin = origin
        proc = Process(self, generator, name=name)
        self._ranks.add(proc)
        return proc

    # -- stepping -----------------------------------------------------------
    def step(self) -> None:
        if not self._queue:
            raise SimulationError("no scheduled events")
        entry = heapq.heappop(self._queue)
        t, _sched, origin, _seq, _push, event = entry
        if t < self._now:  # pragma: no cover - heap invariant guard
            raise SimulationError("event scheduled in the past")
        self._now = t
        self._origin = origin
        self._popped = entry
        self._processed_count += 1
        if self._obs_on:
            self._m_events.inc()
            self._m_qdepth.set_max(len(self._queue) + 1)
        event._process()

    def run_window(self, end: float) -> int:
        """Process every event with ``fire_t`` strictly below ``end``.

        The conservative window loop: ``end`` is the global horizon
        ``T + lookahead``; anything a peer shard transmits during
        ``[T, end)`` arrives at or after ``end`` (lookahead is the
        minimum cross-shard latency), so this shard can safely run to
        ``end`` without hearing from anyone.  Returns the number of
        events processed.
        """
        n = 0
        queue = self._queue
        while queue and queue[0][0] < end:
            self.step()
            n += 1
        return n


def resume_order_violation(resumes_by_shard: list) -> Optional[str]:
    """Why the merge order may differ from serial, or ``None``.

    ``resumes_by_shard`` holds each shard's :meth:`ShardEngine.take_resumes`
    log for one window.  Sorted by trigger key, the rank bodies that
    first resume at an instant must do so in rank order; otherwise a
    cascade woken earlier in serial sorts after one woken later.
    """
    merged = sorted(r for resumes in resumes_by_shard for r in resumes)
    now, seen, top = None, set(), -1
    for r in merged:
        t, origin = r[0], r[-1]
        if t != now:
            now, seen, top = t, set(), origin
        if origin in seen:
            continue
        if origin < top:
            return (f"rank {origin} first resumes after rank {top} at "
                    f"t={t!r}; the origin tie-break would reorder "
                    "their cascades")
        seen.add(origin)
        top = origin
    return None
