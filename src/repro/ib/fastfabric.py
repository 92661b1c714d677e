"""Pooled IB fabric — the engine every MPI cluster runs on the fat tree.

:class:`FastIBFabric` is bit-identical to :class:`IBFabric` (the model,
and the test oracle).  It mirrors :mod:`repro.dv.fastflow`: per-message
state moves out of marker :class:`~repro.sim.events.Event` objects and
closures into a numpy structured-array pool, deliveries are scheduled
with :meth:`Engine.call_in` (sequence parity with the reference marker
events), and the static-routing path — a blake2b hash per message in
the reference — is memoised per (src, dst) flow, which is exact because
the hash is a pure function of the pair.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ib.fabric import IBFabric
from repro.sim.events import CompletionEvent, Event

_POOL_DTYPE = np.dtype([
    ("src", np.int32),
    ("dst", np.int32),
    ("nbytes", np.int64),
])


class FastIBFabric(IBFabric):
    """Drop-in :class:`IBFabric` with pooled, cached internals.

    Same constructor, same public surface, same simulated timings to
    the last bit — built for every MPI cluster by
    :func:`repro.core.cluster.build_network` (and by
    :class:`~repro.ib.mpi.MPIRuntime` when handed no fabric).
    """

    def __init__(self, engine, config, n_nodes: int,
                 contention: bool = True) -> None:
        super().__init__(engine, config, n_nodes, contention=contention)
        self._path_cache: Dict[Tuple[int, int], tuple] = {}
        self._pool = np.zeros(16, _POOL_DTYPE)
        self._kinds: List[Optional[str]] = [None] * 16
        self._payloads: List[Any] = [None] * 16
        self._dones: List[Optional[Event]] = [None] * 16
        self._free_slots: List[int] = list(range(15, -1, -1))

    def _cached_path(self, src: int, dst: int) -> tuple:
        key = (src, dst)
        path = self._path_cache.get(key)
        if path is None:
            path = self._path_cache[key] = tuple(self._path(src, dst))
        return path

    def _alloc(self) -> int:
        free = self._free_slots
        if not free:
            old = self._pool
            cap = old.size
            pool = np.zeros(2 * cap, _POOL_DTYPE)
            pool[:cap] = old
            self._pool = pool
            self._kinds.extend([None] * cap)
            self._payloads.extend([None] * cap)
            self._dones.extend([None] * cap)
            free.extend(range(2 * cap - 1, cap - 1, -1))
        return free.pop()

    def transfer(self, src: int, dst: int, nbytes: int, *,
                 kind: str = "data", payload: Any = None) -> Event:
        if not 0 <= src < self.n_nodes:
            raise ValueError(f"bad src {src}")
        if not 0 <= dst < self.n_nodes:
            raise ValueError(f"bad dst {dst}")
        if nbytes < 0:
            raise ValueError("negative size")
        cfg = self.config
        now = self.engine.now
        path = self._cached_path(src, dst)
        occupancy = max(nbytes / cfg.effective_bw, cfg.msg_gap_s)

        retry_lat = 0.0
        fs = self._faults
        if fs is not None:
            k = fs.ib_retries()
            if k:
                occupancy *= (k + 1)
                retry_lat = k * fs.plan.ib_retry_timeout_s

        free = self._free
        start = now
        for ch in path:
            t = free.get(ch, 0.0)
            if t > start:
                start = t
        self.stats.total_queue_wait_s += start - now
        busy_until = start + occupancy
        for ch in path:
            free[ch] = busy_until

        arrival = (start + occupancy + retry_lat + cfg.wire_latency_s
                   + self.hops(src, dst) * cfg.hop_latency_s)

        self.stats.messages += 1
        self.stats.bytes += nbytes
        cross = len(path) == 4
        if cross:
            self.stats.cross_leaf_messages += 1
        if self._obs_on:
            self._m_messages.inc()
            self._m_bytes.inc(nbytes)
            self._m_wait.observe(start - now)
            if cross:
                self._m_cross.inc()

        done = CompletionEvent(self.engine, fabric="ib", op=kind,
                               src=src, dest=dst, nbytes=nbytes)
        idx = self._alloc()
        row = self._pool
        row["src"][idx] = src
        row["dst"][idx] = dst
        row["nbytes"][idx] = nbytes
        self._kinds[idx] = kind
        self._payloads[idx] = payload
        self._dones[idx] = done
        self.engine.call_in(arrival - now, self._deliver, idx)
        return done

    def _deliver(self, idx: int) -> None:
        row = self._pool
        src = int(row["src"][idx])
        dst = int(row["dst"][idx])
        nbytes = int(row["nbytes"][idx])
        kind = self._kinds[idx]
        payload = self._payloads[idx]
        done = self._dones[idx]
        self._kinds[idx] = None
        self._payloads[idx] = None
        self._dones[idx] = None
        self._free_slots.append(idx)
        receiver = self._receivers[dst] if dst < len(self._receivers) else None
        if receiver is not None:
            receiver(src, kind, payload, nbytes)
        done.succeed(payload)

