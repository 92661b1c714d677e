"""Fast IB fabric — the engine every MPI cluster runs on the fat tree.

:class:`FastIBFabric` is bit-identical to :class:`IBFabric` (the model,
and the test oracle) at one channel reservation and one heap entry per
message: integer channels with a flat free-time list, routes cached per
(src, dst) pair as channel-id tuples (exact, because the blake2b uplink
hash is a pure function of the pair), deliveries as
:meth:`Engine.call_in` entries in the reference marker event's heap
place, and :meth:`inject`, which sends without a completion event.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.ib.fabric import IBFabric, _route_hash
from repro.sim.events import CompletionEvent, Event


class FastIBFabric(IBFabric):
    """Drop-in :class:`IBFabric`: same constructor, surface and timings.

    Channel ids: ``tx`` of node ``i`` is ``i``, its ``rx`` ``n + i``;
    uplink ``k`` of leaf ``l`` is ``2n + l*U + k``, its downlink
    ``2n + (L + l)*U + k``.  A route lists one channel per switch hop.
    Without contention a cross-leaf route lists ``tx`` and ``rx`` twice
    in place of the reference's private per-flow up/down pair: the flow
    reserves that pair only with its own ``tx`` and to the same time,
    and free times only grow, so the pair never moves a start.
    """

    def __init__(self, engine, config, n_nodes: int,
                 contention: bool = True) -> None:
        super().__init__(engine, config, n_nodes, contention=contention)
        n_channels = 2 * n_nodes
        if contention:
            n_channels += (2 * -(-n_nodes // config.leaf_size)
                           * config.uplinks_per_leaf)
        self._free_at = [0.0] * n_channels
        self._paths: list = [None] * (n_nodes * n_nodes)

    def _route(self, src: int, dst: int) -> Tuple[int, ...]:
        n, cfg = self.n_nodes, self.config
        src, dst = int(src), int(dst)
        tx, rx = src, n + dst
        lsrc, ldst = src // cfg.leaf_size, dst // cfg.leaf_size
        if lsrc == ldst:
            return tx, rx
        if not self.contention:
            return tx, rx, tx, rx
        u = cfg.uplinks_per_leaf
        n_leaves = -(-n // cfg.leaf_size)
        up = 2 * n + lsrc * u + _route_hash(src, dst, u)
        down = 2 * n + (n_leaves + ldst) * u + _route_hash(dst, src, u)
        return tx, up, down, rx

    def _reserve(self, src: int, dst: int, nbytes: int) -> float:
        """Charge one message on its route's channels; returns the delay
        until it arrives at ``dst``."""
        n = self.n_nodes
        if not 0 <= src < n:
            raise ValueError(f"bad src {src}")
        if not 0 <= dst < n:
            raise ValueError(f"bad dst {dst}")
        if nbytes < 0:
            raise ValueError("negative size")
        cfg = self.config
        now = self.engine.now
        key = src * n + dst
        path = self._paths[key]
        if path is None:
            path = self._paths[key] = self._route(src, dst)
        occupancy = max(nbytes / cfg.effective_bw, cfg.msg_gap_s)

        retry_lat = 0.0
        fs = self._faults
        if fs is not None:
            k = fs.ib_retries()
            if k:
                occupancy *= (k + 1)
                retry_lat = k * fs.plan.ib_retry_timeout_s

        free = self._free_at
        start = now
        for ch in path:
            t = free[ch]
            if t > start:
                start = t
        stats = self.stats
        stats.total_queue_wait_s += start - now
        busy_until = start + occupancy
        for ch in path:
            free[ch] = busy_until

        arrival = (start + occupancy + retry_lat + cfg.wire_latency_s
                   + len(path) * cfg.hop_latency_s)

        stats.messages += 1
        stats.bytes += nbytes
        cross = len(path) == 4
        if cross:
            stats.cross_leaf_messages += 1
        if self._obs_on:
            self._m_messages.inc()
            self._m_bytes.inc(nbytes)
            self._m_wait.observe(start - now)
            if cross:
                self._m_cross.inc()
        return arrival - now

    def transfer(self, src: int, dst: int, nbytes: int, *,
                 kind: str = "data", payload: Any = None) -> Event:
        delay = self._reserve(src, dst, nbytes)
        done = CompletionEvent(self.engine, fabric="ib", op=kind,
                               src=src, dest=dst, nbytes=nbytes)
        self.engine.call_in(delay, self._deliver, src, dst, nbytes, kind,
                            payload, done)
        return done

    def inject(self, src: int, dst: int, nbytes: int, *,
               kind: str = "data", payload: Any = None) -> None:
        self.engine.call_in(self._reserve(src, dst, nbytes), self._deliver,
                            src, dst, nbytes, kind, payload, None)

    def _deliver(self, src: int, dst: int, nbytes: int, kind: str,
                 payload: Any, done: Optional[Event]) -> None:
        receiver = self._receivers[dst]
        if receiver is not None:
            receiver(src, kind, payload, nbytes)
        if done is not None:
            done.succeed(payload)
