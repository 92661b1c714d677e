"""Fat-tree InfiniBand fabric with static-routing contention.

Geometry: ``leaf_size`` nodes per leaf switch, all leaves joined through a
spine.  Each message follows node-tx -> (leaf uplink -> leaf downlink, if
it crosses leaves) -> node-rx.  The uplink a flow takes is a *static* hash
of (src, dst) — as with real IB static routing, two flows between
different node pairs can collide on one uplink while others idle, which is
the effect that degrades unstructured (irregular) traffic on fat trees
(paper §VIII, ref [33]).

Channels are modelled as next-free-time accumulators (cut-through: a
message's serialisation time is charged once, concurrently on every
channel along its path).  Clusters run it through
:class:`~repro.ib.fastfabric.FastIBFabric`; this class is its base and
the test oracle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults import injector as fltreg
from repro.ib.config import IBConfig
from repro.obs import registry as obsreg
from repro.sim.engine import Engine
from repro.sim.events import CompletionEvent, Event

#: Receiver callback signature: (src, kind, payload, nbytes)
Receiver = Callable[[int, str, Any, int], None]


@dataclass
class FabricStats:
    """Aggregate fabric accounting."""

    messages: int = 0
    bytes: int = 0
    cross_leaf_messages: int = 0
    total_queue_wait_s: float = 0.0


def _route_hash(src: int, dst: int, n: int) -> int:
    """Deterministic static-routing uplink choice for the (src, dst) flow."""
    h = hashlib.blake2b(f"{src}->{dst}".encode(), digest_size=4)
    return int.from_bytes(h.digest(), "little") % n


class IBFabric:
    """The simulated IB fat tree connecting ``n_nodes`` HCAs."""

    def __init__(self, engine: Engine, config: IBConfig, n_nodes: int,
                 contention: bool = True) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.engine = engine
        self.config = config
        self.n_nodes = n_nodes
        #: disable to model an ideal non-blocking crossbar (ablation)
        self.contention = contention
        self._free: Dict[Tuple, float] = {}
        self._receivers: List[Optional[Receiver]] = [None] * n_nodes
        self.stats = FabricStats()
        # IB loses no messages: link-level CRC errors are retried by the
        # HCA, so a FaultPlan shows up as latency, not loss
        self._faults = fltreg.site("ib.fabric")
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_messages = obsreg.counter("ib.fabric.messages")
            self._m_bytes = obsreg.counter("ib.fabric.bytes")
            self._m_cross = obsreg.counter("ib.fabric.cross_leaf_messages")
            self._m_wait = obsreg.histogram("ib.fabric.queue_wait_s")

    # -- wiring ---------------------------------------------------------------
    def attach(self, node: int, receiver: Receiver) -> None:
        if self._receivers[node] is not None:
            raise ValueError(f"node {node} already attached")
        self._receivers[node] = receiver

    def leaf_of(self, node: int) -> int:
        return node // self.config.leaf_size

    def _path(self, src: int, dst: int) -> List[Tuple]:
        """Channel keys along the route."""
        path: List[Tuple] = [("tx", src)]
        lsrc, ldst = self.leaf_of(src), self.leaf_of(dst)
        if lsrc != ldst:
            if self.contention:
                up = _route_hash(src, dst, self.config.uplinks_per_leaf)
                down = _route_hash(dst, src, self.config.uplinks_per_leaf)
            else:
                # ideal crossbar: a private channel per flow
                up = down = ("flow", src, dst)
            path.append(("up", lsrc, up))
            path.append(("down", ldst, down))
        path.append(("rx", dst))
        return path

    def hops(self, src: int, dst: int) -> int:
        """Switch hops traversed (2 within a leaf, 4 across the spine)."""
        return 2 if self.leaf_of(src) == self.leaf_of(dst) else 4

    # -- transfers -----------------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: int, *,
                 kind: str = "data", payload: Any = None) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Returns an event firing on arrival at ``dst``; the destination's
        receiver callback (if attached) is invoked with
        ``(src, kind, payload, nbytes)`` at that time.
        """
        if not 0 <= src < self.n_nodes:
            raise ValueError(f"bad src {src}")
        if not 0 <= dst < self.n_nodes:
            raise ValueError(f"bad dst {dst}")
        if nbytes < 0:
            raise ValueError("negative size")
        cfg = self.config
        now = self.engine.now
        path = self._path(src, dst)
        occupancy = max(nbytes / cfg.effective_bw, cfg.msg_gap_s)

        retry_lat = 0.0
        fs = self._faults
        if fs is not None:
            k = fs.ib_retries()
            if k:
                # each retry re-serialises the message on its channels
                # and waits out the HCA's retransmission timeout
                occupancy *= (k + 1)
                retry_lat = k * fs.plan.ib_retry_timeout_s

        start = now
        for ch in path:
            start = max(start, self._free.get(ch, 0.0))
        self.stats.total_queue_wait_s += start - now
        for ch in path:
            self._free[ch] = start + occupancy

        arrival = (start + occupancy + retry_lat + cfg.wire_latency_s
                   + self.hops(src, dst) * cfg.hop_latency_s)

        self.stats.messages += 1
        self.stats.bytes += nbytes
        cross = self.leaf_of(src) != self.leaf_of(dst)
        if cross:
            self.stats.cross_leaf_messages += 1
        if self._obs_on:
            self._m_messages.inc()
            self._m_bytes.inc(nbytes)
            self._m_wait.observe(start - now)
            if cross:
                self._m_cross.inc()

        done = CompletionEvent(
            self.engine, fabric="ib", op=kind, src=src, dest=dst,
            nbytes=nbytes, name=f"ib:{kind} {src}->{dst}")
        receiver = self._receivers[dst] if dst < len(self._receivers) else None

        def _deliver(_ev: Event) -> None:
            if receiver is not None:
                receiver(src, kind, payload, nbytes)
            done.succeed(payload)

        marker = self.engine.event(name="ib:arrive")
        marker.add_callback(_deliver)
        marker._ok = True
        marker._value = None
        self.engine._enqueue(marker, delay=arrival - now)
        return done

    def inject(self, src: int, dst: int, nbytes: int, *,
               kind: str = "data", payload: Any = None) -> None:
        """:meth:`transfer` for a sender that never waits on arrival.

        The receiver callback runs exactly as for :meth:`transfer`; no
        completion is returned.  Here it *is* :meth:`transfer` with the
        event dropped, so the oracle's schedule is untouched.  The fast
        fabric creates no event at all: the completion had no observers,
        so skipping its no-op heap entry leaves every other event in the
        same relative order.  That holds too where the chained alltoall
        asks :meth:`Engine.peek` whether to replay a zero-delay pass
        (``_Exchange._replay_passes``): the only events a pass it now
        skips would have ordered the rank against are those no-ops.
        """
        self.transfer(src, dst, nbytes, kind=kind, payload=payload)
