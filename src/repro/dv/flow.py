"""Flow-level Data Vortex network model for long benchmark runs.

The cycle-accurate switch (:mod:`repro.dv.switch`) is exact but costs one
Python iteration per node per cycle — far too slow for benchmarks that
move millions of packets.  :class:`FlowNetwork` replaces it inside the
discrete-event cluster simulation with a conservative analytic model that
keeps the three effects that matter at application level:

1. **injection serialisation** — a port injects at most one packet per
   hop cycle (this is what makes "source aggregation" effective);
2. **ejection serialisation** — a port ejects at most one packet per hop
   cycle, so many-to-one traffic queues *in the network* exactly as the
   deflection fabric would absorb it;
3. **time of flight** — ``min_hops(src, dest) * hop_time`` plus a
   load-dependent deflection penalty (paper §II: "statistically by two
   hops").

``tests/test_dv_flow_vs_cycle.py`` checks this model against the cycle
switch on small configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.dv.config import DVConfig
from repro.dv.topology import DataVortexTopology
from repro.dv.vic import FifoPush, MemWrite
from repro.faults import injector as fltreg
from repro.obs import registry as obsreg
from repro.sim.engine import Engine
from repro.sim.events import CompletionEvent, Event

#: Signature of a port receiver: ``(src_port, payload, n_packets)``.
Receiver = Callable[[int, Any, int], None]


def apply_flow_faults(fsite, effect, src: int, dest: int,
                      sent_at: float, now: float):
    """Degrade a delivered data batch per the installed FaultPlan.

    Only data-bearing effects (MemWrite/FifoPush) are degraded; control
    packets (counter ops, queries, timing-only payloads) are modelled as
    protected by link-level CRC retry, so barriers and counters stay
    live under faults.  Returns the surviving effect, or None when the
    entire batch was lost.  Shared by the reference and fast flow
    engines — the RNG draw sequence per delivery is part of the
    bit-identity contract between them.
    """
    if fsite.has_outages and (fsite.link_down(src, sent_at)
                              or fsite.link_down(dest, now)):
        return None
    if isinstance(effect, MemWrite):
        addrs = np.atleast_1d(np.asarray(effect.addrs))
        values = np.atleast_1d(np.asarray(effect.values, np.uint64))
        mask = fsite.keep_mask(addrs.size)
        if mask is not None:
            addrs = addrs[mask]
            values = values[mask]
            if addrs.size == 0:
                return None
        corrupted = fsite.corrupt_values(values)
        if corrupted is not None:
            values = corrupted
        if mask is None and corrupted is None:
            return effect
        return MemWrite(addrs=addrs, values=values,
                        counter=effect.counter)
    values = np.atleast_1d(np.asarray(effect.values, np.uint64))
    mask = fsite.keep_mask(values.size)
    if mask is not None:
        values = values[mask]
        if values.size == 0:
            return None
    corrupted = fsite.corrupt_values(values)
    if corrupted is not None:
        values = corrupted
    if mask is None and corrupted is None:
        return effect
    return FifoPush(values=values, counter=effect.counter)


@dataclass
class FlowStats:
    """Aggregate accounting for a :class:`FlowNetwork`."""

    packets_sent: int = 0
    transfers: int = 0
    total_injection_wait_s: float = 0.0
    total_ejection_wait_s: float = 0.0


class FlowNetwork:
    """Flow-level model of one Data Vortex switch.

    Parameters
    ----------
    engine:
        Discrete-event engine that owns time.
    config:
        Timing constants; the topology is sized from it (scaled up to
        cover ``n_ports`` if needed).
    n_ports:
        Number of attached VICs.
    """

    def __init__(self, engine: Engine, config: DVConfig,
                 n_ports: int) -> None:
        if n_ports < 1:
            raise ValueError("need at least one port")
        cfg = config.scaled_to_ports(n_ports)
        self.engine = engine
        self.config = cfg
        self.topo = DataVortexTopology(height=cfg.height, angles=cfg.angles)
        self.n_ports = n_ports
        self._receivers: List[Optional[Receiver]] = [None] * n_ports
        #: earliest time each port can inject / eject its next packet
        self._inject_free = [0.0] * n_ports
        self._eject_free = [0.0] * n_ports
        # incremental busy-port tracking for _load(): a min-heap of
        # (inject_free, port) marks plus a per-port busy flag, so the
        # load estimate costs amortised O(log ports) per transfer
        # instead of rescanning every port (lazy deletion: superseded
        # heap entries are skipped when popped).
        self._busy_heap: List[tuple] = []
        self._port_busy = [False] * n_ports
        self._busy_ports = 0
        self.stats = FlowStats()
        self._faults = fltreg.site("dv.flow")
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_packets = obsreg.counter("dv.flow.packets")
            self._m_transfers = obsreg.counter("dv.flow.transfers")
            self._m_inj_wait = obsreg.histogram("dv.flow.injection_wait_s")
            self._m_ej_wait = obsreg.histogram("dv.flow.ejection_wait_s")

    # -- wiring ---------------------------------------------------------------
    def attach(self, port: int, receiver: Receiver) -> None:
        """Connect ``receiver`` to ``port``; called once per VIC."""
        if self._receivers[port] is not None:
            raise ValueError(f"port {port} already attached")
        self._receivers[port] = receiver

    # -- load estimate ----------------------------------------------------------
    def _load(self, now: float) -> float:
        """Fraction of ports currently busy injecting (deflection driver).

        A port is busy while ``_inject_free[port] > now``.  Expired heap
        marks are retired lazily; ``now`` never decreases between calls
        (all callers pass ``engine.now``), so each mark is popped once.
        """
        heap = self._busy_heap
        while heap and heap[0][0] <= now:
            _, port = heappop(heap)
            if self._port_busy[port] and self._inject_free[port] <= now:
                self._port_busy[port] = False
                self._busy_ports -= 1
        return self._busy_ports / self.n_ports

    # -- fault injection -------------------------------------------------------
    def _apply_faults(self, fsite, effect, src: int, dest: int,
                      sent_at: float):
        """See :func:`apply_flow_faults` (shared with the fast engine)."""
        return apply_flow_faults(fsite, effect, src, dest, sent_at,
                                 self.engine.now)

    def time_of_flight(self, src: int, dest: int, now: float) -> float:
        """Latency of the first packet of a transfer entering at ``now``."""
        hops = self.topo.min_hops(src, dest)
        penalty = self.config.deflection_hops_per_load * self._load(now)
        return (hops + penalty) * self.config.hop_time_s

    # -- transfers -----------------------------------------------------------
    def transmit(self, src: int, dest: int, n_packets: int,
                 payload: Any = None, inject_rate: Optional[float] = None,
                 ) -> Event:
        """Send ``n_packets`` fine-grained packets from ``src`` to ``dest``.

        Returns an event that fires when the *last* packet has been
        ejected at the destination; at that moment the destination's
        receiver callback is invoked with ``(src, payload, n_packets)``.

        ``inject_rate`` (packets/s) caps injection below the switch line
        rate — used when the PCIe side, not the network, feeds the VIC
        slower than one packet per hop cycle.
        """
        if not 0 <= src < self.n_ports:
            raise ValueError(f"bad src port {src}")
        if not 0 <= dest < self.n_ports:
            raise ValueError(f"bad dest port {dest}")
        if n_packets < 1:
            raise ValueError("n_packets must be >= 1")

        now = self.engine.now
        hop = self.config.hop_time_s
        gap = max(hop, 1.0 / inject_rate) if inject_rate else hop

        # 1. injection serialisation at the source port (reserved now:
        # the sender's VIC owns its own port)
        inj_start = max(now, self._inject_free[src])
        self.stats.total_injection_wait_s += inj_start - now
        inj_end = inj_start + n_packets * gap
        self._inject_free[src] = inj_end
        if not self._port_busy[src]:
            self._port_busy[src] = True
            self._busy_ports += 1
        heappush(self._busy_heap, (inj_end, src))

        # 2. time of flight of the first packet
        tof = self.time_of_flight(src, dest, now)
        first_arrival = inj_start + gap + tof

        self.stats.packets_sent += n_packets
        self.stats.transfers += 1
        if self._obs_on:
            self._m_packets.inc(n_packets)
            self._m_transfers.inc()
            self._m_inj_wait.observe(inj_start - now)

        done = CompletionEvent(
            self.engine, fabric="dv", op="transmit", src=src, dest=dest,
            words=n_packets, name=f"dv:tx {src}->{dest} x{n_packets}")
        receiver = self._receivers[dest]
        fsite = self._faults
        sent_at = now

        # 3. ejection serialisation at the destination port, reserved at
        # *arrival* time — not at call time — so streams claim the port
        # in causal order (a transfer scheduled later but arriving
        # earlier must not queue behind one that merely reserved first).
        def _reserve(_ev: Event) -> None:
            t = self.engine.now
            ej_start = max(t, self._eject_free[dest])
            self.stats.total_ejection_wait_s += ej_start - t
            if self._obs_on:
                self._m_ej_wait.observe(ej_start - t)
            # the stream cannot eject faster than it was injected
            ej_end = max(ej_start + (n_packets - 1) * hop,
                         inj_end + tof)
            self._eject_free[dest] = ej_end

            def _deliver(_ev2: Event) -> None:
                eff = payload
                if fsite is not None and isinstance(eff,
                                                    (MemWrite, FifoPush)):
                    eff = self._apply_faults(fsite, eff, src, dest, sent_at)
                    if eff is None:
                        # the whole batch was lost on the fabric; the
                        # transfer still "completes" from the sender's
                        # perspective (sends are one-sided and
                        # fire-and-forget) — recovering lost data is the
                        # reliable transport's job, not the network's
                        done.succeed(payload)
                        return
                if receiver is not None:
                    receiver(src, eff, n_packets)
                done.succeed(payload)

            marker2 = self.engine.event(name="dv:eject")
            marker2.add_callback(_deliver)
            marker2._ok = True
            marker2._value = None
            self.engine._enqueue(marker2, delay=ej_end - t)

        marker = self.engine.event(name="dv:arrive")
        marker.add_callback(_reserve)
        marker._ok = True
        marker._value = None
        self.engine._enqueue(marker, delay=first_arrival - now)
        return done

    def transmit_batch(self, src: int, dests: Sequence[int],
                       counts: Sequence[int], payloads: Sequence[Any],
                       inject_rate: Optional[float] = None,
                       collect: bool = True) -> List[Event]:
        """Send per-destination packet groups back to back from ``src``.

        Semantically identical to calling :meth:`transmit` once per
        group, in order, at the current instant — which is exactly what
        this reference implementation does.  The fast engine overrides
        it with a vectorised path; kernels that fan one host batch out
        to many destinations (GUPS epochs, counter exchanges) should
        call this instead of looping so they pick the fast path up
        automatically.

        Returns the per-group completion events when ``collect`` is
        true.  ``collect=False`` declares the caller fire-and-forget
        (nothing will ever wait on the per-group events) and returns
        ``[]``; the fast engine uses that licence to skip completion
        bookkeeping entirely.
        """
        if not (len(dests) == len(counts) == len(payloads)):
            raise ValueError("dests, counts, payloads must align")
        events = [
            self.transmit(src, int(d), int(c), payload=p,
                          inject_rate=inject_rate)
            for d, c, p in zip(dests, counts, payloads)
        ]
        return events if collect else []

    def scatter(self, src: int, dests: Sequence[int],
                counts: Sequence[int], payloads: Sequence[Any],
                inject_rate: Optional[float] = None) -> Event:
        """Send per-destination packet groups from one source.

        Models the paper's "source aggregation" pattern: the host batches
        packets bound for *many* destinations into one PCIe transfer; the
        VIC then streams them into the switch back to back.  Injection is
        serialised across the whole batch; ejection is serialised per
        destination.  Returns an event firing when every group has been
        delivered, with the groups' payloads in group order as its value
        — exactly an ``all_of`` over :meth:`transmit_batch`'s per-group
        events, which is how this reference engine builds it.
        """
        return self._scatter(src, dests, counts, payloads, inject_rate)

    def _scatter(self, src: int, dests: Sequence[int],
                 counts: Sequence[int], payloads: Sequence[Any],
                 inject_rate: Optional[float]) -> Event:
        # The engine-specific half of scatter: the fast engine replaces
        # the per-group events with one countdown join.  Engines
        # override this hook, not ``scatter``, so every scatter enters
        # through one public ``FlowNetwork.scatter`` (perfbench's tracer
        # counts packets by the qualified name of that outermost call).
        events = self.transmit_batch(src, dests, counts, payloads,
                                     inject_rate=inject_rate)
        return self.engine.all_of(events)
