"""Per-tenant views over the shared fabrics.

A tenant's kernels run in *local* rank space ``[0, n_ranks)`` and are
built from unmodified machinery — a plain
:class:`~repro.dv.api.DataVortexAPI` over a :class:`TenantVICView` and a
:class:`TenantNetworkView`, or a plain
:class:`~repro.ib.mpi.MPIRuntime` over a :class:`TenantFabricView`.
The views translate ranks by the partition's base offset at the network
boundary, enforce the partition's counter / DV-memory windows on every
payload that names one (raising
:class:`~repro.tenancy.spec.TenantIsolationError` on escape), and count
per-tenant ``tenant.net.*`` obs series alongside the cluster-wide ones.

Nothing else is wrapped: the real switch, the real VIC hardware and the
real fat tree serve every tenant, so co-scheduled tenants contend for
injection ports, switch load and spine uplinks exactly as one workload
would.  With a single tenant based at rank 0 and default (full-range)
windows, every translation is the identity and every check passes — the
solo path is bit-identical to the untenanted one, which the ``tenancy``
determinism axis pins on every golden figure.
"""

from __future__ import annotations

from collections import deque
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.dv.vic import CounterDec, CounterSet, FifoPush, MemWrite, Query
from repro.obs import registry as obsreg
from repro.sim.events import CompletionEvent, Event
from repro.tenancy.spec import TenancyError, TenantIsolationError, TenantPartition

__all__ = [
    "TenantNetworkView",
    "TenantVICView",
    "TenantFabricView",
]


# ------------------------------------------------------------- DV guards ---

class _GuardedCounters:
    """Group-counter view that rejects indices outside the partition."""

    __slots__ = ("_real", "_allowed", "_tenant")

    def __init__(self, real, allowed: frozenset, tenant_id: str) -> None:
        self._real = real
        self._allowed = allowed
        self._tenant = tenant_id

    def _check(self, idx: int) -> None:
        if idx not in self._allowed:
            raise TenantIsolationError(
                f"tenant {self._tenant!r}: counter {idx} outside its "
                "partition window")

    def value(self, idx: int) -> int:
        self._check(idx)
        return self._real.value(idx)

    def set(self, idx: int, value: int) -> None:
        self._check(idx)
        self._real.set(idx, value)

    def decrement(self, idx: int, n: int = 1) -> None:
        self._check(idx)
        self._real.decrement(idx, n)

    def wait_zero(self, idx: int):
        self._check(idx)
        return self._real.wait_zero(idx)

    def zero_mask(self):
        return self._real.zero_mask()

    def user_counters(self):
        return self._real.user_counters()

    def __getattr__(self, name: str):
        return getattr(self._real, name)


class _GuardedMemory:
    """DV-memory view that rejects addresses outside the partition."""

    __slots__ = ("_real", "_lo", "_hi", "_tenant")

    def __init__(self, real, lo: int, hi: int, tenant_id: str) -> None:
        self._real = real
        self._lo = lo
        self._hi = hi
        self._tenant = tenant_id

    def _check(self, lo: int, hi: int) -> None:
        if lo < self._lo or hi > self._hi:
            raise TenantIsolationError(
                f"tenant {self._tenant!r}: DV-memory access [{lo}, {hi}) "
                f"outside its window [{self._lo}, {self._hi})")

    def _check_addrs(self, addrs) -> None:
        a = np.asarray(addrs)
        if a.size:
            self._check(int(a.min()), int(a.max()) + 1)

    def read_word(self, addr: int) -> int:
        self._check(addr, addr + 1)
        return self._real.read_word(addr)

    def write_word(self, addr: int, value: int) -> None:
        self._check(addr, addr + 1)
        self._real.write_word(addr, value)

    def scatter(self, addrs, values) -> None:
        self._check_addrs(addrs)
        self._real.scatter(addrs, values)

    def gather(self, addrs):
        self._check_addrs(addrs)
        return self._real.gather(addrs)

    def write_range(self, start: int, values) -> None:
        self._check(start, start + int(np.asarray(values).size))
        self._real.write_range(start, values)

    def read_range(self, start: int, n: int):
        self._check(start, start + n)
        return self._real.read_range(start, n)

    def __getattr__(self, name: str):
        return getattr(self._real, name)


class TenantVICView:
    """A VIC as one tenant sees it: local identity, guarded resources.

    ``vic_id`` is the tenant-*local* rank, so a plain
    :class:`~repro.dv.api.DataVortexAPI` built over this view runs
    entirely in local rank space.  Counters and DV memory are guarded;
    the FIFO and PCIe bus are the real per-node devices (they are
    private to the node, hence to the tenant owning it).
    """

    def __init__(self, vic, partition: TenantPartition,
                 local_rank: int) -> None:
        self._real = vic
        self.engine = vic.engine
        self.config = vic.config
        self.vic_id = local_rank
        self.counters = _GuardedCounters(
            vic.counters, partition.allowed_counters, partition.tenant_id)
        self.memory = _GuardedMemory(
            vic.memory, partition.mem_lo, partition.mem_hi,
            partition.tenant_id)
        self.fifo = vic.fifo
        self.pcie = vic.pcie

    @property
    def packets_received(self) -> int:
        return self._real.packets_received

    def __getattr__(self, name: str):
        return getattr(self._real, name)


class TenantNetworkView:
    """A flow network restricted to one tenant's rank window.

    Ranks on both sides of :meth:`transmit` / :meth:`transmit_batch` are
    tenant-local; the view translates them by the partition base,
    bounds-checks destinations against the window, validates every
    effect payload against the counter / memory windows, and rewrites
    ``Query.reply_vic`` (the only payload field naming a rank) to global
    space.  Everything else delegates to the real network.
    """

    def __init__(self, network, partition: TenantPartition) -> None:
        self._net = network
        self._part = partition
        self._base = partition.base
        self._n = partition.n_ranks
        tid = partition.tenant_id
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_transfers = obsreg.counter(
                "tenant.net.transfers", tenant=tid)
            self._m_packets = obsreg.counter(
                "tenant.net.packets", tenant=tid)

    # -- rank / payload validation ----------------------------------------
    def _xlate(self, rank: int, role: str) -> int:
        if not 0 <= rank < self._n:
            raise TenantIsolationError(
                f"tenant {self._part.tenant_id!r}: {role} rank {rank} "
                f"outside its {self._n}-rank window")
        return rank + self._base

    def _check_payload(self, payload: Any) -> Any:
        if payload is None:
            return None
        if isinstance(payload, MemWrite):
            self._check_addrs(payload.addrs)
            self._check_counter(payload.counter)
        elif isinstance(payload, FifoPush):
            self._check_counter(payload.counter)
        elif isinstance(payload, (CounterDec, CounterSet)):
            self._check_counter(payload.index)
        elif isinstance(payload, Query):
            self._check(payload.addr, payload.addr + 1)
            self._check(payload.reply_addr, payload.reply_addr + 1)
            self._check_counter(payload.reply_counter)
            return Query(
                addr=payload.addr,
                reply_vic=self._xlate(payload.reply_vic, "reply"),
                reply_addr=payload.reply_addr,
                reply_counter=payload.reply_counter)
        return payload

    def _check(self, lo: int, hi: int) -> None:
        part = self._part
        if lo < part.mem_lo or hi > part.mem_hi:
            raise TenantIsolationError(
                f"tenant {part.tenant_id!r}: remote DV-memory access "
                f"[{lo}, {hi}) outside its window "
                f"[{part.mem_lo}, {part.mem_hi})")

    def _check_addrs(self, addrs) -> None:
        a = np.asarray(addrs)
        if a.size:
            self._check(int(a.min()), int(a.max()) + 1)

    def _check_counter(self, idx: Optional[int]) -> None:
        if idx is not None and idx not in self._part.allowed_counters:
            raise TenantIsolationError(
                f"tenant {self._part.tenant_id!r}: remote touch of "
                f"counter {idx} outside its partition window")

    # -- transfers ---------------------------------------------------------
    def transmit(self, src: int, dest: int, n_packets: int,
                 payload: Any = None,
                 inject_rate: Optional[float] = None) -> Event:
        gsrc = self._xlate(src, "source")
        gdest = self._xlate(dest, "destination")
        payload = self._check_payload(payload)
        if self._obs_on:
            self._m_transfers.inc()
            self._m_packets.inc(n_packets)
        return self._net.transmit(gsrc, gdest, n_packets, payload,
                                  inject_rate)

    def _xlate_batch(self, src: int, dests: Sequence[int],
                     counts: Sequence[int], payloads: Sequence[Any]):
        """Isolation checks and translation shared by the batch sends."""
        gsrc = self._xlate(src, "source")
        d = np.asarray(dests, dtype=np.int64)
        if d.size and (d.min() < 0 or d.max() >= self._n):
            bad = int(d[(d < 0) | (d >= self._n)][0])
            raise TenantIsolationError(
                f"tenant {self._part.tenant_id!r}: destination rank "
                f"{bad} outside its {self._n}-rank window")
        payloads = [self._check_payload(p) for p in payloads]
        if self._obs_on:
            self._m_transfers.inc(len(payloads))
            self._m_packets.inc(int(np.asarray(counts).sum()))
        return gsrc, d + self._base, payloads

    def transmit_batch(self, src: int, dests: Sequence[int],
                       counts: Sequence[int], payloads: Sequence[Any],
                       inject_rate: Optional[float] = None,
                       collect: bool = True) -> List[Event]:
        gsrc, gdests, payloads = self._xlate_batch(src, dests, counts,
                                                   payloads)
        return self._net.transmit_batch(gsrc, gdests, counts, payloads,
                                        inject_rate=inject_rate,
                                        collect=collect)

    def scatter(self, src: int, dests: Sequence[int],
                counts: Sequence[int], payloads: Sequence[Any],
                inject_rate: Optional[float] = None) -> Event:
        gsrc, gdests, payloads = self._xlate_batch(src, dests, counts,
                                                   payloads)
        return self._net.scatter(gsrc, gdests, counts, payloads,
                                 inject_rate=inject_rate)

    def time_of_flight(self, src: int, dest: int, now: float) -> float:
        return self._net.time_of_flight(src + self._base,
                                        dest + self._base, now)

    def attach(self, port: int, receiver) -> None:
        raise TenancyError(
            "tenant network views do not own port attachment; VICs "
            "attach to the real network at construction")

    def __getattr__(self, name: str):
        return getattr(self._net, name)


# -------------------------------------------------------------- IB view ---

class TenantFabricView:
    """An IB fat tree restricted to one tenant's rank window.

    Translates ranks at :meth:`attach` / :meth:`transfer` /
    :meth:`inject`, counts per-tenant ``tenant.net.messages`` /
    ``tenant.net.bytes``, and — when the partition carries an
    ``ib_credits`` budget — caps the tenant's in-flight transfers,
    queueing excess sends behind proxy completion events that fire once
    a credit frees up.  With ``ib_credits=None`` the transfer path is
    pure passthrough.
    """

    def __init__(self, fabric, partition: TenantPartition) -> None:
        self._fabric = fabric
        self._part = partition
        self._base = partition.base
        self._n = partition.n_ranks
        self._credits = partition.ib_credits
        self._inflight = 0
        self._waitq: deque = deque()
        tid = partition.tenant_id
        self._obs_on = obsreg.enabled()
        if self._obs_on:
            self._m_messages = obsreg.counter(
                "tenant.net.messages", tenant=tid)
            self._m_bytes = obsreg.counter("tenant.net.bytes", tenant=tid)

    def _xlate(self, rank: int, role: str) -> int:
        if not 0 <= rank < self._n:
            raise TenantIsolationError(
                f"tenant {self._part.tenant_id!r}: {role} rank {rank} "
                f"outside its {self._n}-rank window")
        return rank + self._base

    def attach(self, node: int, receiver) -> None:
        base = self._base

        def _local_receiver(src, kind, payload, nbytes):
            receiver(src - base, kind, payload, nbytes)

        self._fabric.attach(self._xlate(node, "attach"), _local_receiver)

    def leaf_of(self, node: int) -> int:
        return self._fabric.leaf_of(node + self._base)

    def hops(self, src: int, dst: int) -> int:
        return self._fabric.hops(src + self._base, dst + self._base)

    def _admit(self, src: int, dst: int, nbytes: int) -> Tuple[int, int]:
        """Translate one send's ranks and count it for the tenant."""
        gsrc = self._xlate(src, "source")
        gdst = self._xlate(dst, "destination")
        if self._obs_on:
            self._m_messages.inc()
            self._m_bytes.inc(nbytes)
        return gsrc, gdst

    def transfer(self, src: int, dst: int, nbytes: int, *,
                 kind: str = "data", payload: Any = None) -> Event:
        gsrc, gdst = self._admit(src, dst, nbytes)
        if self._credits is None:
            return self._fabric.transfer(gsrc, gdst, nbytes, kind=kind,
                                         payload=payload)
        if self._inflight < self._credits:
            return self._issue(gsrc, gdst, nbytes, kind, payload)
        proxy = CompletionEvent(
            self._fabric.engine, fabric="ib", op=kind, src=gsrc, dest=gdst,
            nbytes=nbytes, name=f"tenant:{self._part.tenant_id} queued")
        self._waitq.append((proxy, gsrc, gdst, nbytes, kind, payload))
        return proxy

    def inject(self, src: int, dst: int, nbytes: int, *,
               kind: str = "data", payload: Any = None) -> None:
        """:meth:`transfer` without a completion, ranks translated the
        same way.  Under a credit budget it issues through
        :meth:`transfer`, whose completion returns the credit."""
        if self._credits is not None:
            self.transfer(src, dst, nbytes, kind=kind, payload=payload)
            return
        gsrc, gdst = self._admit(src, dst, nbytes)
        self._fabric.inject(gsrc, gdst, nbytes, kind=kind, payload=payload)

    def _issue(self, gsrc: int, gdst: int, nbytes: int, kind: str,
               payload: Any, proxy: Optional[Event] = None) -> Event:
        self._inflight += 1
        ev = self._fabric.transfer(gsrc, gdst, nbytes, kind=kind,
                                   payload=payload)
        if proxy is not None:
            ev.add_callback(lambda e, p=proxy: p.succeed(e.value))
        ev.add_callback(self._release)
        return ev

    def _release(self, _ev: Event) -> None:
        self._inflight -= 1
        if self._waitq:
            proxy, gsrc, gdst, nbytes, kind, payload = self._waitq.popleft()
            self._issue(gsrc, gdst, nbytes, kind, payload, proxy=proxy)

    def __getattr__(self, name: str):
        return getattr(self._fabric, name)
