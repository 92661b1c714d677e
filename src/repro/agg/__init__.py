"""Destination-coalescing aggregation runtime (docs/aggregation.md).

Public surface: :class:`AggSpec` (hand it to
``ClusterSpec(aggregation=...)``), the scoped :func:`session` override
(mirrors :func:`repro.faults.session`), and :func:`resolve_spec`, which
the traffic-aware kernels consult.  The frame/channel machinery lives
in :mod:`repro.agg.runtime`; the ``fig_agg`` watermark-by-skew sweep in
:mod:`repro.agg.experiments`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.agg.spec import ROUTINGS, AggSpec

__all__ = ["AggSpec", "ROUTINGS", "session", "resolve_spec"]

# Scoped aggregation override, consulted by run_gups/run_bfs when the
# cluster spec leaves aggregation=None.  Like faults.session, it is a
# single process-wide slot.
_SESSION_SPEC: Optional[AggSpec] = None


@contextmanager
def session(spec: Optional[AggSpec]):
    """Scoped aggregation override restoring the previous value.

    Lets the golden harness's ``agg`` axis aggregate existing
    experiment entry points without threading a parameter through
    every call site.  ``spec=None`` yields an aggregation-free scope.

    Nesting a second non-None session raises — the inner workload
    would silently aggregate under the outer scope's spec.
    """
    global _SESSION_SPEC
    if spec is not None and not isinstance(spec, AggSpec):
        raise TypeError(
            f"session spec must be an AggSpec or None, "
            f"got {type(spec).__name__}")
    if spec is not None and _SESSION_SPEC is not None:
        raise RuntimeError(
            "nested anonymous agg.session: the scoped aggregation "
            "override is single-occupancy")
    prev = _SESSION_SPEC
    _SESSION_SPEC = spec
    try:
        yield _SESSION_SPEC
    finally:
        _SESSION_SPEC = prev


def resolve_spec(explicit: Optional[AggSpec]) -> Optional[AggSpec]:
    """The aggregation spec in force: an explicit
    ``ClusterSpec.aggregation`` wins, then the session override;
    otherwise ``None`` (every legacy path, byte-for-byte)."""
    if explicit is not None:
        return explicit
    return _SESSION_SPEC
