"""The four benchmark workloads and the digest of their simulated output.

An operation returns ``(errors, outputs)``: ``errors`` lists every check
that failed (an empty list is a correct operation) and ``outputs`` holds
the simulated results, which :func:`digest` hashes.  Operations raise
only when the simulator itself raises; the driver counts that as a
failed operation too.  Every operation reads a :class:`SimMeter` the
driver resets before it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.instrument import SimMeter

#: The checkout the benchmark runs in: it reads ``goldens/`` there and
#: keeps its scratch files under ``.perfbench-tmp/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")

OpResult = Tuple[List[str], Dict[str, Any]]


def _stats(objs) -> List[Dict[str, Any]]:
    return [dataclasses.asdict(s) for s in objs]


def gups_op(meter: SimMeter, *, seed: int, fabric: str, n_nodes: int,
            table_words: int, n_updates: int, window: int) -> OpResult:
    """Validated GUPS on one fabric with the pooled flow engines."""
    from repro.core.cluster import ClusterSpec
    from repro.kernels import gups

    spec = ClusterSpec(n_nodes=n_nodes, seed=seed, flow_impl="fast")
    out = gups.run_gups(spec, fabric, table_words=table_words,
                        n_updates=n_updates, window=window, validate=True)
    errors = [] if out["valid"] else [
        f"gups-{fabric}: distributed table differs from the serial replay"]
    outputs = {
        "elapsed_s": out["elapsed_s"],
        "mups_total": out["mups_total"],
        "mups_per_pe": out["mups_per_pe"],
        "valid": out["valid"],
        # a valid table equals the serial replay bit for bit, so the
        # replay's parameters identify the table
        "table": [seed, n_nodes, table_words, n_updates],
        "flow": _stats(meter.flow_stats),
        "ib": _stats(meter.ib_stats),
        "events": meter.events,
    }
    return errors, outputs


def goldens_op(meter: SimMeter, *, figs: Optional[List[str]] = None,
               golden_root: str = os.path.join(ROOT, "goldens")
               ) -> OpResult:
    """The golden figures (all of them by default) cold, then warm,
    through one serial executor and a fresh result cache, each compared
    with its committed golden."""
    from repro.exec import Executor, ResultCache
    from repro.golden import harness, policy
    from repro.golden.store import GoldenStore

    figs = list(figs or sorted(harness.GOLDEN_CONFIGS))
    os.makedirs(SCRATCH, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=SCRATCH)
    try:
        cache = ResultCache(cache_dir)
        executor = Executor(cache=cache)
        cold = harness.run_goldens(figs, executor=executor)
        warm = harness.run_goldens(figs, executor=executor)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    errors: List[str] = []
    if cache.hits != len(figs):
        errors.append(f"goldens: warm pass hit the cache {cache.hits} "
                      f"times for {len(figs)} figures")
    store = GoldenStore(golden_root)
    for fig, table in cold.items():
        expected, _entry = store.load(fig, harness.GOLDEN_CONFIGS[fig])
        if expected is None:
            errors.append(f"{fig}: no committed golden")
            continue
        diffs = policy.compare_tables(fig, expected, table)
        if diffs:
            errors.append(f"{fig}: {len(diffs)} cell(s) differ from the "
                          f"golden, first: {diffs[0].describe()}")
        if warm[fig].to_dict() != table.to_dict():
            errors.append(f"{fig}: warm table differs from cold table")
    outputs = {
        "tables": {fig: t.to_dict() for fig, t in cold.items()},
        "flow": _stats(meter.flow_stats),
        "ib": _stats(meter.ib_stats),
        "events": meter.events,
    }
    return errors, outputs


def switch_op(meter: SimMeter, *, seed: int, heights: List[int],
              per_port: int) -> OpResult:
    """Saturated uniform drains of the vectorised cycle switch across
    sizes, plus the reference switch's flow-vs-cycle drift scenarios."""
    from repro.core.scaling import switch_scale_point
    from repro.golden.drift import measure_scenarios

    points = [switch_scale_point(h, per_port=per_port, seed=seed)
              for h in heights]
    drift = measure_scenarios()
    errors = [
        f"switch {i}: {s.ejected} of {s.injected} packets ejected, "
        f"{s.dropped} dropped"
        for i, s in enumerate(meter.switch_stats)
        if s.ejected != s.injected or s.dropped or not s.injected]
    outputs = {
        "points": points,
        "drift": drift,
        "switches": _stats(meter.switch_stats),
        "flow_err": flow_err(drift),
    }
    return errors, outputs


def flow_err(drift: Dict[str, Dict[str, Any]]) -> float:
    """Largest |relative error| of the flow model against the cycle
    switch over the drift scenarios (simulated)."""
    return max(abs(s["rel_err"]) for s in drift.values())


def _plain(obj: Any) -> Any:
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(outputs: Dict[str, Any]) -> str:
    """SHA-256 of the simulated outputs; floats enter with every bit."""
    if "table" in outputs:
        from repro.kernels.gups import serial_gups_table
        outputs = dict(outputs)
        outputs["table"] = hashlib.sha256(
            serial_gups_table(*outputs["table"]).tobytes()).hexdigest()
    text = json.dumps(outputs, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    """One named workload: its operation and parameters, and whether it
    takes the benchmark seed.  ``tiny`` overrides shrink it to a
    fraction of a second: the warm-up before timing, and the tests."""

    name: str
    op: Callable[..., OpResult]
    params: Dict[str, Any]
    tiny: Dict[str, Any]
    seeded: bool = True

    def bind(self, seed: int) -> Callable[[SimMeter], OpResult]:
        params = dict(self.params, seed=seed) if self.seeded else self.params
        return lambda meter: self.op(meter, **params)

    def shrunk(self) -> "Workload":
        return dataclasses.replace(self, params={**self.params, **self.tiny})


#: GUPS at 256 nodes with the scale-out sweep's parameters
#: (``core.scaling.scaleout_params``), pinned here so that the workload
#: does not move when the sweep's defaults do.
_GUPS_256 = {"n_nodes": 256, "table_words": 4096, "n_updates": 128,
             "window": 256}

_GUPS_TINY = {"n_nodes": 8, "table_words": 256, "n_updates": 64,
              "window": 32}

#: Why each workload is here: see README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("gups-mpi-256", gups_op, {"fabric": "mpi", **_GUPS_256},
             _GUPS_TINY),
    Workload("gups-dv-256", gups_op, {"fabric": "dv", **_GUPS_256},
             _GUPS_TINY),
    Workload("goldens", goldens_op, {}, {"figs": ["fig4", "fig6a"]},
             seeded=False),
    Workload("switch-calib", switch_op,
             {"heights": [32, 64, 128, 256], "per_port": 64},
             {"heights": [4, 8], "per_port": 8}),
)}
