"""Flow-model-vs-cycle-model calibration drift, tracked over PRs.

The benchmark figures run on the flow-level network model, in the
pooled engine every cluster builds (:mod:`repro.dv.fastflow`, which
this module measures); its contract with the cycle-accurate switch is
pinned by tests (``tests/test_dv_flow_vs_cycle.py``) but only as
pass/fail bounds — a PR can walk the calibration error right up to a
bound without anyone noticing.  This module measures that error as a
number and appends it to an **append-only JSON-lines series**
(``goldens/drift.jsonl``, one record per ``repro verify --record``),
so the error's trajectory across PRs is a committed, diffable artifact.

Three canonical traffic scenarios are measured, each standing in for
the figures whose traffic it resembles:

* ``unloaded_latency`` — one packet through an otherwise idle switch
  (small-message latency: fig3a small sizes, fig4 barriers);
* ``hotspot_drain`` — every port sends to one destination (GUPS-like
  contended updates: fig6a);
* ``uniform_drain`` — saturating uniform-random traffic (all-to-all
  and irregular exchange: fig7, fig8).

Each scenario reports the flow model's predicted completion time, the
cycle switch's measured one, and the signed relative error
``(flow - cycle) / cycle``.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.dv import CycleSwitch, DVConfig, DataVortexTopology
from repro.dv.fastflow import FastFlowNetwork
from repro.sim import Engine

__all__ = [
    "SCENARIO_FIGS", "measure_scenarios", "drift_record",
    "append_record", "load_series", "DRIFT_FILE",
]

#: File name of the series inside the golden store's directory.
DRIFT_FILE = "drift.jsonl"

#: Which figures each calibration scenario vouches for.
SCENARIO_FIGS: Dict[str, List[str]] = {
    "unloaded_latency": ["fig3a", "fig4"],
    "hotspot_drain": ["fig6a"],
    "uniform_drain": ["fig7", "fig8"],
}

_HEIGHT = 8          # 16-port switch: big enough to deflect, fast to run
_ANGLES = 2
_PER_SRC = 32
_SEED = 2017


def _flow_net(n_ports: int, cfg: DVConfig):
    eng = Engine()
    return eng, FastFlowNetwork(eng, cfg, n_ports)


def _unloaded_latency(cfg: DVConfig) -> Dict[str, float]:
    topo = DataVortexTopology(height=_HEIGHT, angles=_ANGLES)
    sw = CycleSwitch(topo)
    src, dst = 0, topo.ports - 1
    sw.inject(src, dst)
    (ej,) = sw.run_until_drained()
    cycle_s = ej.hops * cfg.hop_time_s

    eng, net = _flow_net(topo.ports, cfg)
    got: Dict[str, float] = {}
    net.attach(dst, lambda s, p, n: got.setdefault("t", eng.now))
    net.transmit(src, dst, 1)
    eng.run()
    return {"flow_s": got["t"], "cycle_s": cycle_s}


def _hotspot_drain(cfg: DVConfig) -> Dict[str, float]:
    topo = DataVortexTopology(height=_HEIGHT, angles=_ANGLES)
    sw = CycleSwitch(topo)
    for src in range(topo.ports):
        for _ in range(_PER_SRC):
            sw.inject(src, 0)
    sw.run_until_drained(max_cycles=1_000_000)
    cycle_s = sw.cycle * cfg.hop_time_s

    eng, net = _flow_net(topo.ports, cfg)
    net.attach(0, lambda s, p, n: None)
    for src in range(topo.ports):
        net.transmit(src, 0, _PER_SRC)
    eng.run()
    return {"flow_s": eng.now, "cycle_s": cycle_s}


def _uniform_drain(cfg: DVConfig) -> Dict[str, float]:
    topo = DataVortexTopology(height=_HEIGHT, angles=_ANGLES)
    rng = random.Random(_SEED)
    plan = [(s, rng.randrange(topo.ports))
            for s in range(topo.ports) for _ in range(_PER_SRC)]
    sw = CycleSwitch(topo)
    for s, d in plan:
        sw.inject(s, d)
    sw.run_until_drained(max_cycles=1_000_000)
    cycle_s = sw.cycle * cfg.hop_time_s

    eng, net = _flow_net(topo.ports, cfg)
    for p in range(topo.ports):
        net.attach(p, lambda s, pl, n: None)
    from collections import Counter
    for (s, d), c in Counter(plan).items():
        net.transmit(s, d, c)
    eng.run()
    return {"flow_s": eng.now, "cycle_s": cycle_s}


_SCENARIOS = {
    "unloaded_latency": _unloaded_latency,
    "hotspot_drain": _hotspot_drain,
    "uniform_drain": _uniform_drain,
}


def measure_scenarios(cfg: Optional[DVConfig] = None
                      ) -> Dict[str, Dict[str, Any]]:
    """Run every calibration scenario; deterministic for a fixed
    config (seeded traffic, simulated time only)."""
    cfg = cfg or DVConfig(height=_HEIGHT, angles=_ANGLES)
    out: Dict[str, Dict[str, Any]] = {}
    for name, fn in _SCENARIOS.items():
        r = fn(cfg)
        rel = (r["flow_s"] - r["cycle_s"]) / r["cycle_s"]
        out[name] = {
            "flow_s": r["flow_s"],
            "cycle_s": r["cycle_s"],
            "rel_err": rel,
            "figs": SCENARIO_FIGS[name],
        }
    return out


def drift_record(note: str = "",
                 cfg: Optional[DVConfig] = None) -> Dict[str, Any]:
    """One series entry: version + wall-clock stamp + all scenarios."""
    rec: Dict[str, Any] = {
        "version": __version__,
        "recorded_unix": int(time.time()),
        "scenarios": measure_scenarios(cfg),
    }
    if note:
        rec["note"] = note
    return rec


def _series_path(root: str) -> str:
    return os.path.join(root, DRIFT_FILE)


def append_record(root: str, record: Dict[str, Any]) -> str:
    """Append one record to the series (never rewrites old entries)."""
    os.makedirs(root, exist_ok=True)
    path = _series_path(root)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True))
        fh.write("\n")
    return path


def load_series(root: str) -> List[Dict[str, Any]]:
    """Every parseable record, oldest first (corrupt lines skipped)."""
    path = _series_path(root)
    out: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(json.loads(line))
                except ValueError:
                    continue
    except OSError:
        pass
    return out
