"""Run one workload for a fixed time and report its metrics.

End-to-end mode (``trace=False``) repeats the workload's operation
until ``seconds`` have passed, with tracing and ``repro.obs`` off, and
reports the ``end_to_end`` metrics of ``BENCHMARK.json``.  Traced mode
runs the operation untraced for half the time, once with ``repro.obs``
on (the counter cross-check), then traced for the rest, and reports the
``per_layer`` metrics.  Every operation's simulated output is hashed;
an operation whose digest differs from the run's first is a failure, so
tracing and observability are shown not to perturb the simulation.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.instrument import (LayerTracer, Patcher, SetupProbeDone,
                                  SimMeter)
from perfbench.workloads import ROOT, SCRATCH, Workload, digest, flow_err

#: Set-up samples a run collects at least; workloads with fewer
#: operations than this add set-up-only probes of one simulation each.
MIN_SETUP_SAMPLES = 7

#: Seconds :func:`_calibration_kernel` takes on the reference host
#: (2-vCPU Xeon at 2.1 GHz, Python 3.11) when no neighbour slows it.
CALIBRATION_REF_S = 0.013


def _calibration_kernel() -> float:
    """A fixed piece of work in the simulator's own instruction mix
    (heap, dict and tuple traffic, small numpy operations) that runs no
    program code; returns its host seconds."""
    t0 = perf_counter()
    heap: List[tuple] = []
    table: Dict[int, tuple] = {}
    arr = np.arange(256)
    for i in range(12000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i & 4095] = (i, i + 1)
        if i & 63 == 0:
            arr = (arr * 3 + 1) % 1021
    while heap:
        heapq.heappop(heap)
    return perf_counter() - t0


def host_speed() -> float:
    """The host's current speed relative to the reference host: the
    calibration kernel's reference time over its measured time (median
    of three).  Shared hosts swing by tens of percent for tens of
    seconds as neighbours come and go; multiplying an operation's host
    seconds by the speed around it removes that swing and keeps every
    change in the program's own cost."""
    return CALIBRATION_REF_S / statistics.median(
        _calibration_kernel() for _ in range(3))


#: Seconds between host-speed samples taken during an operation.
SPEED_SAMPLE_EVERY_S = 2.0


class _SpeedMonitor:
    """Host speed sampled right before an operation, every
    ``every`` seconds while it runs (from a SIGALRM handler; ``None``
    samples only the ends), and right after it.  ``paused`` is the time
    the samples inside took, which the operation's wall time excludes.
    """

    def __init__(self, every: Optional[float]) -> None:
        self.every = every
        self.speeds: List[float] = []
        self.paused = 0.0

    def _tick(self, _signum, _frame) -> None:
        t0 = perf_counter()
        self.speeds.append(host_speed())
        self.paused += perf_counter() - t0

    def __enter__(self) -> "_SpeedMonitor":
        self.speeds.append(host_speed())
        if self.every:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *_exc) -> None:
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.speeds.append(host_speed())

    @property
    def speed(self) -> float:
        return statistics.fmean(self.speeds)


def declared_metrics(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass
class Sample:
    """One operation."""

    wall_s: float
    setup_s: float
    simulations: int
    messages: int
    errors: List[str]
    digest: Optional[str] = None
    #: mean host speed around and during the operation
    #: (see :func:`host_speed`)
    speed: float = 1.0
    flow_err: Optional[float] = None
    layers: Dict[str, float] = field(default_factory=dict)
    obs: Dict[str, int] = field(default_factory=dict)


def _run_one(op: Callable, meter: SimMeter,
             tracer: Optional[LayerTracer] = None, obs: bool = False,
             speed_every: Optional[float] = None) -> Sample:
    """One operation, with the host speed around it (sampled during it
    too when ``speed_every`` is set)."""
    from repro.obs import registry as obsreg

    gc.collect()
    meter.reset()
    if tracer is not None:
        tracer.reset()
    monitor = _SpeedMonitor(speed_every)
    with obsreg.session(obs) as reg:
        try:
            with monitor:
                t0 = perf_counter()
                if tracer is not None:
                    errors, outputs = tracer.span("host", op, meter)
                else:
                    errors, outputs = op(meter)
                wall = perf_counter() - t0 - monitor.paused
        except Exception as exc:   # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            return Sample(perf_counter() - t0 - monitor.paused,
                          meter.setup_s, meter.simulations, 0,
                          [f"{type(exc).__name__}: {exc}"],
                          speed=monitor.speed)
        counters = {} if reg is None else {
            name: reg.total(name) for name in
            ("sim.engine.events", "ib.mpi.sends", "dv.flow.packets")}
    return Sample(wall, meter.setup_s, meter.simulations, meter.messages(),
                  list(errors), digest(outputs), speed=monitor.speed,
                  flow_err=outputs.get("flow_err"),
                  layers=layer_metrics(tracer) if tracer is not None else {},
                  obs=counters)


def _warm_up(workload: Workload, seed: int) -> None:
    """One shrunken operation, so lazy imports and first-use costs are
    paid before timing starts.  Its failure shows in the timed ones."""
    try:
        workload.shrunk().bind(seed)(SimMeter())
    except Exception:   # the timed operations count the failure
        traceback.print_exc(file=sys.stderr)


def _repeat(op: Callable, meter: SimMeter, seconds: float,
            tracer: Optional[LayerTracer] = None,
            speed_every: Optional[float] = None) -> List[Sample]:
    """Operations back to back until ``seconds`` have passed (at least
    one)."""
    samples: List[Sample] = []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        samples.append(_run_one(op, meter, tracer,
                                speed_every=speed_every))
    return samples


def _setup_probe(op: Callable, meter: SimMeter) -> Optional[float]:
    """Set-up time of the operation's first simulation, stopping it
    where that simulation would start running, at reference speed."""
    gc.collect()
    meter.reset()
    meter.stop_at_run = True
    before = host_speed()
    try:
        op(meter)
    except SetupProbeDone:
        return meter.setup_s * (before + host_speed()) / 2
    finally:
        meter.stop_at_run = False
    return None


def _check_digests(samples: List[Sample]) -> None:
    """Mark every operation whose digest differs from the first
    successful one as failed."""
    ref = next((s.digest for s in samples if s.digest and not s.errors),
               None)
    for s in samples:
        if s.digest is not None and ref is not None and s.digest != ref:
            s.errors.append(f"simulated-output digest {s.digest[:16]} "
                            f"differs from the run's first {ref[:16]}")


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tr: LayerTracer) -> Dict[str, float]:
    """The per-layer metrics of one traced operation, plus the self
    time of every layer seen (``<layer>.self_s``)."""
    c, incl, calls = tr.counts, tr.incl_s, tr.calls
    out = {
        "sim.events": c["sim.events"],
        "sim.events_per_s": _ratio(c["sim.events"], incl["sim.run"]),
        "sim.processes": c["sim.processes"],
        "ib.mpi.sends": c["ib.mpi.sends"],
        "ib.mpi.arrive_us": _ratio(incl["ib.mpi.arrive"],
                                   calls["ib.mpi.arrive"], 1e6),
        "ib.collectives.calls": c["ib.collectives.calls"],
        "ib.fabric.transfers": c["ib.fabric.transfers"],
        "ib.fabric.transfer_us": _ratio(incl["ib.fabric.transfer"],
                                        calls["ib.fabric.transfer"], 1e6),
        "dv.flow.packets": c["dv.flow.packets"],
        "dv.flow.transmit_us": _ratio(incl["dv.flow.transmit"],
                                      c["dv.flow.transfers"], 1e6),
        "dv.vic.deliveries": calls["dv.vic.deliver"],
        "dv.vic.deliver_us": _ratio(incl["dv.vic.deliver"],
                                    calls["dv.vic.deliver"], 1e6),
        "dv.dvmemory.scatter_words": c["dv.dvmemory.scatter_words"],
        "dv.dvmemory.scatter_ns_per_word": _ratio(
            incl["dv.dvmemory.scatter"], c["dv.dvmemory.scatter_words"],
            1e9),
        "dv.fastswitch.cycles_per_s": _ratio(tr.cycles["dv.fastswitch"],
                                             incl["dv.fastswitch.run"]),
        "dv.switch.cycles_per_s": _ratio(tr.cycles["dv.switch"],
                                         incl["dv.switch.run"]),
        "dv.switch.deflections_per_pkt": _ratio(tr.deflections,
                                                tr.switch_ejected),
        "core.cluster.runs": c["core.cluster.runs"],
        "core.cluster.build_s": tr.self_s["core.cluster"],
        "exec.cache.hits": c["exec.cache.hits"],
        "exec.cache.misses": c["exec.cache.misses"],
        "exec.cache.get_ms": _ratio(incl["exec.cache.get"],
                                    calls["exec.cache.get"], 1e3),
        "exec.cache.put_ms": _ratio(incl["exec.cache.put"],
                                    calls["exec.cache.put"], 1e3),
        "golden.compare_s": incl["golden.compare"],
    }
    for layer, secs in tr.self_s.items():
        out[f"{layer}.self_s"] = secs
    return out


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread_note(values: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"N={n}; no percentile above p50 has 10 samples beyond it"
    q = int(100 * (1 - 10 / n))
    return f"N={n}; p{q}={statistics.quantiles(values, n=100)[q - 1]:.6g}"


def run_e2e(workload: Workload, seed: int, seconds: float,
            log=print) -> Tuple[Dict[str, Any], bool, int, int]:
    op = workload.bind(seed)
    _warm_up(workload, seed)
    patcher, meter = Patcher(), SimMeter()
    meter.install(patcher)
    try:
        samples = _repeat(op, meter, seconds,
                          speed_every=SPEED_SAMPLE_EVERY_S)
        _check_digests(samples)
        setups = [s.setup_s * s.speed for s in samples if not s.errors]
        if setups and all(s.simulations == 1 for s in samples):
            while len(setups) < MIN_SETUP_SAMPLES:
                probe = _setup_probe(op, meter)
                if probe is None:
                    break
                setups.append(probe)
    finally:
        patcher.restore()
    failed = sum(1 for s in samples if s.errors)
    walls = [s.wall_s * s.speed for s in samples]
    rates = [s.messages / (s.wall_s * s.speed) for s in samples
             if not s.errors]
    values = {
        "wall_s": _median(walls),
        "setup_s": _median(setups),
        "msgs_per_s": _median(rates),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (len(samples) - failed) / len(samples),
        "flow_err": flow_err_of(samples),
    }
    log(f"workload {workload.name} seed {seed}: {len(samples)} operations, "
        f"{failed} failed (fail_share {failed / len(samples):.6g}), "
        f"{len(setups)} set-up samples")
    log(f"  wall_s {_spread_note(walls)}; unscaled median "
        f"{_median([s.wall_s for s in samples]):.6g} s at median host "
        f"speed {_median([s.speed for s in samples]):.4g}")
    for s in samples:
        for e in s.errors:
            log(f"  FAILED: {e}")
    log(f"  digest {_digests(samples)}")
    return values, failed == 0, len(samples), failed


def flow_err_of(samples: List[Sample]) -> float:
    """The switch workload carries flow_err in its outputs; the others
    measure the drift scenarios once, outside the timed operations."""
    errs = [s.flow_err for s in samples if s.flow_err is not None]
    if errs:
        return errs[0]
    from repro.golden.drift import measure_scenarios
    return flow_err(measure_scenarios())


def _digests(samples: List[Sample]) -> str:
    return ", ".join(sorted({s.digest for s in samples if s.digest})) \
        or "none"


def run_traced(workload: Workload, seed: int, seconds: float,
               log=print) -> Tuple[Dict[str, Any], bool, int, int]:
    op = workload.bind(seed)
    _warm_up(workload, seed)
    patcher, meter = Patcher(), SimMeter()
    meter.install(patcher)
    tracer = LayerTracer()
    try:
        plain = _repeat(op, meter, seconds / 2)
        with_obs = _run_one(op, meter, obs=True)
        tracer.install(patcher)
        traced = _repeat(op, meter, seconds / 2, tracer)
    finally:
        patcher.restore()
    samples = plain + [with_obs] + traced
    _check_digests(samples)
    ok = True

    checks = (("sim.events", "sim.engine.events"),
              ("ib.mpi.sends", "ib.mpi.sends"),
              ("dv.flow.packets", "dv.flow.packets"))
    for mine, theirs in checks:
        got = [t.layers.get(mine) for t in traced]
        want = with_obs.obs.get(theirs)
        if any(g != want for g in got):
            ok = False
            log(f"  CROSS-CHECK FAILED: traced {mine}={got} but "
                f"repro.obs {theirs}={want}")
        else:
            log(f"  cross-check {mine} = repro.obs {theirs} = {want}")

    declared = declared_metrics("per_layer")
    values: Dict[str, Any] = {}
    for name, unit in declared.items():
        if name == "trace.overhead":
            continue
        got = [t.layers.get(name, 0.0) for t in traced]
        if unit == "count" and len(set(got)) > 1:
            ok = False
            log(f"  COUNT DIFFERS between traced operations: {name}={got}")
        values[name] = _median(got)
    values["trace.overhead"] = (
        _median([t.wall_s * t.speed for t in traced])
        / _median([p.wall_s * p.speed for p in plain]))

    failed = sum(1 for s in samples if s.errors)
    log(f"workload {workload.name} seed {seed}: {len(plain)} untraced, 1 "
        f"obs-enabled and {len(traced)} traced operations, {failed} failed")
    for s in samples:
        for e in s.errors:
            log(f"  FAILED: {e}")
    log(f"  digest {_digests(samples)}")
    extra = sorted(k for k in traced[0].layers if k not in declared)
    for k in extra:
        log(f"  {k} {_median([t.layers[k] for t in traced]):.6g}")
    return values, ok and failed == 0, len(samples), failed


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        log=print) -> Dict[str, Any]:
    """One benchmark run; returns the result object the CLI prints."""
    runner = run_traced if trace else run_e2e
    try:
        values, ok, attempted, failed = runner(workload, seed, seconds, log)
    finally:
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    units = declared_metrics("per_layer" if trace else "end_to_end")
    for name, unit in units.items():
        log(f"  {name} = {values[name]:.6g} {unit}")
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}
