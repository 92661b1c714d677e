"""Outside-in instruments for the simulator, installed from this package.

Nothing here edits the program: every hook is a wrapper that
:class:`Patcher` swaps into a class or module attribute and swaps back
out on :meth:`Patcher.restore`.

* :class:`SimMeter` stays on during the end-to-end runs.  It touches
  only per-simulation boundaries (an engine or cycle switch being built
  and first run, a network being built), so it costs a few microseconds
  per cluster.  It yields ``setup_s`` and the modelled message counts.
* :class:`LayerTracer` is the traced run.  It opens a span around every
  call into a layer's public functions, every step of a generator a
  layer hands out, and every callback one layer registers with another
  (engine wake-ups, event callbacks, fabric receive callbacks), and
  keeps per-layer self time and per-boundary counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

_ABSENT = object()


class Patcher:
    """Reversible attribute replacement."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, value)

    def method(self, cls: type, name: str,
               make: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.name`` (the function defined on ``cls`` itself)."""
        self.set(cls, name, make(vars(cls)[name]))

    def function(self, module: types.ModuleType, name: str,
                 make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function everywhere it is bound, so
        ``from module import name`` copies see the wrapper too."""
        orig = getattr(module, name)
        new = make(orig)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self.set(mod, key, new)

    def restore(self) -> None:
        for owner, name, old in reversed(self._undo):
            if old is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._undo.clear()


class SetupProbeDone(Exception):
    """Raised at the first ``Engine.run`` of a set-up-only probe."""


class SimMeter:
    """Set-up time and modelled messages of one operation.

    Set-up is counted per simulation, from the moment its engine (or
    cycle switch) is constructed to its first ``run`` (or
    ``run_until_drained``): building the fabric, the VICs or MPI
    endpoints, the rank processes, and the injected packets.
    """

    def __init__(self) -> None:
        self.stop_at_run = False
        self.reset()

    def reset(self) -> None:
        self.setup_s = 0.0
        self.simulations = 0
        self.events = 0
        self.flow_stats: List[Any] = []
        self.ib_stats: List[Any] = []
        self.switch_stats: List[Any] = []
        self._built: Dict[int, float] = {}

    def messages(self) -> int:
        """Modelled messages completed: DV packets, IB transfers and
        cycle-switch ejections."""
        return (sum(s.packets_sent for s in self.flow_stats)
                + sum(s.messages for s in self.ib_stats)
                + sum(s.ejected for s in self.switch_stats))

    def _started(self, sim: Any) -> None:
        t0 = self._built.pop(id(sim), None)
        if t0 is not None:
            self.setup_s += perf_counter() - t0
            self.simulations += 1
            if self.stop_at_run:
                raise SetupProbeDone()

    def install(self, patcher: Patcher) -> None:
        from repro.dv.fastswitch import FastCycleSwitch
        from repro.dv.flow import FlowNetwork
        from repro.dv.switch import CycleSwitch
        from repro.ib.fabric import IBFabric
        from repro.sim.engine import Engine

        meter = self

        def built(init, stats: str = "", simulation: bool = True):
            @functools.wraps(init)
            def __init__(obj, *a, **k):
                t0 = perf_counter()
                init(obj, *a, **k)
                if stats:
                    getattr(meter, stats).append(obj.stats)
                if simulation:
                    meter._built[id(obj)] = t0
            return __init__

        def engine_run(run):
            @functools.wraps(run)
            def wrapper(eng, *a, **k):
                meter._started(eng)
                before = eng.events_processed
                try:
                    return run(eng, *a, **k)
                finally:
                    meter.events += eng.events_processed - before
            return wrapper

        def switch_run(run):
            @functools.wraps(run)
            def wrapper(sw, *a, **k):
                meter._started(sw)
                return run(sw, *a, **k)
            return wrapper

        patcher.method(Engine, "__init__", built)
        patcher.method(Engine, "run", engine_run)
        patcher.method(FlowNetwork, "__init__",
                       lambda f: built(f, "flow_stats", False))
        patcher.method(IBFabric, "__init__",
                       lambda f: built(f, "ib_stats", False))
        for cls in (CycleSwitch, FastCycleSwitch):
            patcher.method(cls, "__init__",
                           lambda f: built(f, "switch_stats"))
            patcher.method(cls, "run_until_drained", switch_run)


# ------------------------------------------------------------- tracing ---

#: Module prefix -> layer, first match wins.  Modules outside the list
#: fall into a layer named after their package (``agg``, ``traffic``...).
LAYER_OF_MODULE = (
    ("repro.sim", "sim"),
    ("repro.ib.mpi", "ib.mpi"),
    ("repro.ib.verbs", "ib.mpi"),
    ("repro.ib.collectives", "ib.collectives"),
    ("repro.ib.fabric", "ib.fabric"),
    ("repro.ib.fastfabric", "ib.fabric"),
    ("repro.dv.flow", "dv.flow"),
    ("repro.dv.fastflow", "dv.flow"),
    ("repro.dv.vic", "dv.vic"),
    ("repro.dv.fifo", "dv.vic"),
    ("repro.dv.counters", "dv.vic"),
    ("repro.dv.dvmemory", "dv.dvmemory"),
    ("repro.dv.fastswitch", "dv.fastswitch"),
    ("repro.dv.switch", "dv.switch"),
    ("repro.dv", "dv.api"),
    ("repro.kernels", "kernels"),
    ("repro.apps", "kernels"),
    ("repro.core.cluster", "core.cluster"),
    ("repro.core.experiments", "experiments"),
    ("repro.core.scaling", "experiments"),
    ("repro.core.sweep", "experiments"),
    ("repro.core", "core"),
    ("repro.exec", "exec"),
    ("repro.api", "api"),
    ("repro.golden", "golden"),
    ("repro.tenancy", "tenancy"),
)

#: (module, class or None for its module-level functions): every public
#: function found there is wrapped in a span of the module's layer.
SURFACE = (
    ("repro.ib.mpi", "MPIEndpoint"),
    ("repro.ib.mpi", "MPIRuntime"),
    ("repro.ib.verbs", "VerbsContext"),
    ("repro.ib.collectives", None),
    ("repro.ib.fabric", "IBFabric"),
    ("repro.ib.fastfabric", "FastIBFabric"),
    ("repro.dv.flow", "FlowNetwork"),
    ("repro.dv.fastflow", "FastFlowNetwork"),
    ("repro.dv.vic", "VIC"),
    ("repro.dv.fifo", "SurpriseFIFO"),
    ("repro.dv.counters", "GroupCounters"),
    ("repro.dv.dvmemory", "DVMemory"),
    ("repro.dv.switch", "CycleSwitch"),
    ("repro.dv.fastswitch", "FastCycleSwitch"),
    ("repro.dv.api", "DataVortexAPI"),
    ("repro.dv.barrier", "HardwareBarrier"),
    ("repro.dv.barrier", "FastBarrier"),
    ("repro.core.context", "RankContext"),
    ("repro.core.cluster", None),
    ("repro.core.experiments", None),
    ("repro.core.scaling", None),
    ("repro.exec.runner", "Executor"),
    ("repro.exec.cache", "ResultCache"),
    ("repro.api", None),
    ("repro.golden.harness", None),
    ("repro.golden.policy", None),
    ("repro.golden.store", "GoldenStore"),
    ("repro.tenancy.runner", None),
    ("repro.tenancy.experiments", None),
    ("repro.tenancy.views", "TenantNetworkView"),
    ("repro.tenancy.views", "TenantFabricView"),
)

#: Receivers registered through ``attach``, by the receiver's layer:
#: the named boundary their calls are timed under.
RECEIVE_BOUNDARY = {"ib.mpi": "ib.mpi.arrive", "dv.vic": "dv.vic.deliver"}


def layer_of_module(name: str) -> str:
    for prefix, layer in LAYER_OF_MODULE:
        if name == prefix or name.startswith(prefix + "."):
            return layer
    parts = name.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else "host"


def _arg(a: tuple, k: dict, pos: int, name: str) -> Any:
    return a[pos] if len(a) > pos else k[name]


def _transfer(a, k):
    return {"dv.flow.packets": int(_arg(a, k, 3, "n_packets")),
            "dv.flow.transfers": 1}


def _transfer_batch(a, k):
    counts = _arg(a, k, 3, "counts")
    return {"dv.flow.packets": int(np.sum(counts)),
            "dv.flow.transfers": len(counts)}


#: Counts taken at the outermost call into a layer (a nested call from
#: the same layer is part of the same work): qualified name ->
#: ``fn(args, kwargs) -> {count name: increment}``.
OUTER_COUNTS = {
    "FlowNetwork.transmit": _transfer,
    "FastFlowNetwork.transmit": _transfer,
    "FlowNetwork.transmit_batch": _transfer_batch,
    "FastFlowNetwork.transmit_batch": _transfer_batch,
    "FlowNetwork.scatter": _transfer_batch,
    "DVMemory.scatter": lambda a, k: {
        "dv.dvmemory.scatter_words": int(np.size(_arg(a, k, 1, "addrs")))},
}

#: Counts taken at every call, nested or not.
CALL_COUNTS = {
    "MPIEndpoint.send": "ib.mpi.sends",
    "MPIEndpoint.isend": "ib.mpi.sends",
    "IBFabric.transfer": "ib.fabric.transfers",
    "FastIBFabric.transfer": "ib.fabric.transfers",
    "repro.core.cluster.run_spmd": "core.cluster.runs",
    **{f"repro.ib.collectives.{name}": "ib.collectives.calls"
       for name in ("barrier", "bcast", "reduce", "allreduce", "gather",
                    "allgather", "scatter", "alltoall")},
}

#: Counts taken from a call's result.
RESULT_COUNTS = {
    "ResultCache.get": lambda r: ("exec.cache.hits" if r[0]
                                  else "exec.cache.misses"),
}

#: Outermost calls whose inclusive time is kept under a boundary name.
TIMED_CALLS = {
    "FlowNetwork.transmit": "dv.flow.transmit",
    "FastFlowNetwork.transmit": "dv.flow.transmit",
    "FlowNetwork.transmit_batch": "dv.flow.transmit",
    "FastFlowNetwork.transmit_batch": "dv.flow.transmit",
    "FlowNetwork.scatter": "dv.flow.transmit",
    "IBFabric.transfer": "ib.fabric.transfer",
    "FastIBFabric.transfer": "ib.fabric.transfer",
    "DVMemory.scatter": "dv.dvmemory.scatter",
    "GoldenStore.load": "golden.compare",
    "repro.golden.policy.compare_tables": "golden.compare",
}

#: Calls timed under a boundary name even when nested in their own
#: layer (the executor calls its cache from inside ``exec`` spans).
TIMED_EVERY_CALL = {
    "ResultCache.get": "exec.cache.get",
    "ResultCache.put": "exec.cache.put",
}


class _TimedGen:
    """A generator proxy that opens a span around each step."""

    __slots__ = ("_gen", "_layer", "_tracer")

    def __init__(self, gen, layer: str, tracer: "LayerTracer") -> None:
        self._gen = gen
        self._layer = layer
        self._tracer = tracer

    @property
    def __name__(self) -> str:
        return self._gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tr = self._tracer
        tr._stack.append([self._layer, perf_counter(), 0.0])
        try:
            return self._gen.send(value)
        finally:
            tr._pop()

    def throw(self, *exc):
        tr = self._tracer
        tr._stack.append([self._layer, perf_counter(), 0.0])
        try:
            return self._gen.throw(*exc)
        finally:
            tr._pop()

    def close(self):
        return self._gen.close()


class LayerTracer:
    """Per-layer self time and boundary counts of one operation."""

    def __init__(self) -> None:
        self._code_layer: Dict[Any, str] = {}
        self._file_module: Dict[str, str] = {}
        self.reset()

    def reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.cycles: Dict[str, int] = defaultdict(int)
        self.deflections = 0
        self.switch_ejected = 0
        self._stack: List[list] = []

    # -- spans -----------------------------------------------------------
    def _pop(self) -> float:
        stack = self._stack
        layer, t0, child = stack.pop()
        dur = perf_counter() - t0
        self.self_s[layer] += dur - child
        if stack:
            stack[-1][2] += dur
        return dur

    def span(self, layer: str, fn: Callable, *a, **k):
        """Run ``fn`` inside a span (the benchmark's root span)."""
        self._stack.append([layer, perf_counter(), 0.0])
        try:
            return fn(*a, **k)
        finally:
            self._pop()

    # -- layer lookup ----------------------------------------------------
    def _map_files(self) -> None:
        for mod in list(sys.modules.values()):
            path = getattr(mod, "__file__", None)
            if path and mod.__name__.startswith("repro"):
                self._file_module[path] = mod.__name__

    def _layer_of_code(self, code) -> str:
        layer = self._code_layer.get(code)
        if layer is None:
            if code.co_filename not in self._file_module:
                self._map_files()
            mod = self._file_module.get(code.co_filename)
            layer = layer_of_module(mod) if mod else "host"
            self._code_layer[code] = layer
        return layer

    def _layer_of_callable(self, fn) -> Optional[str]:
        if isinstance(fn, functools.partial):
            fn = fn.func
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        return None if code is None else self._layer_of_code(code)

    # -- wrappers --------------------------------------------------------
    def _wrap_callback(self, fn: Callable, layer: str,
                       boundary: Optional[str] = None) -> Callable:
        tr = self

        def callback(*a):
            tr._stack.append([layer, perf_counter(), 0.0])
            try:
                return fn(*a)
            finally:
                dur = tr._pop()
                if boundary is not None:
                    tr.incl_s[boundary] += dur
                    tr.calls[boundary] += 1
        return callback

    def _spanned(self, fn: Callable) -> Callable:
        """``fn`` in a span of its own layer, unless it is the engine's
        (whose time is the ``sim`` span's own)."""
        layer = self._layer_of_callable(fn)
        if layer is None or layer == "sim":
            return fn
        return self._wrap_callback(fn, layer)

    def _wrap_public(self, fn: Callable, layer: str,
                     qualname: str) -> Callable:
        tr = self
        outer = OUTER_COUNTS.get(qualname)
        always = CALL_COUNTS.get(qualname)
        every = TIMED_EVERY_CALL.get(qualname)
        boundary = every or TIMED_CALLS.get(qualname)
        by_result = RESULT_COUNTS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*a, **k):
            if always is not None:
                tr.counts[always] += 1
            stack = tr._stack
            if stack and stack[-1][0] == layer and every is None:
                return fn(*a, **k)      # part of the enclosing span
            if outer is not None:
                for name, n in outer(a, k).items():
                    tr.counts[name] += n
            stack.append([layer, perf_counter(), 0.0])
            try:
                result = fn(*a, **k)
            finally:
                dur = tr._pop()
                if boundary is not None:
                    tr.incl_s[boundary] += dur
                    tr.calls[boundary] += 1
            if by_result is not None:
                tr.counts[by_result(result)] += 1
            if isinstance(result, types.GeneratorType):
                return _TimedGen(result, layer, tr)
            return result
        return wrapper

    def _wrap_switch_run(self, fn: Callable, layer: str) -> Callable:
        """Cycle-switch stepping: cycles advanced and, for the reference
        switch, deflections per ejected packet (simulated)."""
        tr = self

        @functools.wraps(fn)
        def wrapper(sw, *a, **k):
            stack = tr._stack
            if stack and stack[-1][0] == layer:
                return fn(sw, *a, **k)
            c0, d0, e0 = (sw.cycle, sw.stats.total_deflections,
                          sw.stats.ejected)
            stack.append([layer, perf_counter(), 0.0])
            try:
                return fn(sw, *a, **k)
            finally:
                tr.incl_s[layer + ".run"] += tr._pop()
                tr.cycles[layer] += sw.cycle - c0
                if layer == "dv.switch":
                    tr.deflections += sw.stats.total_deflections - d0
                    tr.switch_ejected += sw.stats.ejected - e0
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self, patcher: Patcher) -> None:
        from repro.sim.engine import Engine
        from repro.sim.events import Event

        tr = self
        self._map_files()
        for modname, clsname in SURFACE:
            module = importlib.import_module(modname)
            layer = layer_of_module(modname)
            if clsname is None:
                for name, obj in list(vars(module).items()):
                    if (inspect.isfunction(obj) and not name.startswith("_")
                            and obj.__module__ == modname):
                        patcher.function(
                            module, name,
                            lambda f, q=f"{modname}.{name}", ly=layer:
                                tr._wrap_public(f, ly, q))
                continue
            cls = getattr(module, clsname)
            for name, obj in list(vars(cls).items()):
                if not inspect.isfunction(obj) or name.startswith("_"):
                    continue
                if layer in ("dv.switch", "dv.fastswitch") and name in (
                        "step", "run_until_drained"):
                    make = (lambda f, ly=layer: tr._wrap_switch_run(f, ly))
                elif name == "attach":
                    make = tr._wrap_attach
                else:
                    make = (lambda f, q=f"{clsname}.{name}", ly=layer:
                            tr._wrap_public(f, ly, q))
                patcher.method(cls, name, make)

        def engine_run(run):
            @functools.wraps(run)
            def wrapper(eng, *a, **k):
                before = eng.events_processed
                tr._stack.append(["sim", perf_counter(), 0.0])
                try:
                    return run(eng, *a, **k)
                finally:
                    tr.incl_s["sim.run"] += tr._pop()
                    tr.counts["sim.events"] += eng.events_processed - before
            return wrapper

        def engine_process(process):
            @functools.wraps(process)
            def wrapper(eng, generator, name=""):
                tr.counts["sim.processes"] += 1
                if isinstance(generator, types.GeneratorType):
                    layer = tr._layer_of_code(generator.gi_code)
                    if layer != "sim":
                        generator = _TimedGen(generator, layer, tr)
                return process(eng, generator, name=name)
            return wrapper

        def engine_call_in(call_in):
            @functools.wraps(call_in)
            def wrapper(eng, delay, fn, *args):
                return call_in(eng, delay, tr._spanned(fn), *args)
            return wrapper

        def event_add_callback(add_callback):
            @functools.wraps(add_callback)
            def wrapper(ev, fn):
                return add_callback(ev, tr._spanned(fn))
            return wrapper

        patcher.method(Engine, "run", engine_run)
        patcher.method(Engine, "process", engine_process)
        patcher.method(Engine, "call_in", engine_call_in)
        patcher.method(Event, "add_callback", event_add_callback)

    def _wrap_attach(self, attach: Callable) -> Callable:
        tr = self

        @functools.wraps(attach)
        def wrapper(net, port, receiver):
            layer = tr._layer_of_callable(receiver) or "host"
            receiver = tr._wrap_callback(receiver, layer,
                                         RECEIVE_BOUNDARY.get(layer))
            return attach(net, port, receiver)
        return wrapper
