"""Cluster specification and the SPMD runner.

:class:`ClusterSpec` captures the testbed of paper §IV — a cluster whose
every node has *both* a Data Vortex VIC and an FDR InfiniBand HCA — and
:func:`run_spmd` executes one program on one fabric, building a fresh
engine and fresh device state per run (runs never share state, as on the
real machine where each benchmark invocation starts cold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional

from repro.core.context import RankContext
from repro.core.node import NodeModel
from repro.core.trace import Tracer
from repro.dv.api import DataVortexAPI
from repro.dv.barrier import FastBarrier, HardwareBarrier
from repro.dv.config import DVConfig
from repro.dv.fastflow import FastFlowNetwork
from repro.dv.vic import VIC
from repro.ib.config import IBConfig
from repro.ib.fastfabric import FastIBFabric
from repro.ib.mpi import MPIRuntime
from repro.sim.engine import Engine

#: A rank program: generator function taking a RankContext.
Program = Callable[[RankContext], Generator]


@dataclass
class ClusterSpec:
    """Description of the dual-fabric cluster."""

    n_nodes: int = 32
    dv: DVConfig = field(default_factory=DVConfig)
    ib: IBConfig = field(default_factory=IBConfig)
    node: NodeModel = field(default_factory=NodeModel)
    seed: int = 2017
    trace: bool = False
    #: toggle the fat-tree static-routing contention model (ablation)
    ib_contention: bool = True
    #: only ``"fast"``: every cluster runs the pooled engines
    #: (:func:`build_network`); kept so callers that name it still work
    flow_impl: str = "fast"
    #: production-shaped load: a :class:`~repro.traffic.TrafficModel`
    #: (destination distribution + arrival process) the traffic-aware
    #: kernels honour.  ``None`` keeps every kernel on its legacy
    #: uniform-random closed-loop path, byte-for-byte (the goldens pin
    #: exactly that).  See docs/traffic.md.
    traffic: Optional["TrafficModel"] = None
    #: destination-coalescing aggregation: a
    #: :class:`~repro.agg.AggSpec` routes the irregular kernels' remote
    #: updates through the :mod:`repro.agg` runtime (per-destination
    #: buffers, watermark/timeout flushes, optional tree routing).
    #: ``None`` keeps every legacy kernel path byte-identical (a scoped
    #: ``agg.session(...)`` override still applies).  See
    #: docs/aggregation.md.
    aggregation: Optional["AggSpec"] = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.flow_impl != "fast":
            raise ValueError(
                f'flow_impl must be "fast", got {self.flow_impl!r}: the '
                f'reference engines (FlowNetwork, IBFabric) are a test '
                f'oracle, not an option')
        if self.traffic is not None:
            from repro.traffic.model import TrafficModel
            if not isinstance(self.traffic, TrafficModel):
                raise TypeError(
                    "traffic must be a repro.traffic.TrafficModel "
                    f"(got {type(self.traffic).__name__})")
        if self.aggregation is not None:
            from repro.agg import AggSpec
            if not isinstance(self.aggregation, AggSpec):
                raise TypeError(
                    "aggregation must be a repro.agg.AggSpec "
                    f"(got {type(self.aggregation).__name__})")

    @staticmethod
    def paper_testbed(**overrides) -> "ClusterSpec":
        """The 32-node system of §IV."""
        return ClusterSpec(n_nodes=32, **overrides)


@dataclass
class RunResult:
    """Outcome of one :func:`run_spmd` invocation."""

    values: List[Any]           #: per-rank program return values
    elapsed: float              #: simulated seconds until the last rank exits
    tracer: Tracer
    engine: Engine
    fabric: str
    #: network-level statistics object (FlowStats or FabricStats)
    net_stats: Any = None

    def value(self, rank: int = 0) -> Any:
        return self.values[rank]

    @property
    def max_value(self) -> Any:
        return max(self.values)


def build_network(engine: Engine, spec: ClusterSpec, fabric: str) -> Any:
    """The flow-level network of a ``spec``-sized cluster: the one place
    a cluster's engine class is chosen (always the pooled engines)."""
    if fabric == "dv":
        return FastFlowNetwork(engine, spec.dv, spec.n_nodes)
    return FastIBFabric(engine, spec.ib, spec.n_nodes,
                        contention=spec.ib_contention)


def run_spmd(spec: ClusterSpec, program: Program, fabric: str = "dv",
             max_events: Optional[int] = None) -> RunResult:
    """Run ``program`` once on every rank over the chosen fabric.

    Parameters
    ----------
    spec:
        The cluster to build.
    program:
        Generator function ``program(ctx)``.
    fabric:
        ``"dv"`` (Data Vortex) or ``"mpi"`` (MPI over InfiniBand).
    max_events:
        Optional runaway guard forwarded to the engine.
    """
    if fabric not in ("dv", "mpi"):
        raise ValueError(f'fabric must be "dv" or "mpi", got {fabric!r}')

    # Tenancy determinism axis: inside a tenancy.shadow_session() the
    # whole run is routed through the co-scheduler as a single
    # full-width identity tenant, which must be bit-identical to the
    # serial body below (docs/tenancy.md).
    from repro import tenancy
    if tenancy.shadow_active():
        from repro.tenancy.runner import run_solo_shadow
        return run_solo_shadow(spec, program, fabric, max_events)

    engine = Engine()
    tracer = Tracer(enabled=spec.trace)
    n = spec.n_nodes

    contexts: List[RankContext] = []
    net_stats: Any = None
    if fabric == "dv":
        network = build_network(engine, spec, fabric)
        vics = [VIC(engine, spec.dv, i, network) for i in range(n)]
        apis = [DataVortexAPI(engine, spec.dv, v, network) for v in vics]
        hw_barrier = HardwareBarrier(engine, spec.dv, vics, network)
        fast_barrier = FastBarrier(engine, spec.dv, vics, network)
        for api in apis:
            api.hw_barrier = hw_barrier
            api.fast_barrier_impl = fast_barrier
        for r in range(n):
            contexts.append(RankContext(engine, r, n, spec.node, tracer,
                                        spec.seed, dv=apis[r]))
        net_stats = network.stats
    else:
        runtime = MPIRuntime(engine, spec.ib, n,
                             fabric=build_network(engine, spec, fabric))
        for r in range(n):
            contexts.append(RankContext(engine, r, n, spec.node, tracer,
                                        spec.seed, mpi=runtime.endpoint(r)))
        net_stats = runtime.fabric.stats

    procs = [engine.process(program(ctx), name=f"rank{ctx.rank}")
             for ctx in contexts]
    engine.run(max_events=max_events)

    failures = []
    for p in procs:
        if not p.triggered:
            raise RuntimeError(
                f"deadlock: {p.name} never finished (fabric={fabric})")
        if not p.ok:
            failures.append(p)
    if failures:
        raise failures[0].value

    return RunResult(values=[p.value for p in procs], elapsed=engine.now,
                     tracer=tracer, engine=engine, fabric=fabric,
                     net_stats=net_stats)


def run_both(spec: ClusterSpec, program: Program) -> dict:
    """Convenience: run on both fabrics, return ``{"dv": ..., "mpi": ...}``."""
    return {"dv": run_spmd(spec, program, "dv"),
            "mpi": run_spmd(spec, program, "mpi")}
