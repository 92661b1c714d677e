"""The stable programmatic facade over the repro stack (api 5.0).

One spec, two verbs.  Everything a driver needs — regenerating paper
figures, named parameter sweeps, 64-1024-node projections, skew /
aggregation / interference matrices, golden gating, the experiment
service — is expressed as a versioned :class:`ExperimentSpec` and
handed to :func:`run` (in-process) or :func:`submit` (service):

>>> import repro.api as api
>>> t = api.run(spec=api.ExperimentSpec(
...     exp_id="fig4", params={"nodes": (2, 4)}))
>>> t.columns
['nodes', 'dv', 'dv_fast', 'mpi']

The spec carries the whole request: registry id (or named sweep),
runner params, cluster overrides, a fault plan and co-scheduled
tenants.  Each experiment declares which of the last two it takes, and
under which runner keyword
(:attr:`repro.core.experiments.Experiment.spec_fields`); :func:`run`
and :func:`submit` thread exactly those and reject any other set field
before anything is simulated.  A traffic model or aggregation spec
belongs to a cluster: build it with :func:`build_cluster`.

``run_figures``, :func:`verify_goldens`, :func:`poll`, :func:`collect`
and the builders complete the surface.

The facade is versioned independently of the package
(:data:`__api_version__`, semver; docs/api.md has the migration
tables).  Only names in :data:`__all__` are covered by the
contract.  Every public callable takes keyword-only arguments
(enforced by ``tools/check_api_signatures.py`` in ``make lint``).
Heavy imports happen inside the functions: ``import repro.api`` is
cheap, and the lazy imports also break the cycle with the golden
harness, which routes its figure runs back through :func:`run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

__api_version__ = "5.0.0"

__all__ = [
    "__api_version__",
    "ExperimentSpec",
    "RunOptions",
    "GoldenVerdict",
    "spec_to_dict",
    "spec_from_dict",
    "build_cluster",
    "build_traffic",
    "run",
    "submit",
    "run_figures",
    "verify_goldens",
    "poll",
    "collect",
]

#: Spec schema version :func:`run` understands.  api 3.0 to 5.0 only
#: dropped fields, so every 2.0 document they still parse means what it
#: did.
SPEC_VERSION = 2

#: The ExperimentSpec fields an experiment may declare, with their unset
#: values (:attr:`repro.core.experiments.Experiment.spec_fields`).
_SPEC_FIELDS = {"faults": None, "tenants": ()}


# ----------------------------------------------------------- datatypes ---

@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment request, complete (api 5.0).

    ``exp_id`` names a registry experiment
    (:data:`repro.core.experiments.REGISTRY`) or a named sweep
    (:data:`repro.core.sweep.NAMED_SWEEPS`; prefix with ``sweep:`` to
    force the sweep namespace).  ``params`` go to the runner verbatim;
    ``cluster`` is a convenience mapping merged into them (a key in
    both is an error, not a silent override).

    ``faults`` (a :class:`~repro.faults.FaultPlan`) and ``tenants`` (a
    tuple of workload names or full :class:`~repro.tenancy.TenantSpec`
    objects) reach only the experiments that declare them; see
    :func:`run`.
    """

    exp_id: str
    params: Mapping[str, Any] = field(default_factory=dict)
    version: int = SPEC_VERSION
    cluster: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional["FaultPlan"] = None
    tenants: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not self.exp_id:
            raise ValueError("exp_id must be non-empty")
        if self.version != SPEC_VERSION:
            raise ValueError(
                f"ExperimentSpec version {self.version} is not "
                f"supported by api {__api_version__} "
                f"(expected {SPEC_VERSION})")
        if self.faults is not None:
            from repro.faults import FaultPlan
            if not isinstance(self.faults, FaultPlan):
                raise TypeError(
                    "faults must be a repro.faults.FaultPlan "
                    f"(got {type(self.faults).__name__})")
        if isinstance(self.tenants, str):
            raise TypeError(
                f"tenants must be a sequence of workload names, not a "
                f"bare string: pass ({self.tenants!r},)")
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if self.tenants:
            from repro.tenancy import TenantSpec
            for t in self.tenants:
                if not isinstance(t, (str, TenantSpec)):
                    raise TypeError(
                        "tenants entries must be workload names or "
                        "repro.tenancy.TenantSpec objects "
                        f"(got {type(t).__name__})")


@dataclass(frozen=True)
class RunOptions:
    """Execution options shared by every facade entry point.

    ``workers`` > 1 fans independent points across a process pool;
    ``cache_dir`` memoises finished points on disk.  Both leave results
    bit-identical to a serial, uncached run (the golden harness checks
    exactly that).
    """

    workers: int = 1
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def executor(self) -> "Executor":
        """The :class:`~repro.exec.Executor` these options describe."""
        from repro.exec import Executor
        return Executor(workers=self.workers, cache_dir=self.cache_dir)


@dataclass(frozen=True)
class GoldenVerdict:
    """Outcome of :func:`verify_goldens`."""

    ok: bool
    #: per-figure compare reports (empty in record mode)
    reports: Tuple["FigReport", ...] = ()
    #: per-(figure, axis) determinism reports (when axes were requested)
    axis_reports: Tuple["AxisReport", ...] = ()
    #: ``{fig: path}`` of snapshots written (record mode only)
    recorded: Mapping[str, str] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [r.describe() for r in self.reports]
        lines += [r.describe() for r in self.axis_reports]
        lines += [f"recorded {fig}: {path}"
                  for fig, path in sorted(self.recorded.items())]
        lines.append("verify: ok" if self.ok else "verify: FAILED")
        return "\n".join(lines)


def _executor(options: Optional[RunOptions]) -> "Executor":
    return (options or RunOptions()).executor()


# ------------------------------------------------- spec serialisation ---

def spec_to_dict(*, spec: ExperimentSpec) -> Dict[str, Any]:
    """The spec as a JSON-able mapping (the ``repro submit
    --spec-file`` wire format)."""
    import dataclasses
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"spec must be an ExperimentSpec, "
                        f"got {type(spec).__name__}")
    out: Dict[str, Any] = {"exp_id": spec.exp_id,
                           "version": spec.version,
                           "params": dict(spec.params)}
    if spec.cluster:
        out["cluster"] = dict(spec.cluster)
    if spec.faults is not None:
        out["faults"] = dataclasses.asdict(spec.faults)
    if spec.tenants:
        from repro.tenancy import spec_to_dict as _tenant_to_dict
        out["tenants"] = [t if isinstance(t, str)
                          else _tenant_to_dict(t)
                          for t in spec.tenants]
    return out


def spec_from_dict(*, data: Mapping[str, Any]) -> ExperimentSpec:
    """An :class:`ExperimentSpec` from :func:`spec_to_dict` output."""
    data = dict(data)
    kwargs: Dict[str, Any] = {
        "exp_id": data.pop("exp_id", ""),
        "version": int(data.pop("version", SPEC_VERSION)),
        "params": dict(data.pop("params", {}) or {}),
        "cluster": dict(data.pop("cluster", {}) or {}),
    }
    faults = data.pop("faults", None)
    if faults is not None:
        from repro.faults import FaultPlan
        faults = dict(faults)
        if "outages" in faults:
            faults["outages"] = tuple(
                tuple(o) for o in faults["outages"])
        kwargs["faults"] = FaultPlan(**faults)
    tenants = data.pop("tenants", None)
    if isinstance(tenants, str):
        kwargs["tenants"] = tenants     # rejected by ExperimentSpec
    elif tenants:
        from repro.tenancy import spec_from_dict as _tenant_from_dict
        kwargs["tenants"] = tuple(
            t if isinstance(t, str) else _tenant_from_dict(t)
            for t in tenants)
    if data:
        raise ValueError(
            f"unknown ExperimentSpec field(s): {sorted(data)}")
    return ExperimentSpec(**kwargs)


# ------------------------------------------------------------- builders ---

def build_cluster(*, n_nodes: int = 32, seed: int = 2017,
                  dv: Optional["DVConfig"] = None,
                  ib: Optional["IBConfig"] = None,
                  node: Optional["NodeModel"] = None,
                  ib_contention: bool = True, trace: bool = False,
                  traffic: Optional["TrafficModel"] = None,
                  aggregation: Optional["AggSpec"] = None
                  ) -> "ClusterSpec":
    """A :class:`~repro.core.cluster.ClusterSpec` by keyword.

    ``dv``, ``ib`` and ``node`` default to the paper testbed's configs;
    ``traffic`` and ``aggregation`` to none (the legacy kernel paths).
    """
    from repro.core.cluster import ClusterSpec
    configs = {k: v for k, v in (("dv", dv), ("ib", ib), ("node", node))
               if v is not None}
    return ClusterSpec(n_nodes=n_nodes, seed=seed,
                       ib_contention=ib_contention, trace=trace,
                       traffic=traffic, aggregation=aggregation,
                       **configs)


def build_traffic(*, dist: str = "uniform",
                  dist_params: Optional[Mapping[str, Any]] = None,
                  arrivals: str = "closed",
                  arrival_params: Optional[Mapping[str, Any]] = None
                  ) -> "TrafficModel":
    """A :class:`~repro.traffic.TrafficModel` by registry names.

    ``dist`` picks the destination distribution (``uniform`` /
    ``hotset`` / ``zipf`` / ``trace``), ``arrivals`` the arrival
    process (``closed`` / ``poisson`` / ``mmpp`` / ``trace``); the
    params mappings pass through to the constructors.  Hand the result
    to :func:`build_cluster` via ``traffic=`` — the traffic-aware
    kernels (GUPS, BFS) honour it, and ``None`` keeps every legacy
    path byte-for-byte (see docs/traffic.md).
    """
    from repro.traffic.model import model_from_names
    return model_from_names(
        dist=dist,
        dist_params=dict(dist_params) if dist_params else None,
        arrivals=arrivals,
        arrival_params=dict(arrival_params) if arrival_params else None)


# ------------------------------------------------------------ the verbs ---

def _runner_params(spec: ExperimentSpec) -> Dict[str, Any]:
    """The runner keywords ``spec`` stands for: ``params`` with the
    ``cluster`` mapping folded in, plus each set spec field under the
    keyword its experiment declares.  A key in both ``params`` and
    ``cluster``, or a set field the experiment does not declare, is a
    spec error (named sweeps declare none)."""
    from repro.core.experiments import REGISTRY
    exp = REGISTRY.get(spec.exp_id)
    declared = exp.spec_fields if exp is not None else {}
    params = dict(spec.params)
    clash = sorted(set(params) & set(spec.cluster))
    if clash:
        raise ValueError(
            f"key(s) {', '.join(clash)} appear in both params and "
            f"cluster; pick one")
    params.update(spec.cluster)
    for name, unset in _SPEC_FIELDS.items():
        value = getattr(spec, name)
        if value == unset:
            continue
        kw = declared.get(name)
        if kw is None:
            takes = ", ".join(sorted(declared)) or "none"
            raise ValueError(
                f"experiment {spec.exp_id!r} does not take "
                f"spec.{name} (spec fields it takes: {takes})")
        if kw in params:
            raise ValueError(f"spec.{name} conflicts with "
                             f"params[{kw!r}]; pick one")
        params[kw] = value
    return params


def _run_sweep_spec(spec: ExperimentSpec, name: str,
                    options: Optional[RunOptions]) -> "Table":
    """The named-sweep arm of :func:`run`: params are ``axes`` /
    ``fixed`` mappings."""
    from repro.core.sweep import NAMED_SWEEPS, named_sweep
    params = _runner_params(spec)
    axes = params.pop("axes", None)
    fixed = params.pop("fixed", None)
    if params:
        raise ValueError(
            f"unknown sweep param(s) {sorted(params)}; named sweeps "
            f"take 'axes' and 'fixed'")
    sw_spec = NAMED_SWEEPS[name]
    sw = named_sweep(name, axes=dict(axes) if axes else None,
                     fixed=dict(fixed) if fixed else None)
    return sw.run_table(sw_spec["title"], sw_spec["columns"],
                        executor=_executor(options))


def run(*, spec: ExperimentSpec,
        options: Optional[RunOptions] = None) -> "Table":
    """Run one :class:`ExperimentSpec` in-process and return its table.

    Resolution: ``exp_id`` is looked up in the experiment registry,
    then in the named sweeps (``sweep:<name>`` forces the latter).

    ``faults`` and ``tenants`` reach the runner under the
    keywords its registry entry declares (``Experiment.spec_fields``;
    e.g. ``fig_scaleout`` takes ``faults`` as ``plan=``).  Setting one
    the experiment does not declare raises ``ValueError`` naming the
    experiment and the field.
    """
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"spec must be an ExperimentSpec, "
                        f"got {type(spec).__name__}")
    from repro.core.experiments import REGISTRY, run_experiment
    from repro.core.sweep import NAMED_SWEEPS

    exp_id = spec.exp_id
    if exp_id.startswith("sweep:"):
        name = exp_id[len("sweep:"):]
        if name not in NAMED_SWEEPS:
            raise KeyError(f"unknown sweep {name!r}; known: "
                           f"{', '.join(sorted(NAMED_SWEEPS))}")
        return _run_sweep_spec(spec, name, options)
    if exp_id not in REGISTRY:
        if exp_id in NAMED_SWEEPS:
            return _run_sweep_spec(spec, exp_id, options)
        raise KeyError(
            f"unknown experiment {exp_id!r}; known experiments: "
            f"{sorted(REGISTRY)}; known sweeps: "
            f"{sorted(NAMED_SWEEPS)}")
    if REGISTRY[exp_id].runner is None:
        raise ValueError(f"{exp_id} has no table runner "
                         f"(see {REGISTRY[exp_id].bench})")
    return run_experiment(exp_id, executor=_executor(options),
                          **_runner_params(spec))


def run_figures(*, exp_ids: Sequence[str],
                options: Optional[RunOptions] = None,
                **params: Any) -> Dict[str, "Table"]:
    """Several figures at once, fanned across the options' worker pool
    (each figure is one point)."""
    from repro.core.experiments import run_experiments
    return run_experiments(exp_ids, executor=_executor(options),
                           **params)


def verify_goldens(*, mode: str = "compare",
                   figs: Optional[Sequence[str]] = None,
                   goldens_dir: str = "goldens",
                   axes: Sequence[str] = (),
                   options: Optional[RunOptions] = None) -> GoldenVerdict:
    """The golden-results gate, as a library call.

    ``mode="compare"`` recomputes the pinned figure configs and diffs
    them cell-by-cell against the committed snapshots (plus the
    determinism harness for any requested ``axes``);
    ``mode="record"`` refreshes the snapshots instead.
    """
    from repro.golden import (GOLDEN_CONFIGS, GoldenStore,
                              compare_goldens, record_goldens,
                              run_harness)
    if mode not in ("compare", "record"):
        raise ValueError(f'mode must be "compare" or "record", '
                         f'got {mode!r}')
    figs = list(figs) if figs else sorted(GOLDEN_CONFIGS)
    unknown = [f for f in figs if f not in GOLDEN_CONFIGS]
    if unknown:
        raise KeyError(f"no golden config for {', '.join(unknown)}; "
                       f"known: {', '.join(sorted(GOLDEN_CONFIGS))}")
    store = GoldenStore(goldens_dir)
    executor = _executor(options)
    if mode == "record":
        paths = record_goldens(store, figs, executor)
        return GoldenVerdict(ok=True, recorded=paths)
    reports = tuple(compare_goldens(store, figs, executor))
    axis_reports = tuple(run_harness(figs, list(axes))) if axes else ()
    ok = all(r.ok for r in reports) and all(r.ok for r in axis_reports)
    return GoldenVerdict(ok=ok, reports=reports,
                         axis_reports=axis_reports)


# -------------------------------------------------- experiment service ---

def _service_client(endpoint: Optional[str], state_dir: str,
                    goldens_dir: str):
    """A ServiceClient for ``endpoint`` ("host:port"), else the
    socket-free InlineClient on ``state_dir`` (docs/service.md)."""
    if endpoint:
        from repro.service import ServiceClient, parse_endpoint
        return ServiceClient(*parse_endpoint(endpoint))
    from repro.service import InlineClient
    return InlineClient(state_dir, goldens_dir=goldens_dir)


def submit(*, spec: ExperimentSpec, priority: int = 0,
           endpoint: Optional[str] = None,
           state_dir: str = ".repro-service",
           goldens_dir: str = "goldens") -> Dict[str, Any]:
    """Submit one :class:`ExperimentSpec` to the experiment service.

    With ``endpoint="host:port"`` the spec goes to a running ``repro
    serve`` daemon and this returns as soon as the job is queued (or
    attached to an identical in-flight job — see the ``attached``
    flag); without one, the socket-free inline mode runs the job to
    completion in-process under ``state_dir``.  Returns the job status
    mapping (``job_id``, ``state``, ``attached``, ...).

    Spec fields thread as in :func:`run`, with one more limit: jobs
    serialise to (exp_id, params), so a value with no wire form — a
    ``FaultPlan``, or ``TenantSpec`` objects in ``tenants`` — raises;
    run those through :func:`run`.
    """
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"spec must be an ExperimentSpec, "
                        f"got {type(spec).__name__}")
    params = _runner_params(spec)
    if spec.faults is not None:
        raise ValueError(
            "spec.faults cannot ride a service job (a FaultPlan has no "
            "wire form); use api.run")
    if not all(isinstance(t, str) for t in spec.tenants):
        raise ValueError(
            "service jobs take tenants as workload names only "
            "(TenantSpec objects do not serialise into a job)")
    client = _service_client(endpoint, state_dir, goldens_dir)
    return client.submit(spec.exp_id, params=params, priority=priority)


def poll(*, job_id: str, endpoint: Optional[str] = None,
         state_dir: str = ".repro-service",
         goldens_dir: str = "goldens") -> Dict[str, Any]:
    """The current status mapping of a submitted job."""
    client = _service_client(endpoint, state_dir, goldens_dir)
    return client.status(job_id)


def collect(*, job_id: str, endpoint: Optional[str] = None,
            state_dir: str = ".repro-service",
            goldens_dir: str = "goldens",
            timeout: Optional[float] = None,
            require_published: bool = True) -> "Table":
    """The finished job's result table.

    Blocks (daemon mode) until the job is terminal.  A result the
    golden gate refused to publish raises ``ServiceError`` with the
    cell diffs unless ``require_published=False``.
    """
    from repro.core.report import Table
    from repro.service import ServiceError
    client = _service_client(endpoint, state_dir, goldens_dir)
    record = client.collect(job_id, timeout=timeout)
    if require_published and not record.get("published"):
        diffs = record.get("golden", {}).get("diffs", [])
        raise ServiceError(
            f"job {job_id!r} result was not published "
            f"(golden gate refused): " + "; ".join(diffs))
    return Table.from_dict(record["table"])
