"""The api contract (5.0): one spec, two verbs, declared spec fields.

Everything the facade promises (docs/api.md): :class:`ExperimentSpec`
carries the whole request; :func:`api.run` threads each set spec field
to the runner keyword its experiment declares and rejects every other
one; :func:`api.submit` takes the same spec over the service wire; and
the spec has an exact JSON round-trip (the ``repro submit --spec-file``
format).
"""

import dataclasses
import json

import pytest

import repro.api as api
from repro.core.experiments import REGISTRY
from repro.faults import FaultPlan
from repro.tenancy import TenantSpec


def _rows(table):
    return [list(r) for r in table.rows]


# ---------------------------------------------------------------- run ---

def test_run_executes_registry_experiment():
    t = api.run(spec=api.ExperimentSpec(
        exp_id="fig4", params={"seed": 1, "nodes": (2,)}))
    assert t.columns[0] == "nodes"
    assert len(t.rows) == 1


def test_run_routes_bare_sweep_name_and_sweep_prefix():
    spec = api.ExperimentSpec(exp_id="sweep:barrier",
                              params={"axes": {"nodes": [2]}})
    prefixed = api.run(spec=spec)
    bare = api.run(spec=api.ExperimentSpec(
        exp_id="barrier", params={"axes": {"nodes": [2]}}))
    assert prefixed.columns == ["nodes", "latency_us"]
    assert _rows(prefixed) == _rows(bare)


def test_run_rejects_unknown_exp_id_naming_both_registries():
    with pytest.raises(KeyError, match="known experiments.*known sweeps"):
        api.run(spec=api.ExperimentSpec(exp_id="fig999"))


def test_run_rejects_params_cluster_clash():
    spec = api.ExperimentSpec(exp_id="fig4", params={"seed": 1},
                              cluster={"seed": 2})
    with pytest.raises(ValueError, match="both params and cluster"):
        api.run(spec=spec)


def test_cluster_mapping_merges_into_params():
    base = api.run(spec=api.ExperimentSpec(
        exp_id="fig4", params={"seed": 1, "nodes": (2,)}))
    via_cluster = api.run(spec=api.ExperimentSpec(
        exp_id="fig4", params={"nodes": (2,)}, cluster={"seed": 1}))
    assert _rows(base) == _rows(via_cluster)


def test_run_threads_tenants_keyword():
    t = api.run(spec=api.ExperimentSpec(
        exp_id="fig_interference",
        params={"fabrics": ("mpi",), "nodes_per_tenant": 4},
        tenants=("gups", "fft")))
    assert {(r[0], r[1]) for r in t.rows} == {("gups", "fft"),
                                             ("fft", "gups")}


def test_run_rejects_tenants_without_runner_keyword():
    spec = api.ExperimentSpec(exp_id="fig4", tenants=("gups", "fft"))
    with pytest.raises(ValueError, match="does not take spec.tenants"):
        api.run(spec=spec)


def test_run_threads_declared_faults_as_plan_keyword():
    """fig_scaleout declares faults as plan=: the spec field must land
    exactly where an explicit param would."""
    params = {"workloads": ("gups",), "nodes": (64,), "fabrics": ("dv",)}
    plan = FaultPlan(seed=3, pcie_delay_prob=0.2)
    via_spec = api.run(spec=api.ExperimentSpec(
        exp_id="fig_scaleout", params=params, faults=plan))
    via_params = api.run(spec=api.ExperimentSpec(
        exp_id="fig_scaleout", params={**params, "plan": plan}))
    # repr: the mpi columns are NaN (dv only), and NaN != NaN
    assert repr(_rows(via_spec)) == repr(_rows(via_params))
    with pytest.raises(ValueError, match="conflicts with params"):
        api.run(spec=api.ExperimentSpec(
            exp_id="fig_scaleout", params={**params, "plan": plan},
            faults=plan))


_FIELD_VALUES = {"faults": FaultPlan(seed=3, drop_prob=0.1),
                 "tenants": ("gups", "fft")}


def _undeclared():
    return [(exp_id, name) for exp_id in sorted(REGISTRY)
            if REGISTRY[exp_id].runner is not None
            for name in sorted(_FIELD_VALUES)
            if name not in REGISTRY[exp_id].spec_fields]


@pytest.mark.parametrize("exp_id,name", _undeclared())
def test_undeclared_spec_field_is_rejected_before_running(exp_id, name,
                                                          tmp_path,
                                                          monkeypatch):
    """Every registry runner x every spec field it does not declare:
    both verbs raise ValueError naming the experiment and the field,
    and nothing is simulated."""
    from repro.core import experiments
    monkeypatch.setattr(experiments, "run_experiment", None)
    spec = api.ExperimentSpec(exp_id=exp_id,
                              **{name: _FIELD_VALUES[name]})
    pattern = f"{exp_id}.*spec.{name}"
    with pytest.raises(ValueError, match=pattern):
        api.run(spec=spec)
    with pytest.raises(ValueError, match=pattern):
        api.submit(spec=spec, state_dir=str(tmp_path))


def test_declared_fields_name_real_spec_fields():
    fields = {f.name for f in dataclasses.fields(api.ExperimentSpec)}
    assert fields == {"exp_id", "params", "version", "cluster", "faults",
                      "tenants"}
    declared = {exp_id: dict(e.spec_fields)
                for exp_id, e in REGISTRY.items() if e.spec_fields}
    assert declared == {
        "fig_scaleout": {"faults": "plan"},
        "fig_interference": {"tenants": "tenants"},
    }


def test_traffic_and_aggregation_belong_to_the_cluster():
    from repro.agg import AggSpec
    with pytest.raises(TypeError):
        api.ExperimentSpec(exp_id="fig4", traffic=api.build_traffic())
    with pytest.raises(TypeError):
        api.ExperimentSpec(exp_id="fig4", aggregation=AggSpec())
    model = api.build_traffic()
    cluster = api.build_cluster(n_nodes=2, traffic=model,
                                aggregation=AggSpec(watermark=8))
    assert cluster.traffic is model
    assert cluster.aggregation == AggSpec(watermark=8)


def test_sweep_spec_rejects_session_fields_and_odd_params():
    with pytest.raises(ValueError, match="does not take spec.faults"):
        api.run(spec=api.ExperimentSpec(exp_id="sweep:barrier",
                                        faults=FaultPlan(seed=3)))
    with pytest.raises(ValueError, match="unknown sweep param"):
        api.run(spec=api.ExperimentSpec(exp_id="sweep:barrier",
                                        params={"nodes": [2]}))


# --------------------------------------------------------------- spec ---

def test_spec_rejects_wrong_version():
    with pytest.raises(ValueError, match="version 1 is not supported"):
        api.ExperimentSpec(exp_id="fig4", version=1)


def test_spec_rejects_wrong_field_types():
    with pytest.raises(TypeError, match="FaultPlan"):
        api.ExperimentSpec(exp_id="fig4", faults={"seed": 3})
    with pytest.raises(TypeError, match="workload names"):
        api.ExperimentSpec(exp_id="fig4", tenants=(42,))
    # a bare string is one workload name, not a tuple of letters
    with pytest.raises(TypeError, match=r"\('gups',\)"):
        api.ExperimentSpec(exp_id="fig_interference", tenants="gups")
    with pytest.raises(TypeError, match=r"\('gups',\)"):
        api.spec_from_dict(data={"exp_id": "fig_interference",
                                 "tenants": "gups"})


def test_spec_json_round_trip_is_exact():
    spec = api.ExperimentSpec(
        exp_id="fig_interference",
        params={"fabrics": ["mpi"]},
        cluster={"seed": 5},
        faults=FaultPlan(seed=3, drop_prob=0.01,
                         link_outages=((1, 0.0, 1e-6),)),
        tenants=("gups",
                 TenantSpec(tenant_id="t", workload="fft", n_ranks=4)))
    wire = json.loads(json.dumps(api.spec_to_dict(spec=spec)))
    assert api.spec_from_dict(data=wire) == spec


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="bogus"):
        api.spec_from_dict(data={"exp_id": "fig4", "bogus": 1})
    # removed in api 4.0 with the sharded PDES runner
    with pytest.raises(ValueError, match="shards"):
        api.spec_from_dict(data={"exp_id": "fig_scaleout", "shards": 2})
    with pytest.raises(TypeError, match="shards"):
        api.ExperimentSpec(exp_id="fig_scaleout", shards=2)


# ------------------------------------------------------------- submit ---

def test_submit_inline_end_to_end(tmp_path):
    state = str(tmp_path / "svc")
    status = api.submit(spec=api.ExperimentSpec(
        exp_id="fig4", params={"seed": 1, "nodes": [2]}),
        state_dir=state)
    assert status["state"] == "done"
    table = api.collect(job_id=status["job_id"], state_dir=state)
    assert table.columns[0] == "nodes"


def test_submit_rejects_session_scoped_fields(tmp_path):
    spec = api.ExperimentSpec(exp_id="fig4",
                              faults=FaultPlan(seed=3, drop_prob=0.1))
    with pytest.raises(ValueError, match="does not take spec.faults"):
        api.submit(spec=spec, state_dir=str(tmp_path))
    # declared, but a FaultPlan has no service-job wire form
    spec = api.ExperimentSpec(exp_id="fig_scaleout",
                              faults=FaultPlan(seed=3, drop_prob=0.1))
    with pytest.raises(ValueError, match="cannot ride a service job"):
        api.submit(spec=spec, state_dir=str(tmp_path))


def test_submit_rejects_tenant_spec_objects(tmp_path):
    spec = api.ExperimentSpec(
        exp_id="fig_interference",
        tenants=(TenantSpec(tenant_id="t", workload="gups",
                            n_ranks=4),))
    with pytest.raises(ValueError, match="workload names only"):
        api.submit(spec=spec, state_dir=str(tmp_path))


def test_submit_rejects_tenants_on_non_tenant_experiment(tmp_path):
    spec = api.ExperimentSpec(exp_id="fig4", tenants=("gups", "fft"))
    with pytest.raises(ValueError, match="does not take spec.tenants"):
        api.submit(spec=spec, state_dir=str(tmp_path))


# ------------------------------------------------------------ version ---

def test_api_version_is_five():
    assert api.__api_version__.split(".")[0] == "5"
    # 3.0 only dropped spec fields: 2.0 documents keep their meaning
    assert api.SPEC_VERSION == 2
    for name in ("run_figure", "run_sweep", "run_scaleout", "run_skew",
                 "run_agg", "submit_experiment"):
        assert not hasattr(api, name)


def test_run_is_keyword_only():
    with pytest.raises(TypeError):
        api.run(api.ExperimentSpec(exp_id="fig4"))
