"""The benchmark at a tiny size: every workload runs and is correct,
failures are counted rather than fatal, and the digest follows the
seed.  Run with ``python3 -m pytest perfbench/tests -q``."""

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from perfbench import bench
from perfbench.instrument import SimMeter
from perfbench.workloads import ROOT, WORKLOADS, digest


def _quiet(*_args):
    pass


def _tiny(name, **params):
    w = WORKLOADS[name].shrunk()
    return dataclasses.replace(w, params={**w.params, **params})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_with_every_metric(name):
    result = bench.run(_tiny(name), seed=1, seconds=0, trace=False,
                       log=_quiet)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = bench.declared_metrics("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric in ("wall_s", "setup_s", "msgs_per_s", "peak_rss_mb",
                   "ok_share", "flow_err"):
        assert result["metrics"][metric]["value"] > 0, metric
    assert result["metrics"]["ok_share"]["value"] == 1.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_obs(name):
    lines = []
    result = bench.run(_tiny(name), seed=1, seconds=0, trace=True,
                       log=lines.append)
    assert result["correct"], "\n".join(lines)
    units = bench.declared_metrics("per_layer")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    # untraced, obs-enabled and traced operations share one digest
    assert len([ln for ln in lines if ln.startswith("  digest")]) == 1
    assert "," not in next(ln for ln in lines if ln.startswith("  digest"))
    assert sum("cross-check" in ln for ln in lines) == 3
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_layers_predicted_idle_stay_idle():
    dv = bench.run(_tiny("gups-dv-256"), seed=1, seconds=0, trace=True,
                   log=_quiet)["metrics"]
    assert dv["ib.mpi.sends"]["value"] == 0
    assert dv["ib.fabric.transfers"]["value"] == 0
    assert dv["dv.flow.packets"]["value"] > 0
    mpi = bench.run(_tiny("gups-mpi-256"), seed=1, seconds=0, trace=True,
                    log=_quiet)["metrics"]
    assert mpi["dv.flow.packets"]["value"] == 0
    assert mpi["ib.mpi.sends"]["value"] > 0


def test_tampered_golden_is_a_counted_failure(tmp_path):
    goldens = tmp_path / "goldens"
    shutil.copytree(os.path.join(ROOT, "goldens"), goldens)
    path = next(goldens.glob("fig4-*.json"))
    entry = json.loads(path.read_text())
    rows = entry["table"]["rows"]
    col = next(i for i, v in enumerate(rows[0]) if isinstance(v, float))
    rows[0][col] *= 2.0
    path.write_text(json.dumps(entry))
    w = _tiny("goldens", figs=["fig4"], golden_root=str(goldens))
    lines = []
    result = bench.run(w, seed=1, seconds=0, trace=False, log=lines.append)
    assert any("fig4: 1 cell(s) differ from the golden" in ln
               for ln in lines), lines
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_share"]["value"] == 0.0


def test_failed_gups_validation_is_a_counted_failure(monkeypatch):
    from repro.kernels import gups

    real = gups.serial_gups_table

    def wrong(*args, **kwargs):
        table = real(*args, **kwargs)
        table[0] ^= np.uint64(1)
        return table

    monkeypatch.setattr(gups, "serial_gups_table", wrong)
    lines = []
    result = bench.run(_tiny("gups-mpi-256"), seed=1, seconds=0,
                       trace=False, log=lines.append)
    assert any("differs from the serial replay" in ln for ln in lines)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_raising_operation_is_a_counted_failure(monkeypatch):
    from repro.core import cluster

    def deadlock(*args, **kwargs):
        raise RuntimeError("deadlock: rank0 never finished")

    monkeypatch.setattr(cluster, "run_spmd", deadlock)
    monkeypatch.setattr("repro.kernels.gups.run_spmd", deadlock)
    result = bench.run(_tiny("gups-dv-256"), seed=1, seconds=0,
                       trace=False, log=_quiet)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def _gups_digest(seed):
    op = _tiny("gups-dv-256").bind(seed)
    meter = SimMeter()
    errors, outputs = op(meter)
    assert not errors
    return digest(outputs)


def test_digest_follows_the_seed():
    assert _gups_digest(1) == _gups_digest(1)
    assert _gups_digest(1) != _gups_digest(2)


def test_repeats_with_a_different_digest_fail():
    samples = [bench.Sample(1.0, 0.1, 1, 10, [], "a"),
               bench.Sample(1.0, 0.1, 1, 10, [], "b")]
    bench._check_digests(samples)
    assert not samples[0].errors and samples[1].errors
