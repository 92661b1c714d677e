"""The experiment service: queue, coalescing, streaming, gate, resume.

Everything here drives :class:`repro.service.ExperimentService` in its
hermetic in-process mode (``run_pending`` — no worker thread, no
sockets) except the one TCP round-trip test, which binds an ephemeral
localhost port.  The acceptance-critical properties:

* priority ordering (higher first, FIFO ties);
* strictly monotone event sequences with non-decreasing progress;
* duplicate concurrent submissions coalesce to exactly one executor
  invocation (asserted via the ``exec.cache`` / ``service.jobs`` obs
  counters);
* non-draining shutdown persists queued jobs and a fresh daemon on the
  same state dir resumes them;
* the golden gate refuses publication when the computed table diverges
  from the committed snapshot.
"""

import json
import os
import threading

import pytest

import repro.api as api
from repro.golden import GOLDEN_CONFIGS, GoldenStore
from repro.obs import registry as obsreg
from repro.service import (
    ExperimentService,
    InlineClient,
    ServiceClient,
    ServiceError,
    ServiceServer,
    job_key,
    load_events,
)

TINY = {"seed": 1, "nodes": [2]}
REPO_GOLDENS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "goldens",
)


@pytest.fixture
def service(tmp_path):
    svc = ExperimentService(str(tmp_path / "state"))
    yield svc
    svc.close(drain=True)


def _kinds(events):
    return [e["kind"] for e in events]


# ----------------------------------------------------------- lifecycle ---


def test_submit_run_collect_round_trip(service):
    job = service.submit("fig4", params=TINY)
    assert job["state"] == "queued"
    assert not job["attached"]
    assert service.run_pending() == 1
    status = service.status(job["job_id"])
    assert status["state"] == "done"
    assert status["published"] is True
    record = service.collect(job["job_id"])
    assert record["table"]["columns"][0] == "nodes"
    assert job["job_id"] in record["job_ids"]


def test_unknown_job_raises(service):
    with pytest.raises(ServiceError, match="unknown job"):
        service.status("nope")
    with pytest.raises(ServiceError, match="unknown job"):
        service.collect("nope")


def test_failed_job_reports_error(service):
    job = service.submit("fig4", params={"bogus_kwarg": 1})
    service.run_pending()
    assert service.status(job["job_id"])["state"] == "failed"
    with pytest.raises(ServiceError, match="failed"):
        service.collect(job["job_id"])
    kinds = _kinds(service.events(job["job_id"], follow=False))
    assert kinds[-1] == "failed"


# ------------------------------------------------------------ ordering ---


def test_queue_priority_ordering(service):
    low = service.submit("fig4", params={"seed": 1, "nodes": [2]})
    high = service.submit("fig4", params={"seed": 2, "nodes": [2]},
                          priority=10)
    mid = service.submit("fig4", params={"seed": 3, "nodes": [2]},
                         priority=5)
    assert service.run_pending() == 3
    started = {
        name: service.status(j["job_id"])["started_at"]
        for name, j in (("low", low), ("high", high), ("mid", mid))
    }
    assert started["high"] < started["mid"] < started["low"]


def test_fifo_among_equal_priorities(service):
    first = service.submit("fig4", params={"seed": 4, "nodes": [2]})
    second = service.submit("fig4", params={"seed": 5, "nodes": [2]})
    service.run_pending()
    assert (
        service.status(first["job_id"])["started_at"]
        < service.status(second["job_id"])["started_at"]
    )


# ------------------------------------------------------------ progress ---


def test_progress_events_monotone(service):
    job = service.submit("fig4", params=TINY)
    service.run_pending()
    events = list(service.events(job["job_id"], follow=False))
    kinds = _kinds(events)
    assert kinds[0] == "queued"
    assert kinds[-1] == "finished"
    assert "started" in kinds and "progress" in kinds
    assert len(events) >= 3
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    progress = [e for e in events if e["kind"] == "progress"]
    done = [e["points_done"] for e in progress]
    assert done == sorted(done)
    assert all(e["cache_hits"] >= 0 for e in progress)


def test_progress_samples_obs_series(service):
    with obsreg.session():
        job = service.submit("fig4", params=TINY)
        service.run_pending()
        (progress,) = [
            e
            for e in service.events(job["job_id"], follow=False)
            if e["kind"] == "progress"
        ]
    assert progress["points_done"] >= 1
    assert progress["sim_clock"] > 0.0
    assert progress["queue_depth"] == 0


def test_watch_from_seq_replays_suffix(service):
    job = service.submit("fig4", params=TINY)
    service.run_pending()
    tail = list(service.events(job["job_id"], from_seq=2,
                               follow=False))
    assert all(e["seq"] > 2 for e in tail)
    assert tail[-1]["kind"] == "finished"


# ---------------------------------------------------------- coalescing ---


def test_duplicate_submission_attaches(service):
    job = service.submit("fig4", params=TINY)
    dup = service.submit("fig4", params=TINY)
    assert dup["attached"]
    assert dup["job_id"] == job["job_id"]
    assert dup["subscribers"] == 2
    kinds = _kinds(service.events(job["job_id"], follow=False))
    assert "attached" in kinds


def test_different_specs_do_not_coalesce(service):
    a = service.submit("fig4", params={"seed": 1, "nodes": [2]})
    b = service.submit("fig4", params={"seed": 2, "nodes": [2]})
    assert a["job_id"] != b["job_id"]
    assert not b["attached"]


def test_concurrent_identical_submissions_one_execution(tmp_path):
    """Regression: two clients racing the same spec must coalesce to
    one job and exactly one executor invocation — one figure-level
    cache miss, zero hits, ``service.jobs.executed == 1``."""
    with obsreg.session() as reg:
        service = ExperimentService(str(tmp_path / "state"))
        barrier = threading.Barrier(2)
        results = []

        def client():
            barrier.wait()
            results.append(service.submit("fig4", params=TINY))

        threads = [threading.Thread(target=client) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert service.run_pending() == 1
        service.close(drain=True)

        assert len({r["job_id"] for r in results}) == 1
        assert sorted(r["attached"] for r in results) == [False, True]
        assert reg.value("service.jobs.submitted") == 1
        assert reg.value("service.jobs.coalesced") == 1
        assert reg.value("service.jobs.executed") == 1
        assert reg.total("exec.cache.misses") == 1
        assert reg.total("exec.cache.hits") == 0


def test_resubmit_after_completion_warm_hits_cache(tmp_path):
    with obsreg.session() as reg:
        service = ExperimentService(str(tmp_path / "state"))
        first = service.submit("fig4", params=TINY)
        service.run_pending()
        second = service.submit("fig4", params=TINY)
        service.run_pending()
        service.close(drain=True)
        assert second["job_id"] != first["job_id"]
        assert reg.value("service.jobs.executed") == 2
        assert reg.total("exec.cache.hits") == 1
    # both jobs share the content hash, so one store record
    assert job_key("fig4", TINY) is not None


# ------------------------------------------------------ drain + resume ---


def test_graceful_shutdown_persists_and_resumes(tmp_path):
    state = str(tmp_path / "state")
    with obsreg.session() as reg:
        service = ExperimentService(state)
        a = service.submit("fig4", params={"seed": 1, "nodes": [2]},
                           priority=1)
        b = service.submit("fig4", params={"seed": 2, "nodes": [2]})
        service.close(drain=False)
        assert (tmp_path / "state" / "pending.jsonl").exists()
        for job in (a, b):
            kinds = _kinds(load_events(state, job["job_id"]))
            assert kinds[-1] == "suspended"

        resumed = ExperimentService(state)
        assert reg.value("service.jobs.resumed") == 2
        assert resumed.queue.depth() == 2
        assert not (tmp_path / "state" / "pending.jsonl").exists()
        assert resumed.run_pending() == 2
        for job in (a, b):
            assert resumed.status(job["job_id"])["state"] == "done"
        resumed.close(drain=True)


def test_drain_close_finishes_queued_work(tmp_path):
    service = ExperimentService(str(tmp_path / "state"))
    job = service.submit("fig4", params=TINY)
    service.close(drain=True)
    assert service.store.get_by_job(job["job_id"]) is not None
    with pytest.raises(ServiceError, match="closed"):
        service.submit("fig4", params=TINY)


def test_worker_thread_drain(tmp_path):
    """The daemon path: worker + sampler threads, drain() blocking."""
    service = ExperimentService(str(tmp_path / "state"),
                                poll_interval=0.01)
    service.start()
    job = service.submit("fig4", params=TINY)
    record = service.collect(job["job_id"], timeout=60)
    assert record["published"]
    service.close(drain=True, timeout=60)


# --------------------------------------------------------- golden gate ---


def _mutated_goldens(tmp_path, params):
    """A goldens dir whose fig4 snapshot for ``params`` is perturbed."""
    gdir = tmp_path / "goldens"
    store = GoldenStore(str(gdir))
    table = api.run(spec=api.ExperimentSpec(exp_id="fig4", params=params))
    store.record("fig4", params, table)
    (path,) = [p for p in gdir.iterdir() if p.name.startswith("fig4-")]
    entry = json.loads(path.read_text())
    entry["table"]["rows"][0][1] += 0.5
    path.write_text(json.dumps(entry))
    return str(gdir)


def test_golden_gate_refuses_mutated_result(tmp_path):
    params = {"seed": 2017, "nodes": (2,)}
    gdir = _mutated_goldens(tmp_path, params)
    service = ExperimentService(str(tmp_path / "state"),
                                goldens_dir=gdir)
    job = service.submit("fig4", params={"seed": 2017, "nodes": [2]})
    service.run_pending()
    record = service.collect(job["job_id"])
    assert record["published"] is False
    assert record["golden"]["checked"]
    assert record["golden"]["diffs"]
    assert service.status(job["job_id"])["published"] is False
    with pytest.raises(ServiceError, match="not published"):
        api.collect(job_id=job["job_id"],
                    state_dir=str(tmp_path / "state"),
                    goldens_dir=gdir)
    service.close(drain=True)


def test_golden_gate_publishes_matching_result(tmp_path):
    """Submitting a figure's pinned golden config against the repo's
    committed snapshots publishes (the service-smoke CI contract)."""
    service = ExperimentService(str(tmp_path / "state"),
                                goldens_dir=REPO_GOLDENS)
    job = service.submit("fig4", params=dict(GOLDEN_CONFIGS["fig4"]))
    service.run_pending()
    record = service.collect(job["job_id"])
    assert record["golden"] == {
        "checked": True,
        "ok": True,
        "published": True,
        "diffs": [],
    }
    service.close(drain=True)


def test_ungated_spec_publishes_without_golden(service):
    job = service.submit("fig4", params=TINY)
    service.run_pending()
    record = service.collect(job["job_id"])
    assert record["published"] is True
    assert record["golden"]["checked"] is False


# ------------------------------------------------------------ api face ---


def test_api_submit_poll_collect_inline(tmp_path):
    state = str(tmp_path / "state")
    job = api.submit(spec=api.ExperimentSpec("fig4", TINY), state_dir=state)
    assert job["state"] == "done"
    status = api.poll(job_id=job["job_id"], state_dir=state)
    assert status["published"] is True
    table = api.collect(job_id=job["job_id"], state_dir=state)
    assert table.columns[0] == "nodes"


def test_inline_client_matches_service_results(tmp_path):
    inline = InlineClient(str(tmp_path / "a"))
    job = inline.submit("fig4", params=TINY)
    record = inline.collect(job["job_id"])

    service = ExperimentService(str(tmp_path / "b"))
    direct = service.submit("fig4", params=TINY)
    service.run_pending()
    expected = service.collect(direct["job_id"])
    service.close(drain=True)

    assert record["table"] == expected["table"]
    assert record["key"] == expected["key"]


# ------------------------------------------------------------- the TCP ---


def test_tcp_round_trip(tmp_path):
    service = ExperimentService(str(tmp_path / "state"),
                                poll_interval=0.01)
    server = ServiceServer(service, port=0).start()
    host, port = server.address
    client = ServiceClient(host, port)
    try:
        job = client.submit("fig4", params=TINY)
        events = list(client.watch(job["job_id"], timeout=60))
        kinds = [e["kind"] for e in events]
        assert len(events) >= 3
        assert kinds[0] == "queued" and kinds[-1] == "finished"
        record = client.collect(job["job_id"], timeout=60)
        assert record["published"] is True
        assert client.stats()["jobs"].get("done", 0) >= 1
        assert client.status(job["job_id"])["state"] == "done"
    finally:
        server.stop(drain=True)


def test_tcp_unknown_job_is_an_error(tmp_path):
    service = ExperimentService(str(tmp_path / "state"))
    server = ServiceServer(service, port=0).start()
    host, port = server.address
    try:
        with pytest.raises(ServiceError, match="unknown job"):
            ServiceClient(host, port).status("nope")
    finally:
        server.stop(drain=True)
