"""repro.service — the experiment service daemon (docs/service.md).

The "serve heavy traffic" leg of the ROADMAP: a long-running daemon in
front of the PR-2 cached executor, so many concurrent clients share one
warm, deduplicating pool.  The public surface mirrors quest-ssim's
minimum — configure / run / query-progress / collect-results:

* :mod:`repro.service.queue` — :class:`Job` and the priority
  :class:`JobQueue` (higher priority first, FIFO ties), with jobs
  identified by the exec cache's content hash;
* :mod:`repro.service.daemon` — :class:`ExperimentService`: coalescing
  submission, the worker + progress-sampler loops, graceful shutdown
  with persist/resume, and the hermetic in-process mode;
* :mod:`repro.service.store` — the golden-gated
  :class:`ResultStore` layered on the content-addressed cache;
* :mod:`repro.service.protocol` / :mod:`~repro.service.server` — the
  JSON-lines wire protocol and the localhost TCP server behind
  ``repro serve``;
* :mod:`repro.service.client` — :class:`ServiceClient` (sockets) and
  :class:`InlineClient` (state-dir reads), one shared call surface.

Quick use::

    from repro.service import ExperimentService

    svc = ExperimentService(".repro-service")
    job = svc.submit("fig4", params={"seed": 2017, "nodes": [2]})
    svc.run_pending()
    record = svc.collect(job["job_id"])

``repro submit/status/watch/collect`` and
``repro.api.submit/poll/collect`` are the CLI and facade
faces of the same calls.
"""

from repro.service.client import (InlineClient, ServiceClient,
                                  parse_endpoint)
from repro.service.daemon import (EventLog, ExperimentService,
                                  load_events, load_status)
from repro.service.protocol import OPS, PROTOCOL_VERSION, ServiceError
from repro.service.queue import Job, JobQueue, job_key
from repro.service.server import ServiceServer
from repro.service.store import ResultStore, gate_result

__all__ = [
    "ExperimentService",
    "EventLog",
    "Job",
    "JobQueue",
    "ResultStore",
    "ServiceClient",
    "InlineClient",
    "ServiceServer",
    "ServiceError",
    "OPS",
    "PROTOCOL_VERSION",
    "gate_result",
    "job_key",
    "load_events",
    "load_status",
    "parse_endpoint",
]
