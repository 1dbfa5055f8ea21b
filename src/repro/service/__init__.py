"""Campaign-as-a-service: a long-running job server over the runner.

``repro.service`` turns the foreground campaign stack -- harness,
worker dispatch, supervisor, metrics -- into a submission API.  Five
coordinated pieces, all stdlib-only:

* :mod:`repro.service.store` -- the on-disk layout: one directory per
  job (campaign journal, supervision log, progress beacon, metrics
  snapshot, results CSV, rendered report) plus content-addressed
  circuit uploads.  Per-job directories are what keeps two concurrent
  jobs on the same circuit from ever colliding on artifact paths
  (journal ``.corrupt`` sidecars and progress beacons carry
  predictable names *within* a job directory only).
* :mod:`repro.service.queue` -- a persistent FIFO+priority queue and
  job state machine (``queued -> running -> done|failed|cancelled``)
  journaled with the CRC-sealed JSONL machinery of
  :mod:`repro.runner.journal`.  A killed server replays the journal on
  startup: terminal jobs stay terminal, ``queued`` jobs re-enqueue,
  and interrupted ``running`` jobs re-enqueue with resume semantics.
* :mod:`repro.service.executor` -- a worker-thread pool running jobs
  through :func:`repro.runner.campaign.run_campaign` with per-job
  thread-scoped metrics (:func:`repro.obs.scoped_metrics`), per-tenant
  concurrency quotas, priority aging and cooperative cancellation.
* :mod:`repro.service.api` -- the threaded HTTP/JSON API
  (``http.server``): submit, list, inspect, stream progress events
  (chunked NDJSON fed by the progress beacon and the journal), fetch
  artifacts, cancel.
* :mod:`repro.service.browser` -- a minimal HTML results browser over
  the same store.

:mod:`repro.service.client` is the thin stdlib client the ``repro
submit / jobs / fetch / cancel`` subcommands speak; anything else that
talks HTTP+JSON works just as well (``curl .../metrics.json | repro
stats -``).
"""

from __future__ import annotations

from repro.service.api import (
    CampaignService,
    ServiceConfig,
    ServiceServer,
    serve,
)
from repro.service.client import ServiceClient, discover_url
from repro.service.executor import Executor, ExecutorConfig
from repro.service.queue import (
    JOB_STATES,
    TERMINAL_STATES,
    JobQueue,
    JobRecord,
)
from repro.service.store import JobPaths, JobStore

__all__ = [
    "CampaignService",
    "Executor",
    "ExecutorConfig",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobQueue",
    "JobRecord",
    "JobPaths",
    "JobStore",
    "ServiceClient",
    "ServiceConfig",
    "ServiceServer",
    "discover_url",
    "serve",
]
