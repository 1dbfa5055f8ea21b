"""Worker pool of the campaign service.

Each executor thread loops: claim the best eligible job from the
persistent queue (priority + aging, per-tenant quota), run it through
:func:`repro.runner.campaign.run_campaign`, and journal the terminal
transition.  Per-job isolation comes from three existing mechanisms:

* **artifact paths** -- the spec's ``checkpoint_path`` and
  ``progress_path`` are rewritten into the job's own directory
  (:class:`~repro.service.store.JobPaths`), so journals, ``.events``
  sidecars, ``.corrupt`` quarantines and progress beacons of
  concurrent jobs can never collide;
* **metrics** -- every job runs inside
  :func:`repro.obs.scoped_metrics`, a thread-local registry override,
  so concurrent campaigns in one process keep separate counters (the
  per-job snapshot lands in ``metrics.json``);
* **cancellation** -- each running job owns a ``threading.Event``
  plumbed through to the executor (the deferred-SIGINT path
  triggered programmatically); ``DELETE /jobs/<id>`` sets it.

Crash safety is delegated to the journals: a job interrupted by server
death is recorded as ``running`` in the queue journal, so the next
startup re-enqueues it with ``resume=True`` and the campaign journal's
manifest validation guarantees no verdict is lost or duplicated.  A
*graceful* shutdown with ``interrupt=True`` takes the same route on
purpose: running campaigns are cancelled but left in ``running`` state,
to be resumed by the next server.
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CampaignInterrupted, ReproError, ServiceError
from repro.obs import get_metrics, scoped_metrics
from repro.runner.campaign import (
    CampaignResult,
    CampaignSpec,
    SpecError,
    run_campaign,
)
from repro.service.queue import JobQueue, JobRecord
from repro.service.store import JobPaths, JobStore

__all__ = ["ExecutorConfig", "Executor", "render_result_csv"]

log = logging.getLogger("repro.service.executor")


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs of the worker pool.

    ``workers`` is the number of concurrent jobs; ``tenant_quota``
    bounds how many of them one tenant may occupy (``None`` =
    unlimited); ``poll_interval`` is the idle wait between queue polls
    when no submission notification arrives.
    """

    workers: int = 1
    tenant_quota: Optional[int] = None
    poll_interval: float = 0.5


def render_result_csv(result: CampaignResult) -> str:
    """The results CSV for one finished campaign.

    MOT-family campaigns reuse :func:`repro.reporting.campaign.campaign_csv`
    verbatim -- the byte-identity guarantee against a foreground
    ``repro mot --csv`` run rests on sharing that code path.
    Conventional (``fsim``) campaigns get a small fixed schema.
    """
    if result.kind == "fsim":
        lines = ["fault,detected"]
        for verdict in result.campaign.verdicts:
            fault = verdict.fault.describe(result.circuit)
            lines.append(f"{fault},{int(verdict.detected)}")
        return "\n".join(lines) + "\n"
    from repro.reporting.campaign import campaign_csv

    return campaign_csv(result.campaign, result.circuit)


def summarize_result(result: CampaignResult) -> Dict[str, Any]:
    """The completion summary journaled with the ``done`` transition."""
    campaign = result.campaign
    if result.kind == "fsim":
        return {
            "kind": result.kind,
            "label": result.label,
            "detected": campaign.detected,
            "total": campaign.total,
        }
    return {
        "kind": result.kind,
        "label": result.label,
        "conv_detected": campaign.conv_detected,
        "mot_detected": campaign.mot_detected,
        "total_detected": campaign.total_detected,
        "total": campaign.total,
        "errored": campaign.errored,
        "aborted": campaign.aborted_budget,
    }


class Executor:
    """The worker pool.  ``start()`` spawns the threads; ``stop()``
    winds them down (optionally interrupting running jobs so the next
    server resumes them)."""

    def __init__(
        self,
        queue: JobQueue,
        store: JobStore,
        config: Optional[ExecutorConfig] = None,
    ) -> None:
        self.queue = queue
        self.store = store
        self.config = config or ExecutorConfig()
        if self.config.workers < 1:
            raise ServiceError(
                f"workers must be >= 1, got {self.config.workers}"
            )
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._wake = threading.Condition()
        # job_id -> (tenant, cancel event); guarded by _claim_lock.
        self._running: Dict[str, Tuple[str, threading.Event]] = {}
        self._claim_lock = threading.Lock()

    # --------------------------------------------------------- lifecycle
    def start(self) -> None:
        self._stop.clear()
        for k in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{k}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def stop(self, interrupt: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool.

        ``interrupt=True`` fires every running job's cancel event but
        journals **no** terminal transition for them: they stay
        ``running`` in the queue journal and the next server startup
        resumes them from their campaign journals -- a graceful
        shutdown and a crash recover identically.
        """
        self._stop.set()
        if interrupt:
            with self._claim_lock:
                for _tenant, event in self._running.values():
                    event.set()
        with self._wake:
            self._wake.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def notify(self) -> None:
        """Wake idle workers (called by the API after a submission)."""
        with self._wake:
            self._wake.notify_all()

    # ------------------------------------------------------------ cancel
    def cancel(self, job_id: str) -> str:
        """Cooperatively cancel *job_id*.

        Queued jobs transition to ``cancelled`` immediately (returns
        ``"cancelled"``); running jobs get their cancel event set and
        the executor completes the transition at the next fault
        boundary (returns ``"cancelling"``).  Unknown or already
        terminal jobs raise :class:`~repro.errors.ServiceError`.
        """
        if self.queue.cancel_queued(job_id):
            return "cancelled"
        with self._claim_lock:
            entry = self._running.get(job_id)
        if entry is None:
            # Claimed between our check and now, or finished: surface
            # the current state.
            state = self.queue.get(job_id).state
            raise ServiceError(
                f"job {job_id} is {state}; cannot cancel"
            )
        entry[1].set()
        return "cancelling"

    def running_jobs(self) -> List[str]:
        with self._claim_lock:
            return sorted(self._running)

    # ------------------------------------------------------ worker loop
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self._claim()
            if job is None:
                with self._wake:
                    self._wake.wait(self.config.poll_interval)
                continue
            try:
                self._run_job(job)
            finally:
                with self._claim_lock:
                    self._running.pop(job.job_id, None)

    def _claim(self) -> Optional[JobRecord]:
        with self._claim_lock:
            running_by_tenant: Dict[str, int] = {}
            for tenant, _event in self._running.values():
                running_by_tenant[tenant] = (
                    running_by_tenant.get(tenant, 0) + 1
                )
            job = self.queue.claim(
                running_by_tenant, self.config.tenant_quota
            )
            if job is not None:
                self._running[job.job_id] = (job.tenant, threading.Event())
            return job

    # ------------------------------------------------------------ one job
    def _job_spec(self, job: JobRecord, paths: JobPaths) -> CampaignSpec:
        """The job's spec with artifact paths pinned to its directory."""
        spec = CampaignSpec.from_payload(job.spec)
        resume = os.path.exists(paths.journal)
        return replace(
            spec,
            checkpoint_path=paths.journal,
            progress_path=paths.progress,
            resume=resume,
        )

    def _run_job(self, job: JobRecord) -> None:
        with self._claim_lock:
            entry = self._running.get(job.job_id)
        cancel_event = entry[1] if entry else threading.Event()
        paths = self.store.create_job_dir(job.job_id)
        log.info(
            "job %s started (tenant %s%s)",
            job.job_id, job.tenant, ", resume" if job.resume else "",
        )
        outcome: Optional[Tuple[str, Optional[str], Optional[Dict[str, Any]]]]
        with scoped_metrics() as registry:
            metrics = get_metrics()
            if job.started_at is not None:
                metrics.observe(
                    "service.queue.wait_s",
                    max(0.0, job.started_at - job.submitted_at),
                )
            if job.resume:
                metrics.counter("service.jobs.resumed")
            try:
                spec = self._job_spec(job, paths)
                result = run_campaign(spec, cancel_event=cancel_event)
            except CampaignInterrupted as exc:
                if self._stop.is_set():
                    # Shutdown interrupted the campaign (graceful stop
                    # or a SIGINT that reached every thread): leave the
                    # job ``running`` so the next server resumes it.
                    outcome = None
                else:
                    metrics.counter("service.jobs.cancelled")
                    outcome = (
                        "cancelled",
                        f"cancelled after {exc.completed} verdicts",
                        None,
                    )
            except (ReproError, SpecError) as exc:
                metrics.counter("service.jobs.failed")
                outcome = ("failed", str(exc), None)
            except Exception as exc:  # noqa: BLE001 - quarantine, log, fail
                log.exception("job %s crashed", job.job_id)
                metrics.counter("service.jobs.failed")
                outcome = ("failed", f"{type(exc).__name__}: {exc}", None)
            else:
                metrics.counter("service.jobs.completed")
                self._write_artifacts(paths, result)
                outcome = ("done", None, summarize_result(result))
            snapshot = registry.snapshot()
        self.store.write_json(paths.metrics, snapshot.to_payload())
        if outcome is None:
            log.info("job %s interrupted by shutdown; left running",
                     job.job_id)
            return
        state, error, summary = outcome
        try:
            self.queue.finish(
                job.job_id, state, error=error, result=summary
            )
        except ServiceError:
            # A racing transition (e.g. direct cancel of a job that
            # finished in the same instant) already closed it.
            log.warning("job %s: terminal transition raced", job.job_id)
        log.info(
            "job %s %s%s", job.job_id, state, f": {error}" if error else ""
        )

    def _write_artifacts(
        self, paths: JobPaths, result: CampaignResult
    ) -> None:
        self.store.write_text(paths.results_csv, render_result_csv(result))
        if result.kind != "fsim":
            from repro.reporting.campaign import render_campaign_report

            report = render_campaign_report(result.campaign, result.circuit)
            if result.supervised:
                from repro.reporting.campaign import (
                    render_supervision_report,
                )

                report += "\n" + render_supervision_report(result.stats)
            self.store.write_text(paths.report, report)
