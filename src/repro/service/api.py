"""Threaded HTTP/JSON API of the campaign service (stdlib only).

Endpoints::

    GET    /healthz                  liveness + queue counts
    GET    /jobs                     all jobs (queue order)
    POST   /jobs                     submit {spec, tenant?, priority?}
    GET    /jobs/<id>                one job + live progress
    DELETE /jobs/<id>                cooperative cancel
    GET    /jobs/<id>/events        chunked NDJSON progress stream
    GET    /jobs/<id>/results.csv   final verdicts (byte-identical to
                                     a foreground ``repro mot --csv``)
    GET    /jobs/<id>/metrics.json  per-job metrics snapshot
    GET    /jobs/<id>/report.txt    rendered campaign report
    GET    /                         HTML job table (browser)
    GET    /jobs/<id>/html          HTML job page (browser)

Submission: the ``spec`` object is a
:class:`repro.runner.campaign.CampaignSpec` payload.  Circuits come by
registry name (``circuit``) or as an uploaded netlist (``bench_text``,
stored content-addressed); server-local ``bench_path`` submissions are
rejected.  Artifact fields (``checkpoint_path``/``progress_path``/
``resume``) are server-owned and ignored if supplied.

Progress streaming: ``/jobs/<id>/events`` emits one JSON object per
line, chunked, with a **monotonically non-decreasing** ``completed``
count sourced from the run itself: the serial harness's progress
beacon, or the campaign journal's verdict count (what a multi-worker
run's dispatcher journals as verdicts arrive).  The stream ends with
the job's terminal state.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.runner.campaign import CampaignSpec, SpecError
from repro.runner.journal import record_checksum_ok
from repro.service.browser import render_index, render_job_page
from repro.service.executor import Executor, ExecutorConfig
from repro.service.queue import (
    TERMINAL_STATES,
    JobQueue,
    JobRecord,
    RecoveryReport,
)
from repro.service.store import JobPaths, JobStore

__all__ = ["ServiceConfig", "CampaignService", "ServiceServer", "serve"]

log = logging.getLogger("repro.service.api")

#: Fields of a submitted spec the server owns (always overwritten by
#: the executor with per-job paths; accepted but ignored on submit).
_SERVER_OWNED_SPEC_FIELDS = ("checkpoint_path", "progress_path", "resume")


@dataclass(frozen=True)
class ServiceConfig:
    """Server-level knobs (the executor's are in ExecutorConfig)."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    tenant_quota: Optional[int] = None
    aging_interval: float = 60.0
    #: Seconds between event-stream polls.
    events_poll: float = 0.2
    #: Seconds between keep-alive events when nothing changes.
    events_keepalive: float = 5.0


class CampaignService:
    """Composition root: store + queue + executor, one service root."""

    def __init__(
        self, root: str, config: Optional[ServiceConfig] = None
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = JobStore(root)
        self.queue = JobQueue(
            self.store.queue_journal_path,
            aging_interval=self.config.aging_interval,
        )
        self.executor = Executor(
            self.queue,
            self.store,
            ExecutorConfig(
                workers=self.config.workers,
                tenant_quota=self.config.tenant_quota,
            ),
        )
        self._submit_lock = threading.Lock()

    # --------------------------------------------------------- lifecycle
    def startup(self) -> RecoveryReport:
        """Replay the queue journal and start the worker pool."""
        report = self.queue.load()
        if report.resumed:
            log.info(
                "recovered %d interrupted job(s) for resume: %s",
                len(report.resumed), ", ".join(report.resumed),
            )
        if report.corrupt_lines:
            log.warning(
                "queue journal: %d corrupt line(s) skipped",
                report.corrupt_lines,
            )
        self.executor.start()
        return report

    def shutdown(self, interrupt: bool = True) -> None:
        self.executor.stop(interrupt=interrupt)

    # -------------------------------------------------------- operations
    def submit(
        self,
        spec_payload: Dict[str, Any],
        tenant: str = "default",
        priority: int = 0,
    ) -> JobRecord:
        """Validate and enqueue one job; returns its record."""
        if not isinstance(spec_payload, dict):
            raise SpecError("spec must be a JSON object")
        payload = dict(spec_payload)
        for field in _SERVER_OWNED_SPEC_FIELDS:
            payload.pop(field, None)
        if payload.get("bench_path"):
            raise SpecError(
                "bench_path is not accepted over the API; upload the "
                "netlist as bench_text instead"
            )
        bench_text = payload.pop("bench_text", None)
        if bench_text is not None:
            if not isinstance(bench_text, str) or not bench_text.strip():
                raise SpecError("bench_text must be a non-empty string")
            payload["bench_path"] = self.store.add_circuit(bench_text)
        # Validation happens at the API boundary: a bad spec is a 400
        # now, not a failed job later.  (Whether the circuit *parses*
        # is still the job's concern -- an unreadable netlist fails the
        # job, exercising the failure path end to end.)
        CampaignSpec.from_payload(payload)
        with self._submit_lock:
            job_id = self.queue.next_job_id()
            job = self.queue.submit(
                job_id, payload, tenant=tenant, priority=priority
            )
        paths = self.store.create_job_dir(job_id)
        self.store.write_json(paths.job_json, job.to_payload())
        self.executor.notify()
        log.info("job %s submitted (tenant %s)", job_id, tenant)
        return job

    def cancel(self, job_id: str) -> str:
        return self.executor.cancel(job_id)

    # ---------------------------------------------------------- progress
    def progress(self, job: JobRecord) -> Optional[int]:
        """Live completed-fault count for *job*: the larger of the
        serial harness beacon (``<job>/progress``) and the campaign
        journal's verdict count.  ``None`` when the job has not started
        producing either.
        """
        paths = self.store.paths(job.job_id)
        counts: List[int] = []
        beacon = self._beacon_completed(paths.progress)
        if beacon is not None:
            counts.append(beacon)
        journal = self._journal_completed(paths)
        if journal is not None:
            counts.append(journal)
        if not counts:
            return None
        return max(counts)

    @staticmethod
    def _beacon_completed(path: str) -> Optional[int]:
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        completed = payload.get("completed")
        return completed if isinstance(completed, int) else None

    @staticmethod
    def _journal_completed(paths: JobPaths) -> Optional[int]:
        try:
            with open(paths.journal) as handle:
                lines = handle.readlines()
        except OSError:
            return None
        count = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if (
                isinstance(record, dict)
                and record.get("kind") == "verdict"
                and record_checksum_ok(record)
            ):
                count += 1
        return count

    def job_payload(self, job: JobRecord) -> Dict[str, Any]:
        payload = job.to_payload()
        payload["completed"] = self.progress(job)
        return payload


class ServiceServer(ThreadingHTTPServer):
    """The HTTP server; one handler thread per connection."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service: CampaignService) -> None:
        self.service = service
        super().__init__(
            (service.config.host, service.config.port), _Handler
        )
        # Written for clients and tests: the OS-assigned ephemeral port
        # is only known after bind.
        service.store.write_json(
            service.store.service_json_path,
            {
                "host": self.server_address[0],
                "port": self.server_address[1],
                "pid": os.getpid(),
            },
        )

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ServiceServer

    # ------------------------------------------------------------ plumbing
    @property
    def service(self) -> CampaignService:
        return self.server.service

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        log.debug("%s -- %s", self.address_string(), format % args)

    def _send_json(
        self, payload: Dict[str, Any], status: int = 200
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _send_body(
        self, body: bytes, content_type: str, status: int = 200
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise SpecError("request body required")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SpecError(f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise SpecError("request body must be a JSON object")
        return payload

    def _route(self) -> Tuple[str, List[str]]:
        path = self.path.split("?", 1)[0]
        parts = [p for p in path.split("/") if p]
        return path, parts

    # -------------------------------------------------------------- verbs
    def do_GET(self) -> None:  # noqa: N802 - http.server convention
        _path, parts = self._route()
        try:
            if not parts:
                self._browser_index()
            elif parts == ["healthz"]:
                self._send_json(
                    {"ok": True, "counts": self.service.queue.counts()}
                )
            elif parts == ["jobs"]:
                jobs = [
                    self.service.job_payload(job)
                    for job in self.service.queue.jobs()
                ]
                self._send_json({"jobs": jobs})
            elif len(parts) == 2 and parts[0] == "jobs":
                job = self.service.queue.get(parts[1])
                self._send_json({"job": self.service.job_payload(job)})
            elif len(parts) == 3 and parts[0] == "jobs":
                self._job_subresource(parts[1], parts[2])
            else:
                self._send_error_json(404, f"no such resource: {self.path}")
        except ServiceError as exc:
            self._send_error_json(404, str(exc))
        except BrokenPipeError:
            pass

    def do_POST(self) -> None:  # noqa: N802
        _path, parts = self._route()
        try:
            if parts == ["jobs"]:
                body = self._read_json_body()
                spec = body.get("spec")
                if not isinstance(spec, dict):
                    raise SpecError("body must carry a 'spec' object")
                tenant = str(body.get("tenant", "default"))
                priority = body.get("priority", 0)
                if not isinstance(priority, int):
                    raise SpecError("priority must be an integer")
                job = self.service.submit(
                    spec, tenant=tenant, priority=priority
                )
                self._send_json(
                    {"job": self.service.job_payload(job)}, status=201
                )
            else:
                self._send_error_json(404, f"no such resource: {self.path}")
        except SpecError as exc:
            self._send_error_json(400, str(exc))
        except ServiceError as exc:
            self._send_error_json(409, str(exc))
        except BrokenPipeError:
            pass

    def do_DELETE(self) -> None:  # noqa: N802
        _path, parts = self._route()
        try:
            if len(parts) == 2 and parts[0] == "jobs":
                outcome = self.service.cancel(parts[1])
                job = self.service.queue.get(parts[1])
                self._send_json(
                    {
                        "cancel": outcome,
                        "job": self.service.job_payload(job),
                    }
                )
            else:
                self._send_error_json(404, f"no such resource: {self.path}")
        except ServiceError as exc:
            self._send_error_json(409, str(exc))
        except BrokenPipeError:
            pass

    # ----------------------------------------------------- sub-resources
    def _job_subresource(self, job_id: str, resource: str) -> None:
        service = self.service
        job = service.queue.get(job_id)  # raises ServiceError -> 404
        paths = service.store.paths(job_id)
        if resource == "events":
            self._stream_events(job_id)
            return
        if resource == "html":
            page = render_job_page(
                service.job_payload(job),
                supervision=service.store.read_text(paths.supervision_log),
            )
            self._send_body(page.encode("utf-8"), "text/html; charset=utf-8")
            return
        artifact = {
            "results.csv": (paths.results_csv, "text/csv"),
            "metrics.json": (paths.metrics, "application/json"),
            "report.txt": (paths.report, "text/plain; charset=utf-8"),
        }.get(resource)
        if artifact is None:
            self._send_error_json(
                404, f"no such job resource: {resource!r}"
            )
            return
        path, content_type = artifact
        text = service.store.read_text(path)
        if text is None:
            self._send_error_json(
                404,
                f"{resource} not available for job {job_id} "
                f"(state: {job.state})",
            )
            return
        self._send_body(text.encode("utf-8"), content_type)

    # ------------------------------------------------------ event stream
    def _stream_events(self, job_id: str) -> None:
        """Chunked NDJSON: monotonic completed counts until terminal.

        Monotonicity is enforced *here*: beacons and journal tails may
        momentarily disagree (a beacon rewrite races the journal
        flush), so the stream never emits a count lower than one it
        already sent.
        """
        service = self.service
        config = service.config
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        last_completed = -1
        last_state = ""
        last_emit = 0.0
        try:
            while True:
                job = service.queue.get(job_id)
                completed = service.progress(job)
                now = time.time()
                changed = (
                    job.state != last_state
                    or (completed is not None and completed > last_completed)
                )
                keepalive = now - last_emit >= config.events_keepalive
                if changed or keepalive:
                    if completed is not None:
                        last_completed = max(last_completed, completed)
                    last_state = job.state
                    last_emit = now
                    self._write_chunk(
                        {
                            "job": job_id,
                            "state": job.state,
                            "completed": max(last_completed, 0),
                            "ts": now,
                        }
                    )
                if job.state in TERMINAL_STATES:
                    break
                time.sleep(config.events_poll)
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _write_chunk(self, payload: Dict[str, Any]) -> None:
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data + b"\r\n")
        self.wfile.flush()

    # ----------------------------------------------------------- browser
    def _browser_index(self) -> None:
        jobs = [
            self.service.job_payload(job)
            for job in self.service.queue.jobs()
        ]
        page = render_index(jobs, counts=self.service.queue.counts())
        self._send_body(page.encode("utf-8"), "text/html; charset=utf-8")


def serve(
    root: str,
    config: Optional[ServiceConfig] = None,
) -> Tuple[CampaignService, ServiceServer]:
    """Build, recover and bind a service; caller runs ``serve_forever``."""
    service = CampaignService(root, config)
    service.startup()
    server = ServiceServer(service)
    log.info("campaign service on %s (root %s)", server.url, root)
    return service, server
