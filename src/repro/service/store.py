"""On-disk layout of the job server: per-job directories + uploads.

The store owns exactly two invariants:

* **Per-job isolation.**  Every artifact of a job -- campaign journal,
  its ``.events`` supervision sidecar and ``.corrupt`` quarantine, the
  progress beacon, the metrics snapshot, the results CSV, the rendered
  report -- lives under ``<root>/jobs/<job_id>/``.  The journal
  machinery derives sidecar names from the journal path
  (``journal.jsonl.events``, ``journal.jsonl.corrupt``), so two
  concurrent jobs simulating the *same* circuit can never collide: the
  predictable names are scoped by the unique job directory.
* **Content-addressed uploads.**  Submitted ``.bench`` text is stored
  once under ``<root>/circuits/<sha256>.bench`` and jobs reference the
  stored path; resubmitting the same netlist reuses the same file.

Artifact writes go through ``tmp + os.replace`` so a reader (the HTTP
API streaming a CSV, a browser tab) never observes a torn file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ServiceError

__all__ = ["JobPaths", "JobStore"]


@dataclass(frozen=True)
class JobPaths:
    """Every path one job may touch, all inside its own directory."""

    root: str

    @property
    def job_json(self) -> str:
        return os.path.join(self.root, "job.json")

    @property
    def journal(self) -> str:
        return os.path.join(self.root, "journal.jsonl")

    @property
    def supervision_log(self) -> str:
        # Derived by the supervisor as ``<journal>.events``; declared
        # here so readers do not re-derive the convention.
        return self.journal + ".events"

    @property
    def progress(self) -> str:
        return os.path.join(self.root, "progress")

    @property
    def metrics(self) -> str:
        return os.path.join(self.root, "metrics.json")

    @property
    def results_csv(self) -> str:
        return os.path.join(self.root, "results.csv")

    @property
    def report(self) -> str:
        return os.path.join(self.root, "report.txt")


class JobStore:
    """Filesystem layout under one service root directory."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(os.path.join(self.root, "jobs"), exist_ok=True)
        os.makedirs(os.path.join(self.root, "circuits"), exist_ok=True)

    # ------------------------------------------------------------ jobs
    @property
    def queue_journal_path(self) -> str:
        return os.path.join(self.root, "queue.jsonl")

    @property
    def service_json_path(self) -> str:
        return os.path.join(self.root, "service.json")

    def job_dir(self, job_id: str) -> str:
        if not job_id or "/" in job_id or job_id.startswith("."):
            raise ServiceError(f"invalid job id {job_id!r}")
        return os.path.join(self.root, "jobs", job_id)

    def paths(self, job_id: str) -> JobPaths:
        return JobPaths(self.job_dir(job_id))

    def create_job_dir(self, job_id: str) -> JobPaths:
        paths = self.paths(job_id)
        os.makedirs(paths.root, exist_ok=True)
        return paths

    def job_ids(self) -> List[str]:
        try:
            entries = os.listdir(os.path.join(self.root, "jobs"))
        except OSError:
            return []
        return sorted(e for e in entries if not e.startswith("."))

    # -------------------------------------------------------- circuits
    def add_circuit(self, bench_text: str) -> str:
        """Store *bench_text* content-addressed; returns the file path.

        Identical uploads (byte-wise, after newline normalization)
        deduplicate to the same ``circuits/<sha256>.bench`` file.
        """
        normalized = bench_text.replace("\r\n", "\n")
        if not normalized.endswith("\n"):
            normalized += "\n"
        digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()
        path = os.path.join(self.root, "circuits", f"{digest}.bench")
        if not os.path.exists(path):
            self._write_atomic(path, normalized)
        return path

    # ------------------------------------------------------- artifacts
    def write_json(self, path: str, payload: Dict[str, Any]) -> None:
        self._write_atomic(
            path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    def write_text(self, path: str, text: str) -> None:
        self._write_atomic(path, text)

    def read_json(self, path: str) -> Optional[Dict[str, Any]]:
        """The JSON object at *path*, or ``None`` when absent/corrupt."""
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def read_text(self, path: str) -> Optional[str]:
        # newline="" disables universal-newline translation: artifacts
        # (notably the CSV, whose writer emits \r\n) must round-trip
        # byte-identical through the HTTP API.
        try:
            with open(path, newline="") as handle:
                return handle.read()
        except OSError:
            return None

    @staticmethod
    def _write_atomic(path: str, text: str) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=".tmp-", suffix="~"
        )
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
