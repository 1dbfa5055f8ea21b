"""JSONL checkpoint journal for campaign runs.

A journal is an append-only JSONL file:

* line 1 -- the **manifest**: journal format version, circuit name,
  fault count, and a hash over everything that determines the campaign
  (simulator class, config, pattern sequence, fault list).  Resumption
  refuses a journal whose manifest does not match the run being resumed,
  so stale or mismatched checkpoints can never be silently merged.
* every further line -- one **verdict record**: the fault-list index,
  the serialized fault (for cross-checking), and the full
  :class:`~repro.mot.simulator.FaultVerdict` payload, so a resumed
  campaign reproduces byte-identical reports without re-simulating.

Records are buffered and flushed every ``checkpoint_every`` verdicts by
the harness (and always on interruption), bounding both the I/O cost
and the worst-case re-simulation after a crash.

Supervised campaigns additionally keep a **supervision log**
(:class:`SupervisionLog`): an append-only JSONL sidecar
(``<checkpoint>.events``) recording every supervision decision --
dispatch start, poison confirmation, dispatch failure, degradation,
interruption -- timestamped, for post-mortems.  The sidecar is separate
from the campaign journal because a fresh run legitimately recreates
the journal, while the event history of a resumed campaign must
survive.  Verdict-journal readers skip any ``kind: "event"`` records
they meet, so the two formats stay mergeable by hand.

When observability is on (:mod:`repro.obs`), a journal the serial
harness completed additionally carries one ``kind: "metrics"`` record
-- the serialized metrics registry -- appended after the last verdict.
Verdict readers skip it like events; :func:`load_metrics_payloads`
collects the payloads.

**Hardening for multi-host coordination.**  Distributed campaigns
(:mod:`repro.runner.dispatch`) use the journal as their durable merge
and deduplication substrate, which raises the bar on corruption
handling:

* every record written through :meth:`CampaignJournal.append` (and the
  manifest) carries a ``crc`` field -- a CRC-32 over the record's
  canonical JSON -- so a torn or bit-flipped line is *detected*, not
  silently replayed as a wrong verdict;
* :meth:`CampaignJournal.load` **salvages** interior corruption: a bad
  line anywhere in the file (malformed JSON, checksum mismatch,
  invalid verdict payload) is skipped, counted, and quarantined to a
  ``<path>.corrupt`` sidecar instead of killing ``--resume``.  The
  faults whose verdicts were lost are simply re-simulated.  Only an
  unreadable *manifest* still raises -- a journal whose identity line
  cannot be trusted must never be merged;
* ``kind: "lease"`` and ``kind: "host"`` records journal the
  dispatcher's coordination decisions (grants, expiries, reassignments,
  host failures) next to the verdicts they explain.  Verdict readers
  skip them; :func:`load_coordination_records` merges them (from one or
  several journals) deterministically by ``(ts, seq)``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import errno

from repro.chaos.runtime import chaos_journal_read, chaos_journal_write
from repro.circuit.netlist import Pin
from repro.errors import JournalError
from repro.faults.model import Fault
from repro.mot.simulator import FaultCounters, FaultVerdict
from repro.obs.metrics import get_metrics
from repro.runner.retry import RetryPolicy

__all__ = [
    "JOURNAL_VERSION",
    "COORDINATION_KINDS",
    "CampaignJournal",
    "JournalLoadReport",
    "SupervisionLog",
    "campaign_manifest",
    "fault_to_payload",
    "fault_from_payload",
    "verdict_to_record",
    "verdict_from_record",
    "expansion_to_record",
    "metrics_to_record",
    "lease_to_record",
    "host_to_record",
    "seal_record",
    "record_checksum_ok",
    "load_metrics_payloads",
    "load_coordination_records",
]

JOURNAL_VERSION = 1

#: Record kinds that ride along in a verdict journal and are skipped by
#: verdict readers: supervision events, metrics snapshots, and the
#: distributed dispatcher's lease / host coordination trail.
COORDINATION_KINDS = ("event", "metrics", "lease", "host")


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def fault_to_payload(fault: Fault) -> Dict[str, Any]:
    """JSON-serializable view of a :class:`Fault`."""
    payload: Dict[str, Any] = {"line": fault.line, "stuck_at": fault.stuck_at}
    if fault.pin is not None:
        payload["pin"] = [fault.pin.kind, fault.pin.index, fault.pin.pos]
    return payload


def fault_from_payload(payload: Dict[str, Any]) -> Fault:
    """Inverse of :func:`fault_to_payload`."""
    pin = payload.get("pin")
    return Fault(
        line=int(payload["line"]),
        stuck_at=int(payload["stuck_at"]),
        pin=Pin(pin[0], int(pin[1]), int(pin[2])) if pin else None,
    )


def verdict_to_record(index: int, verdict: FaultVerdict) -> Dict[str, Any]:
    """One journal line for *verdict* at fault-list position *index*."""
    record = {
        "kind": "verdict",
        "index": index,
        "fault": fault_to_payload(verdict.fault),
        "status": verdict.status,
        "how": verdict.how,
        "detail": verdict.detail,
        "counters": [
            verdict.counters.n_det,
            verdict.counters.n_conf,
            verdict.counters.n_extra,
        ],
        "num_sequences": verdict.num_sequences,
        "num_expansions": verdict.num_expansions,
    }
    # Only written when set, so journals from campaigns that never
    # expand stay byte-compatible with older readers.
    if verdict.expanded_from:
        record["expanded_from"] = verdict.expanded_from
    return record


def verdict_from_record(record: Dict[str, Any]) -> FaultVerdict:
    """Inverse of :func:`verdict_to_record`."""
    n_det, n_conf, n_extra = record["counters"]
    return FaultVerdict(
        fault=fault_from_payload(record["fault"]),
        status=record["status"],
        how=record["how"],
        detail=record.get("detail", ""),
        counters=FaultCounters(n_det=n_det, n_conf=n_conf, n_extra=n_extra),
        num_sequences=record["num_sequences"],
        num_expansions=record["num_expansions"],
        expanded_from=record.get("expanded_from", ""),
    )


def expansion_to_record(
    universe_index: int, verdict: FaultVerdict, class_index: int
) -> Dict[str, Any]:
    """One journal line recording a class-expanded verdict.

    Written after the run by class-collapsed campaigns, one line per
    non-representative class member, so journal consumers can
    reconstruct the full expanded universe without re-running the
    collapse analysis.  Readers that predate the record kind skip it
    (unknown kinds are tolerated by :meth:`CampaignJournal.load`).
    """
    return {
        "kind": "expansion",
        "index": universe_index,
        "class_index": class_index,
        "fault": fault_to_payload(verdict.fault),
        "status": verdict.status,
        "expanded_from": verdict.expanded_from,
    }


def metrics_to_record(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One journal line carrying a serialized metrics snapshot."""
    return {"kind": "metrics", "payload": payload}


def lease_to_record(event: str, seq: int, **fields: Any) -> Dict[str, Any]:
    """One journal line recording a dispatcher lease decision.

    ``seq`` is the parent's monotonically increasing coordination
    sequence number; together with the wall-clock ``ts`` it makes
    multi-journal merges deterministic (see
    :func:`load_coordination_records`).
    """
    record: Dict[str, Any] = {
        "kind": "lease", "event": event, "seq": seq, "ts": time.time(),
    }
    record.update(fields)
    return record


def host_to_record(event: str, seq: int, **fields: Any) -> Dict[str, Any]:
    """One journal line recording a host-level dispatcher event."""
    record: Dict[str, Any] = {
        "kind": "host", "event": event, "seq": seq, "ts": time.time(),
    }
    record.update(fields)
    return record


# ----------------------------------------------------------------------
# Record checksums
# ----------------------------------------------------------------------
def _record_crc(record: Dict[str, Any]) -> str:
    """CRC-32 (hex) over the canonical JSON of *record* minus ``crc``."""
    body = {key: value for key, value in record.items() if key != "crc"}
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(encoded.encode("utf-8")) & 0xFFFFFFFF, "08x")


def seal_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Return *record* with its ``crc`` integrity field (re)computed."""
    sealed = dict(record)
    sealed["crc"] = _record_crc(sealed)
    return sealed


def record_checksum_ok(record: Dict[str, Any]) -> bool:
    """True when *record* has no ``crc`` (legacy journals) or it matches.

    A mismatch means the line was torn or bit-flipped after it was
    sealed; readers treat such lines as corrupt and quarantine them.
    """
    crc = record.get("crc")
    if crc is None:
        return True
    return crc == _record_crc(record)


def load_metrics_payloads(path: str) -> List[Dict[str, Any]]:
    """Every ``kind: "metrics"`` payload in the journal at *path*.

    Malformed lines (including a torn tail) and non-metrics records are
    skipped: metrics are best-effort telemetry, and their absence --
    e.g. after a worker crash -- must never block the verdict merge.
    """
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError:
        return []
    payloads: List[Dict[str, Any]] = []
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict) or not record_checksum_ok(record):
            continue
        if record.get("kind") == "metrics":
            payload = record.get("payload")
            if isinstance(payload, dict):
                payloads.append(payload)
    return payloads


def load_coordination_records(paths: "Sequence[str] | str") -> List[Dict[str, Any]]:
    """Every coordination record (lease / host / event) across *paths*.

    Records are merged **deterministically**: sorted by ``(ts, seq,
    kind, event)``, so the same set of journal files always yields the
    same trail regardless of the order the files are listed or were
    written in.  Malformed and checksum-failed lines are skipped --
    coordination records are an audit trail, and damage to them must
    never block reading the verdicts they annotate.
    """
    if isinstance(paths, str):
        paths = [paths]
    records: List[Dict[str, Any]] = []
    for path in paths:
        try:
            with open(path) as handle:
                lines = handle.read().splitlines()
        except OSError:
            continue
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict) or not record_checksum_ok(record):
                continue
            if record.get("kind") in ("lease", "host", "event"):
                records.append(record)
    records.sort(
        key=lambda r: (
            r.get("ts", 0.0),
            r.get("seq", -1),
            str(r.get("kind", "")),
            str(r.get("event", "")),
        )
    )
    return records


def _stable_digest(value: Any) -> str:
    """SHA-256 over the canonical JSON encoding of *value*."""
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def campaign_manifest(
    circuit_name: str,
    simulator_kind: str,
    config_fields: Dict[str, Any],
    patterns: List[List[int]],
    faults: List[Fault],
) -> Dict[str, Any]:
    """Build the manifest identifying one campaign.

    ``config_hash`` covers the simulator class, its configuration, the
    pattern sequence and the fault list -- everything that changes the
    verdicts.  The budget is deliberately *excluded* from the hash via
    ``config_fields`` normalization by the caller when desired; by
    default whatever is passed in is hashed.
    """
    fingerprint = {
        "circuit": circuit_name,
        "simulator": simulator_kind,
        "config": config_fields,
        "patterns": patterns,
        "faults": [fault_to_payload(f) for f in faults],
    }
    return {
        "kind": "manifest",
        "version": JOURNAL_VERSION,
        "circuit": circuit_name,
        "simulator": simulator_kind,
        "num_faults": len(faults),
        "config_hash": _stable_digest(fingerprint),
    }


# ----------------------------------------------------------------------
# The journal file
# ----------------------------------------------------------------------
@dataclass
class JournalLoadReport:
    """What :meth:`CampaignJournal.load` found beyond the verdicts.

    Attributes
    ----------
    records:
        Verdict records accepted.
    skipped:
        Coordination records (events, metrics, leases, host events) and
        unknown future record kinds skipped by the verdict reader.
    corrupt_lines:
        Lines dropped as corrupt: malformed JSON, non-object lines,
        checksum mismatches, and structurally invalid verdict payloads.
    checksum_failures:
        The subset of ``corrupt_lines`` whose JSON parsed but whose
        ``crc`` did not match (a bit flip or interior torn write).
    torn_tail:
        True when the final line was a partial write (the classic
        crash-mid-flush signature); it is counted in ``corrupt_lines``.
    quarantine_path:
        Sidecar file holding the corrupt lines (``None`` when the load
        was clean).
    """

    records: int = 0
    skipped: int = 0
    corrupt_lines: int = 0
    checksum_failures: int = 0
    torn_tail: bool = False
    quarantine_path: Optional[str] = None


class CampaignJournal:
    """Buffered append-only JSONL checkpoint file.

    Every record appended through this class is sealed with a CRC-32
    integrity field (:func:`seal_record`); :meth:`load` verifies seals
    and salvages around corrupt lines.  ``last_report`` holds the
    :class:`JournalLoadReport` of the most recent :meth:`load`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._buffer: List[str] = []
        self.last_report: Optional[JournalLoadReport] = None

    #: Transient write errors worth retrying: a momentarily failing
    #: disk (EIO) or a full one that a log rotation may free (ENOSPC).
    TRANSIENT_ERRNOS = (errno.EIO, errno.ENOSPC)

    #: Bounded retry for flush: 3 attempts beyond the first, short
    #: deterministic backoff -- the journal must not stall a campaign
    #: for more than ~a second before surfacing the error.
    WRITE_RETRY = RetryPolicy(
        max_retries=3, backoff_base=0.05, backoff_factor=2.0,
        backoff_cap=0.25, jitter=0.0,
    )

    # -------------------------------------------------------------- write
    def create(self, manifest: Dict[str, Any]) -> None:
        """Start a fresh journal (replaces any existing file).

        The manifest is written to a temporary file, fsynced, and moved
        into place with ``os.replace`` (plus a directory fsync), so a
        crash mid-create can never strand readers behind a torn,
        unparsable manifest: they see either the old journal or the new
        one, never half a line.
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "w") as handle:
            handle.write(json.dumps(seal_record(manifest), sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        self._fsync_directory(directory)
        self._buffer = []

    @staticmethod
    def _fsync_directory(directory: str) -> None:
        """Persist a rename at the directory level (best-effort)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fsync on dirs unsupported
            pass
        finally:
            os.close(fd)

    def append(self, record: Dict[str, Any]) -> None:
        """Buffer one record, sealed, for the next flush."""
        self._buffer.append(json.dumps(seal_record(record), sort_keys=True))

    def flush(self) -> None:
        """Durably append every buffered record.

        A journal that last crashed mid-write ends in a torn partial
        line; appending straight after it would concatenate the first
        new record onto the fragment and lose both.  The flush starts
        on a fresh line in that case, so the fragment stays isolated
        (and is quarantined by the next :meth:`load`).

        Transient ``OSError`` (EIO, ENOSPC) is retried with a short
        bounded backoff (``WRITE_RETRY``, counted by the
        ``journal.write.retries`` metric) before propagating; anything
        else propagates immediately.  The buffer survives a failed
        flush, so a caller that recovers (or a later checkpoint) writes
        the same records.
        """
        if not self._buffer:
            return
        attempt = 0
        while True:
            try:
                self._flush_once()
                return
            except OSError as exc:
                if exc.errno not in self.TRANSIENT_ERRNOS:
                    raise
                if not self.WRITE_RETRY.allows(attempt):
                    raise
                attempt += 1
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.counter("journal.write.retries")
                time.sleep(self.WRITE_RETRY.backoff(attempt))

    def _flush_once(self) -> None:
        """One physical flush attempt (the chaos ``journal.write`` seam).

        A ``torn`` injection writes half of the first buffered record
        with no newline and *keeps the buffer*: the next flush's
        newline-prefix repair isolates the fragment (quarantined by the
        next load) while every record still lands -- the crash-mid-write
        signature without losing data.
        """
        action = chaos_journal_write(self.path)
        if action == "eio":
            raise OSError(errno.EIO, "chaos: injected I/O error")
        if action == "enospc":
            raise OSError(errno.ENOSPC, "chaos: injected full disk")
        prefix = ""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    prefix = "\n"
        except (OSError, ValueError):
            pass  # missing or empty file: nothing to repair
        if action == "torn":
            fragment = self._buffer[0][: max(1, len(self._buffer[0]) // 2)]
            with open(self.path, "a") as handle:
                handle.write(prefix + fragment)
                handle.flush()
                os.fsync(handle.fileno())
            return  # buffer kept: the next flush re-writes everything
        with open(self.path, "a") as handle:
            handle.write(prefix + "\n".join(self._buffer) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._buffer = []

    @property
    def pending(self) -> int:
        """Number of buffered, not-yet-flushed records."""
        return len(self._buffer)

    # --------------------------------------------------------------- read
    def load(self) -> Tuple[Dict[str, Any], Dict[int, FaultVerdict]]:
        """Read the journal back: ``(manifest, {fault index: verdict})``.

        Corrupt lines **anywhere** in the file -- a torn tail from a
        crash mid-flush, an interior torn write from a multi-writer
        race, a bit flip caught by the record checksum, a structurally
        invalid verdict payload -- are skipped, counted, and quarantined
        to ``<path>.corrupt`` instead of raising: the faults whose
        verdicts were lost are simply re-simulated by the resuming run.
        ``last_report`` describes what was salvaged, and the
        ``journal.corrupt_lines`` counter is recorded when metrics are
        on.  Only an unreadable or mismatched *manifest* still raises
        :class:`~repro.errors.JournalError` -- a journal whose identity
        cannot be verified must never be merged.
        """
        try:
            with open(self.path) as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise JournalError(f"cannot read journal {self.path}: {exc}") from None
        if not lines:
            raise JournalError(f"journal {self.path} is empty")
        lines = chaos_journal_read(self.path, lines)
        manifest = self._parse_line(lines[0], line_number=1)
        if not record_checksum_ok(manifest):
            raise JournalError(
                f"journal {self.path}: manifest checksum mismatch "
                f"(refusing to trust the file)"
            )
        manifest.pop("crc", None)
        if manifest.get("kind") != "manifest":
            raise JournalError(
                f"journal {self.path} does not start with a manifest"
            )
        if manifest.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {self.path} has version {manifest.get('version')!r}, "
                f"expected {JOURNAL_VERSION}"
            )
        report = JournalLoadReport()
        corrupt: List[Tuple[int, str, str]] = []
        verdicts: Dict[int, FaultVerdict] = {}
        for number, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = self._parse_line(line, line_number=number)
            except JournalError:
                if number == len(lines):
                    report.torn_tail = True
                    corrupt.append((number, line, "torn or malformed line"))
                else:
                    corrupt.append((number, line, "malformed JSON"))
                continue
            if not record_checksum_ok(record):
                report.checksum_failures += 1
                corrupt.append((number, line, "checksum mismatch"))
                continue
            record.pop("crc", None)
            kind = record.get("kind")
            if kind != "verdict":
                # Coordination records ride along; unknown future kinds
                # are skipped too, so old readers survive new writers.
                report.skipped += 1
                continue
            try:
                index = int(record["index"])
                verdict = verdict_from_record(record)
            except (KeyError, TypeError, ValueError, IndexError):
                corrupt.append((number, line, "invalid verdict payload"))
                continue
            verdicts[index] = verdict
            report.records += 1
        report.corrupt_lines = len(corrupt)
        if corrupt:
            report.quarantine_path = self._quarantine(corrupt)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("journal.corrupt_lines", len(corrupt))
        self.last_report = report
        return manifest, verdicts

    def _quarantine(self, corrupt: List[Tuple[int, str, str]]) -> str:
        """Write the corrupt lines to the ``.corrupt`` sidecar.

        One JSON object per bad line (original line number, reason, raw
        content) so operators can inspect -- and, for torn-but-valid
        tails, even hand-repair -- what was dropped.  Overwritten on
        every salvaging load: the sidecar mirrors the journal's current
        damage, not its history.
        """
        path = self.path + ".corrupt"
        try:
            with open(path, "w") as handle:
                for number, raw, reason in corrupt:
                    handle.write(
                        json.dumps(
                            {"line": number, "reason": reason, "raw": raw},
                            sort_keys=True,
                        )
                        + "\n"
                    )
        except OSError:  # pragma: no cover - quarantine must never kill a load
            return path
        return path

    def validate_manifest(self, manifest: Dict[str, Any],
                          expected: Dict[str, Any]) -> None:
        """Refuse resumption when *manifest* does not match *expected*."""
        for key in ("circuit", "simulator", "num_faults", "config_hash"):
            if manifest.get(key) != expected.get(key):
                raise JournalError(
                    f"journal {self.path} does not match this run: "
                    f"{key} is {manifest.get(key)!r}, expected "
                    f"{expected.get(key)!r} (refusing to resume)"
                )

    def _parse_line(self, line: str, line_number: int) -> Dict[str, Any]:
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JournalError(
                f"journal {self.path}: line {line_number}: {exc}"
            ) from None
        if not isinstance(parsed, dict):
            raise JournalError(
                f"journal {self.path}: line {line_number}: not an object"
            )
        return parsed


# ----------------------------------------------------------------------
# The supervision log
# ----------------------------------------------------------------------
class SupervisionLog:
    """Append-only JSONL sidecar of supervision events.

    Each line is ``{"kind": "event", "event": <name>, "ts": <epoch>,
    ...free-form fields...}``.  Events are written through immediately
    (they are rare and each one marks a decision worth keeping even if
    the supervisor itself dies next); reading tolerates a torn final
    line exactly like the campaign journal.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.corrupt_lines = 0

    def create(self) -> None:
        """Start a fresh log (truncates any existing file)."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "w"):
            pass

    def record(self, event: str, **fields: Any) -> None:
        """Durably append one timestamped *event*."""
        payload = {"kind": "event", "event": event, "ts": time.time()}
        payload.update(fields)
        try:
            with open(self.path, "a") as handle:
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:  # pragma: no cover - the log must never kill a run
            pass

    def load(self) -> List[Dict[str, Any]]:
        """Read every event back, skipping (and counting) corrupt lines."""
        events, _ = self.load_with_errors()
        return events

    def load_with_errors(self) -> Tuple[List[Dict[str, Any]], int]:
        """Read events plus the number of corrupt lines encountered.

        The log is advisory, so damage never raises: malformed lines --
        torn tails and interior garbage alike -- are dropped and counted
        (also exposed as ``self.corrupt_lines`` and, when metrics are
        on, the ``supervision.log.corrupt_lines`` counter) so operators
        can see that the sidecar lost events rather than silently
        reading an incomplete history.
        """
        try:
            with open(self.path) as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise JournalError(
                f"cannot read supervision log {self.path}: {exc}"
            ) from None
        events: List[Dict[str, Any]] = []
        corrupt = 0
        for line in lines:
            if not line.strip():
                continue
            try:
                parsed = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            if isinstance(parsed, dict) and parsed.get("kind") == "event":
                events.append(parsed)
        self.corrupt_lines = corrupt
        if corrupt:
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("supervision.log.corrupt_lines", corrupt)
        return events, corrupt
