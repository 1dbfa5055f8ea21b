"""Structured trace layer: JSONL events for the MOT hot path.

Where the metrics registry (:mod:`repro.obs.metrics`) answers "how
much", traces answer "what happened, in order": every branch of the
expansion tree, every backward-implication outcome, every resimulation
resolution, stamped with the fault it belongs to.  The paper's cost
model (how many branches a fault spawns, how often an implication
closes one) becomes directly checkable from a trace file -- the s27
walkthrough test replays the known Table 1 expansion event by event.

Tracers share the metrics design: a no-op :class:`NullTracer` default
(``enabled`` / ``active`` are ``False``, so instrumented code guards
with one attribute check), a :class:`JsonlTracer` writing one JSON
object per line, and a :class:`ListTracer` capturing events in memory
for tests.

**Sampling.**  Full traces of a large campaign are enormous, so tracing
is decided *per fault*: :meth:`BaseTracer.begin_fault` hashes the fault
label against the ``sample`` knob (a probability in ``[0, 1]``) and the
tracer stays inert for unsampled faults.  The hash is deterministic in
(seed, label): the same campaign traced twice samples the same faults,
and the worker count cannot change which faults are traced.

Event schema (every event carries ``"ev"`` and belongs to the fault
scope a ``fault_begin`` opens):

=================  ====================================================
``fault_begin``    ``fault`` label; opens a fault scope
``implication``    backward probe: ``u``, ``i``, ``alpha``, ``outcome``
                   (``conflict`` / ``detection`` / ``no_info``),
                   ``extra`` (size of the extra set)
``phase1``         closed-branch restriction applied: ``u``, ``i``,
                   ``closed`` (the closed alpha)
``phase1_conflict`` mutual phase-1 conflict: detection without branching
``branch``         phase-2 duplication: ``u``, ``i``, ``sequences``
                   (count after doubling)
``expansion_done`` ``sequences``, ``branches``, ``ceiling`` (bool: hit
                   ``N_STATES``)
``resim``          one sequence resolved: ``status`` (``detected`` /
                   ``infeasible`` / ``unresolved``)
``fault_verdict``  closes the scope: ``status``, ``how``, ``ms``
=================  ====================================================
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Dict, List, Optional

__all__ = [
    "NullTracer",
    "BaseTracer",
    "JsonlTracer",
    "ListTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
]


class NullTracer:
    """Default do-nothing tracer.

    ``enabled`` (tracer configured at all) and ``active`` (current fault
    sampled) are both ``False``; hot paths check ``active`` once and
    skip event construction entirely.
    """

    enabled = False
    active = False
    sample = 0.0
    seed = 0
    path: Optional[str] = None

    def begin_fault(self, label: str) -> bool:
        return False

    def end_fault(self, status: str, how: str = "", ms: float = 0.0) -> None:
        pass

    def emit(self, ev: str, **fields: Any) -> None:
        pass

    def for_worker(self, name: str) -> "NullTracer":
        return self

    def close(self) -> None:
        pass


class BaseTracer(NullTracer):
    """Shared sampling + fault-scope logic for recording tracers."""

    enabled = True

    def __init__(self, sample: float = 1.0, seed: int = 0) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(
                f"trace sample must be within [0, 1], got {sample!r}"
            )
        self.sample = sample
        self.seed = seed
        self.active = False
        self._lock = threading.Lock()

    # ---------------------------------------------------------- sampling
    def _sampled(self, label: str) -> bool:
        """Deterministic per-fault sampling decision.

        Hashes (seed, label) to a uniform fraction and compares against
        the ``sample`` probability, so the traced subset is stable
        across reruns and worker counts.
        """
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{label}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return fraction < self.sample

    # ------------------------------------------------------- fault scope
    def begin_fault(self, label: str) -> bool:
        """Open a fault scope; returns whether the fault is traced."""
        self.active = self._sampled(label)
        if self.active:
            self.emit("fault_begin", fault=label)
        return self.active

    def end_fault(self, status: str, how: str = "", ms: float = 0.0) -> None:
        """Close the current fault scope (no-op when unsampled)."""
        if self.active:
            self.emit(
                "fault_verdict", status=status, how=how, ms=round(ms, 3)
            )
        self.active = False

    def emit(self, ev: str, **fields: Any) -> None:
        """Record one event (only while the current fault is sampled,
        except the scope-opening events emitted by this class)."""
        record: Dict[str, Any] = {"ev": ev}
        record.update(fields)
        with self._lock:
            self._write(record)

    def _write(self, record: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError


class JsonlTracer(BaseTracer):
    """Tracer writing one JSON object per line to *path*.

    The file is opened lazily on the first event and line-buffered, so
    an interrupted campaign still leaves complete lines behind.
    """

    def __init__(self, path: str, sample: float = 1.0, seed: int = 0) -> None:
        super().__init__(sample=sample, seed=seed)
        self.path = path
        self._handle = None

    def _write(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", buffering=1)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def for_worker(self, name: str) -> "JsonlTracer":
        """A sibling tracer for the worker process *name*.

        Each worker writes ``<path>.<name>`` so concurrent processes
        never interleave within one file; sampling (seed + probability)
        is inherited, so the worker count cannot change which faults are
        traced.  The file is opened in append mode, so a relaunched
        worker adds to its predecessor's trace.
        """
        return JsonlTracer(
            f"{self.path}.{name}", sample=self.sample, seed=self.seed
        )

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class ListTracer(BaseTracer):
    """In-memory tracer for tests: events accumulate on ``self.events``."""

    def __init__(self, sample: float = 1.0, seed: int = 0) -> None:
        super().__init__(sample=sample, seed=seed)
        self.events: List[Dict[str, Any]] = []

    def _write(self, record: Dict[str, Any]) -> None:
        self.events.append(record)

    def names(self) -> List[str]:
        """The ordered event names (walkthrough assertions)."""
        return [event["ev"] for event in self.events]


#: Process-wide singleton no-op tracer.
NULL_TRACER = NullTracer()

_tracer: NullTracer = NULL_TRACER


def get_tracer() -> NullTracer:
    """The process-global tracer (the no-op singleton by default)."""
    return _tracer


def set_tracer(tracer: Optional[NullTracer]) -> NullTracer:
    """Install *tracer* (``None`` restores the no-op); returns the
    previously installed tracer so callers can restore it."""
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return previous
