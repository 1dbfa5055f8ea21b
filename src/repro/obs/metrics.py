"""Metrics registry: counters, gauges, histograms and phase timers.

The registry is the quantitative half of the observability subsystem
(:mod:`repro.obs`).  Two implementations share one interface:

* :class:`NullMetrics` -- the **default**.  Every method is a no-op and
  ``enabled`` is ``False``, so instrumented hot paths can guard with
  ``if metrics.enabled:`` and cost one attribute check when nobody is
  measuring.  Campaign results are unaffected either way: metrics only
  *observe*.
* :class:`RecordingMetrics` -- a thread-safe in-memory store.  Worker
  processes each record into their own instance (installed by
  :func:`repro.obs.install_worker_metrics`), ship its snapshot home
  when they shut down, and the dispatcher merges every worker snapshot
  back into its own registry -- so a multi-process campaign ends with
  **one** registry describing all the work, exactly as a serial run
  would.

Four instrument kinds:

* **counter** -- monotonically increasing event count
  (``metrics.counter("mot.backward.conflict")``);
* **gauge** -- last-written value (merge keeps the max, so the merged
  view of e.g. a high-water mark stays a high-water mark);
* **histogram** -- distribution summary: count / sum / min / max plus
  power-of-two bucket counts, all of which merge exactly;
* **phase timer** -- accumulated wall-clock per named phase
  (``with metrics.phase("backward"): ...``), the substrate of the
  per-phase profile report (:mod:`repro.obs.profile`).

:class:`MetricsSnapshot` is the frozen, JSON-serializable view used for
journaling and merging.  ``merge`` is associative and commutative over
snapshots, so worker registries aggregate to the serial registry
regardless of merge order (asserted in ``tests/obs/test_metrics.py``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, Iterable, Iterator, Optional

__all__ = [
    "MetricsSnapshot",
    "NullMetrics",
    "RecordingMetrics",
    "NULL_METRICS",
    "get_metrics",
    "set_metrics",
    "enable_metrics",
    "disable_metrics",
    "scoped_metrics",
    "thread_metrics_override",
    "set_thread_metrics_override",
]


def _bucket_of(value: float) -> int:
    """Power-of-two bucket index: smallest ``b`` with ``value <= 2**b``.

    Negative and zero observations land in bucket 0; the bucket label in
    payloads is the exponent, so buckets merge by plain addition.
    """
    bucket = 0
    ceiling = 1.0
    while value > ceiling and bucket < 64:
        bucket += 1
        ceiling *= 2.0
    return bucket


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, JSON-serializable view of one registry's contents.

    ``histograms`` maps name to ``{"count", "sum", "min", "max",
    "buckets": {exponent: count}}``; ``phases`` maps name to
    ``{"count", "seconds"}``.  All fields merge exactly except gauges,
    which merge by maximum (documented last-value-wins is meaningless
    across processes).
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms
                    or self.phases)

    # ------------------------------------------------------------- payload
    def to_payload(self) -> Dict[str, Any]:
        """Plain-JSON encoding (bucket keys become strings)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {
                    "count": data["count"],
                    "sum": data["sum"],
                    "min": data["min"],
                    "max": data["max"],
                    "buckets": {
                        str(exp): n for exp, n in data["buckets"].items()
                    },
                }
                for name, data in self.histograms.items()
            },
            "phases": {
                name: {"count": data["count"], "seconds": data["seconds"]}
                for name, data in self.phases.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MetricsSnapshot":
        """Inverse of :meth:`to_payload`; tolerates missing sections."""
        return cls(
            counters={
                str(k): int(v)
                for k, v in (payload.get("counters") or {}).items()
            },
            gauges={
                str(k): float(v)
                for k, v in (payload.get("gauges") or {}).items()
            },
            histograms={
                str(name): {
                    "count": int(data.get("count", 0)),
                    "sum": float(data.get("sum", 0.0)),
                    "min": float(data.get("min", 0.0)),
                    "max": float(data.get("max", 0.0)),
                    "buckets": {
                        int(exp): int(n)
                        for exp, n in (data.get("buckets") or {}).items()
                    },
                }
                for name, data in (payload.get("histograms") or {}).items()
            },
            phases={
                str(name): {
                    "count": int(data.get("count", 0)),
                    "seconds": float(data.get("seconds", 0.0)),
                }
                for name, data in (payload.get("phases") or {}).items()
            },
        )

    # --------------------------------------------------------------- merge
    @classmethod
    def merge(cls, snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        """Aggregate *snapshots*: counters/histograms/phases add, gauges max.

        Associative and commutative, so any grouping of worker snapshots
        (or snapshot-of-merges) yields the same result.
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        phases: Dict[str, Dict[str, float]] = {}
        for snap in snapshots:
            for name, value in snap.counters.items():
                counters[name] = counters.get(name, 0) + value
            for name, value in snap.gauges.items():
                gauges[name] = max(gauges.get(name, value), value)
            for name, data in snap.histograms.items():
                into = histograms.get(name)
                if into is None:
                    histograms[name] = {
                        "count": data["count"],
                        "sum": data["sum"],
                        "min": data["min"],
                        "max": data["max"],
                        "buckets": dict(data["buckets"]),
                    }
                    continue
                into["count"] += data["count"]
                into["sum"] += data["sum"]
                into["min"] = min(into["min"], data["min"])
                into["max"] = max(into["max"], data["max"])
                for exp, n in data["buckets"].items():
                    into["buckets"][exp] = into["buckets"].get(exp, 0) + n
            for name, data in snap.phases.items():
                into = phases.setdefault(name, {"count": 0, "seconds": 0.0})
                into["count"] += data["count"]
                into["seconds"] += data["seconds"]
        return cls(
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            phases=phases,
        )


class _NullPhase:
    """Reusable do-nothing context manager for :class:`NullMetrics`."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False


_NULL_PHASE = _NullPhase()
_EMPTY_SNAPSHOT = MetricsSnapshot()


class NullMetrics:
    """The default no-op registry.

    ``enabled`` is ``False`` so hot paths can skip even the argument
    construction of a metrics call; calling the methods anyway is safe
    and free of observable effect.
    """

    enabled = False

    def counter(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def phase(self, name: str) -> ContextManager[Any]:
        return _NULL_PHASE

    def time_phase(self, name: str, seconds: float, count: int = 1) -> None:
        pass

    def snapshot(self) -> MetricsSnapshot:
        return _EMPTY_SNAPSHOT

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        pass

    def reset(self) -> None:
        pass


class RecordingMetrics(NullMetrics):
    """Thread-safe in-memory registry.

    Safe for concurrent use by threads of one process; cross-process
    aggregation goes through :meth:`snapshot` / :meth:`merge_snapshot`
    (each worker process records into its own instance).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[str, Any]] = {}
        self._phases: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------- record
    def counter(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        with self._lock:
            data = self._histograms.get(name)
            if data is None:
                self._histograms[name] = {
                    "count": 1,
                    "sum": value,
                    "min": value,
                    "max": value,
                    "buckets": {_bucket_of(value): 1},
                }
                return
            data["count"] += 1
            data["sum"] += value
            data["min"] = min(data["min"], value)
            data["max"] = max(data["max"], value)
            bucket = _bucket_of(value)
            data["buckets"][bucket] = data["buckets"].get(bucket, 0) + 1

    @contextmanager
    def phase(self, name: str) -> Iterator["RecordingMetrics"]:
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.time_phase(name, time.perf_counter() - started)

    def time_phase(self, name: str, seconds: float, count: int = 1) -> None:
        with self._lock:
            data = self._phases.setdefault(
                name, {"count": 0, "seconds": 0.0}
            )
            data["count"] += count
            data["seconds"] += seconds

    # ---------------------------------------------------------- aggregate
    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    name: {
                        "count": data["count"],
                        "sum": data["sum"],
                        "min": data["min"],
                        "max": data["max"],
                        "buckets": dict(data["buckets"]),
                    }
                    for name, data in self._histograms.items()
                },
                phases={
                    name: dict(data) for name, data in self._phases.items()
                },
            )

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (worker) snapshot into this registry."""
        merged = MetricsSnapshot.merge([self.snapshot(), snapshot])
        with self._lock:
            self._counters = dict(merged.counters)
            self._gauges = dict(merged.gauges)
            self._histograms = {
                name: {
                    "count": data["count"],
                    "sum": data["sum"],
                    "min": data["min"],
                    "max": data["max"],
                    "buckets": dict(data["buckets"]),
                }
                for name, data in merged.histograms.items()
            }
            self._phases = {
                name: dict(data) for name, data in merged.phases.items()
            }

    def reset(self) -> None:
        """Drop every recorded value (campaign boundaries)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._phases.clear()


#: Process-wide singleton no-op registry.
NULL_METRICS = NullMetrics()

_metrics: NullMetrics = NULL_METRICS

#: Per-thread registry override (see :func:`scoped_metrics`): lets a
#: multi-tenant process (the job server) give each running campaign its
#: own registry without the campaigns clobbering each other's counters.
_thread_metrics = threading.local()


def get_metrics() -> NullMetrics:
    """The current thread's registry override if one is installed
    (:func:`scoped_metrics`), else the process-global registry (the
    no-op singleton by default)."""
    override = getattr(_thread_metrics, "registry", None)
    if override is not None:
        return override
    return _metrics


def set_metrics(registry: Optional[NullMetrics]) -> NullMetrics:
    """Install *registry* (``None`` restores the no-op); returns the
    previously installed registry so callers can restore it."""
    global _metrics
    previous = _metrics
    _metrics = registry if registry is not None else NULL_METRICS
    return previous


def enable_metrics() -> RecordingMetrics:
    """Install and return a **fresh** recording registry.

    A fresh registry per campaign is the reset point the goodcache (and
    every other) counter relies on: enabling at campaign start means the
    final snapshot describes exactly that campaign.
    """
    registry = RecordingMetrics()
    set_metrics(registry)
    return registry


def disable_metrics() -> None:
    """Restore the default no-op registry."""
    set_metrics(NULL_METRICS)


def thread_metrics_override() -> Optional[NullMetrics]:
    """The calling thread's scoped registry, if any
    (see :func:`scoped_metrics`; ``None`` means the global applies)."""
    return getattr(_thread_metrics, "registry", None)


def set_thread_metrics_override(
    registry: Optional[NullMetrics],
) -> Optional[NullMetrics]:
    """Install *registry* as this thread's override (``None`` clears
    it); returns the previous override so callers can restore it."""
    previous = getattr(_thread_metrics, "registry", None)
    _thread_metrics.registry = registry
    return previous


@contextmanager
def scoped_metrics(
    registry: Optional[NullMetrics] = None,
) -> Iterator[NullMetrics]:
    """Install *registry* for the **current thread only**.

    Every :func:`get_metrics` call made by this thread inside the
    ``with`` block sees *registry* (a fresh :class:`RecordingMetrics`
    when ``None``) instead of the process-global one; other threads are
    untouched.  This is how the job server records per-job metrics
    while several campaigns run concurrently in one process.  Scopes
    nest; the previous override is restored on exit.

    The override is thread-local; a worker *process* forked from inside
    the scope replaces it with a fresh registry of its own
    (:func:`repro.obs.install_worker_metrics`) and ships that home, where
    the dispatcher -- still on this thread -- merges it into *registry*.
    """
    if registry is None:
        registry = RecordingMetrics()
    previous = set_thread_metrics_override(registry)
    try:
        yield registry
    finally:
        set_thread_metrics_override(previous)
