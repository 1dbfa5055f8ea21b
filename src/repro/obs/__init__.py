"""Observability subsystem: metrics, structured traces, profiles.

``repro.obs`` makes the MOT stack measurable without changing what it
computes.  Three coordinated pieces:

* a **metrics registry** (:mod:`repro.obs.metrics`) -- counters,
  gauges, histograms and phase timers, with a zero-overhead no-op
  default.  ``get_metrics()`` returns the process-global registry;
  instrumented code guards hot-path calls with ``metrics.enabled``;
* a **trace layer** (:mod:`repro.obs.trace`) -- JSONL events for the
  expansion tree, backward-implication outcomes, resimulation and the
  good-machine cache, sampled per fault (``get_tracer()``);
* a **profile reporter** (:mod:`repro.obs.profile`) -- turns a
  snapshot into the per-phase wall-clock and event breakdown rendered
  by :mod:`repro.reporting.metrics` and the ``repro stats`` CLI.

**Campaign wiring.**  The serial harness records into the global
registry directly; every worker of a multi-process campaign records
into a fresh registry (:func:`install_worker_metrics`) and ships its
snapshot home in the protocol's ``bye`` message, where the dispatcher
merges it -- one registry per campaign no matter how the work was
distributed.  A forked worker traces to its own sibling file
(:meth:`~repro.obs.trace.JsonlTracer.for_worker`).

Default state is off: ``get_metrics()`` is a no-op registry and
``get_tracer()`` a no-op tracer, and with both defaults in place
campaign results are identical to an uninstrumented build.
"""

from __future__ import annotations

from repro.obs.metrics import (
    NULL_METRICS,
    MetricsSnapshot,
    NullMetrics,
    RecordingMetrics,
    disable_metrics,
    enable_metrics,
    get_metrics,
    scoped_metrics,
    set_metrics,
    set_thread_metrics_override,
    thread_metrics_override,
)
from repro.obs.profile import (
    PHASE_LABELS,
    PhaseProfile,
    ProfileReport,
    build_profile,
)
from repro.obs.trace import (
    NULL_TRACER,
    BaseTracer,
    JsonlTracer,
    ListTracer,
    NullTracer,
    get_tracer,
    set_tracer,
)

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
    "NullTracer",
    "BaseTracer",
    "JsonlTracer",
    "ListTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "PHASE_LABELS",
    "PhaseProfile",
    "ProfileReport",
    "build_profile",
    "install_worker_metrics",
]


def install_worker_metrics() -> None:
    """Give a worker process a fresh recording registry.

    The snapshot a worker ships home must cover exactly its own work; a
    forked worker would otherwise re-report the counts it inherited
    from the parent.  Under a thread-scoped registry (the job server)
    the *override* is replaced, not the process global.
    """
    fresh = RecordingMetrics()
    if thread_metrics_override() is not None:
        set_thread_metrics_override(fresh)
    else:
        set_metrics(fresh)
