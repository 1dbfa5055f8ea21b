"""Tests for the metrics registry (counters, histograms, phase timers,
snapshots and their merge algebra)."""

import threading

import pytest

from repro.obs.metrics import (
    NULL_METRICS,
    MetricsSnapshot,
    NullMetrics,
    RecordingMetrics,
    _bucket_of,
    disable_metrics,
    enable_metrics,
    get_metrics,
    set_metrics,
)


# ----------------------------------------------------------------------
# The no-op default
# ----------------------------------------------------------------------
def test_default_registry_is_the_null_singleton():
    disable_metrics()
    assert get_metrics() is NULL_METRICS
    assert get_metrics().enabled is False


def test_null_registry_absorbs_everything():
    null = NullMetrics()
    null.counter("a")
    null.gauge("b", 7.0)
    null.observe("c", 1.5)
    null.time_phase("d", 0.1)
    with null.phase("e"):
        pass
    assert null.snapshot().empty


def test_set_metrics_returns_previous_for_restore():
    recording = RecordingMetrics()
    previous = set_metrics(recording)
    assert get_metrics() is recording
    assert set_metrics(previous) is recording
    assert get_metrics() is previous


def test_enable_metrics_installs_a_fresh_registry():
    first = enable_metrics()
    first.counter("goodcache.compute")
    second = enable_metrics()
    assert second is not first
    assert get_metrics() is second
    assert second.snapshot().counters == {}
    disable_metrics()


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def test_counters_gauges_histograms_phases_record():
    metrics = RecordingMetrics()
    metrics.counter("events")
    metrics.counter("events", 4)
    metrics.gauge("depth", 2.0)
    metrics.gauge("depth", 3.0)
    metrics.observe("ms", 1.0)
    metrics.observe("ms", 9.0)
    metrics.time_phase("sim", 0.25, count=2)
    snap = metrics.snapshot()
    assert snap.counters == {"events": 5}
    assert snap.gauges == {"depth": 3.0}
    assert snap.histograms["ms"]["count"] == 2
    assert snap.histograms["ms"]["sum"] == pytest.approx(10.0)
    assert snap.histograms["ms"]["min"] == 1.0
    assert snap.histograms["ms"]["max"] == 9.0
    assert snap.phases["sim"] == {"count": 2, "seconds": 0.25}


def test_phase_context_manager_accumulates_time():
    metrics = RecordingMetrics()
    with metrics.phase("work"):
        pass
    with metrics.phase("work"):
        pass
    phases = metrics.snapshot().phases
    assert phases["work"]["count"] == 2
    assert phases["work"]["seconds"] >= 0.0


def test_reset_drops_everything():
    metrics = RecordingMetrics()
    metrics.counter("a")
    metrics.observe("b", 1.0)
    metrics.reset()
    assert metrics.snapshot().empty


def test_concurrent_counting_is_exact():
    metrics = RecordingMetrics()
    threads = [
        threading.Thread(
            target=lambda: [metrics.counter("hits") for _ in range(500)]
        )
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert metrics.snapshot().counters["hits"] == 4000


# ----------------------------------------------------------------------
# Buckets
# ----------------------------------------------------------------------
def test_bucket_of_power_of_two_boundaries():
    assert _bucket_of(-3.0) == 0
    assert _bucket_of(0.0) == 0
    assert _bucket_of(1.0) == 0
    assert _bucket_of(1.5) == 1
    assert _bucket_of(2.0) == 1
    assert _bucket_of(3.0) == 2
    assert _bucket_of(1e30) == 64  # capped


# ----------------------------------------------------------------------
# Snapshots: payload round trip and merge algebra
# ----------------------------------------------------------------------
def _sample_registry(scale):
    metrics = RecordingMetrics()
    metrics.counter("mot.expansion.branches", 3 * scale)
    metrics.counter("campaign.verdict.conv", scale)
    metrics.gauge("high_water", float(10 * scale))
    for value in (0.5 * scale, 4.0 * scale):
        metrics.observe("campaign.fault_ms", value)
    metrics.time_phase("backward", 0.125 * scale, count=scale)
    return metrics


def test_payload_round_trip_is_lossless():
    snap = _sample_registry(2).snapshot()
    assert MetricsSnapshot.from_payload(snap.to_payload()) == snap


def test_payload_tolerates_missing_sections():
    snap = MetricsSnapshot.from_payload({"counters": {"a": 1}})
    assert snap.counters == {"a": 1}
    assert snap.phases == {}
    assert MetricsSnapshot.from_payload({}).empty


def test_merge_adds_counts_and_maxes_gauges():
    a = _sample_registry(1).snapshot()
    b = _sample_registry(3).snapshot()
    merged = MetricsSnapshot.merge([a, b])
    assert merged.counters["mot.expansion.branches"] == 12
    assert merged.counters["campaign.verdict.conv"] == 4
    assert merged.gauges["high_water"] == 30.0
    hist = merged.histograms["campaign.fault_ms"]
    assert hist["count"] == 4
    assert hist["min"] == 0.5 and hist["max"] == 12.0
    assert hist["sum"] == pytest.approx(18.0)
    assert merged.phases["backward"] == {"count": 4, "seconds": 0.5}


def test_merge_is_commutative_and_associative():
    a = _sample_registry(1).snapshot()
    b = _sample_registry(2).snapshot()
    c = _sample_registry(5).snapshot()
    assert MetricsSnapshot.merge([a, b]) == MetricsSnapshot.merge([b, a])
    assert MetricsSnapshot.merge(
        [MetricsSnapshot.merge([a, b]), c]
    ) == MetricsSnapshot.merge([a, MetricsSnapshot.merge([b, c])])


def test_merge_snapshot_folds_into_registry():
    metrics = _sample_registry(1)
    metrics.merge_snapshot(_sample_registry(2).snapshot())
    assert metrics.snapshot() == MetricsSnapshot.merge(
        [_sample_registry(1).snapshot(), _sample_registry(2).snapshot()]
    )
