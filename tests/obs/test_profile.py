"""Tests for the profile reporter and its text rendering."""

import json

import pytest

from repro.obs.metrics import MetricsSnapshot
from repro.obs.profile import build_profile
from repro.reporting.metrics import (
    load_snapshot,
    render_metrics_report,
    render_profile,
)


def _snapshot():
    return MetricsSnapshot(
        counters={
            "campaign.verdict.conv": 9,
            "campaign.verdict.mot": 2,
            "campaign.how.resim": 2,
            "mot.expansion.branches": 16,
            "goodcache.compute": 5,
        },
        gauges={"workers": 2.0},
        histograms={
            "campaign.fault_ms": {
                "count": 11, "sum": 22.0, "min": 0.5, "max": 9.0,
                "buckets": {0: 6, 2: 5},
            }
        },
        phases={
            "backward": {"count": 11, "seconds": 0.75},
            "expansion": {"count": 3, "seconds": 0.25},
            "custom_phase": {"count": 1, "seconds": 0.0},
        },
    )


def test_build_profile_phases_ordered_and_percented():
    profile = build_profile(_snapshot())
    assert [p.name for p in profile.phases] == [
        "backward", "expansion", "custom_phase",
    ]
    assert profile.phases[0].label == "backward implication"
    assert profile.phases[2].label == "custom_phase"  # unknown: raw name
    assert profile.total_seconds == pytest.approx(1.0)
    assert sum(p.percent for p in profile.phases) == pytest.approx(100.0)


def test_build_profile_splits_verdicts_mechanisms_counters():
    profile = build_profile(_snapshot())
    assert profile.verdicts == {"conv": 9, "mot": 2}
    assert profile.total_verdicts == 11
    assert profile.mechanisms == {"resim": 2}
    assert profile.counters == {
        "mot.expansion.branches": 16, "goodcache.compute": 5,
    }


def test_build_profile_of_empty_snapshot():
    profile = build_profile(MetricsSnapshot())
    assert profile.phases == [] and profile.total_verdicts == 0


def test_render_covers_every_section():
    report = render_metrics_report(_snapshot())
    assert "Per-phase wall clock" in report
    assert "accounted" in report
    assert "Per-fault verdicts (11 faults)" in report
    assert "MOT detection mechanisms" in report
    assert "Event counters" in report
    assert "Distributions" in report
    assert "backward implication" in report


def test_render_empty_snapshot():
    assert "empty metrics snapshot" in render_profile(
        build_profile(MetricsSnapshot())
    )


def test_load_snapshot_round_trip(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(_snapshot().to_payload()))
    assert load_snapshot(str(path)) == _snapshot()


def test_load_snapshot_rejects_non_payload(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError):
        load_snapshot(str(path))
