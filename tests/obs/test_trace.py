"""Tests for the structured trace layer (sampling, fault scopes,
JSONL output)."""

import json

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    JsonlTracer,
    ListTracer,
    NullTracer,
    get_tracer,
    set_tracer,
)


def test_default_tracer_is_the_null_singleton():
    set_tracer(None)
    assert get_tracer() is NULL_TRACER
    assert not get_tracer().enabled and not get_tracer().active


def test_null_tracer_absorbs_everything():
    null = NullTracer()
    assert null.begin_fault("G1/0") is False
    null.emit("branch", u=1)
    null.end_fault("mot")
    assert null.for_worker("worker3") is null
    null.close()


def test_set_tracer_returns_previous_for_restore():
    tracer = ListTracer()
    previous = set_tracer(tracer)
    assert get_tracer() is tracer
    assert set_tracer(previous) is tracer
    assert get_tracer() is previous


# ----------------------------------------------------------------------
# Fault scopes and sampling
# ----------------------------------------------------------------------
def test_fault_scope_wraps_events():
    tracer = ListTracer()
    assert tracer.begin_fault("G1/0") is True
    tracer.emit("branch", u=2, i=0, sequences=2)
    tracer.end_fault("mot", how="resim", ms=1.25)
    assert tracer.names() == ["fault_begin", "branch", "fault_verdict"]
    assert tracer.events[0]["fault"] == "G1/0"
    assert tracer.events[-1] == {
        "ev": "fault_verdict", "status": "mot", "how": "resim", "ms": 1.25,
    }
    assert tracer.active is False


def test_sample_zero_traces_nothing():
    tracer = ListTracer(sample=0.0)
    assert tracer.begin_fault("G1/0") is False
    assert tracer.active is False
    tracer.end_fault("conv")
    assert tracer.events == []


def test_sampling_is_deterministic_per_label():
    labels = [f"G{i}/0" for i in range(200)]
    a = ListTracer(sample=0.5, seed=7)
    b = ListTracer(sample=0.5, seed=7)
    picked_a = {label for label in labels if a._sampled(label)}
    picked_b = {label for label in labels if b._sampled(label)}
    assert picked_a == picked_b
    assert 0 < len(picked_a) < len(labels)
    # A different seed samples a different subset.
    c = ListTracer(sample=0.5, seed=8)
    assert picked_a != {label for label in labels if c._sampled(label)}


def test_invalid_sample_rejected():
    with pytest.raises(ValueError):
        ListTracer(sample=1.5)
    with pytest.raises(ValueError):
        ListTracer(sample=-0.1)


# ----------------------------------------------------------------------
# JSONL output
# ----------------------------------------------------------------------
def test_jsonl_tracer_writes_one_object_per_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = JsonlTracer(str(path))
    tracer.begin_fault("G1/0")
    tracer.emit("resim", status="detected")
    tracer.end_fault("mot", how="resim", ms=0.5)
    tracer.close()
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["ev"] for e in events] == [
        "fault_begin", "resim", "fault_verdict",
    ]


def test_jsonl_tracer_opens_lazily(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = JsonlTracer(str(path), sample=0.0)
    tracer.begin_fault("G1/0")
    tracer.end_fault("conv")
    tracer.close()
    assert not path.exists()


def test_for_worker_writes_sibling_file_with_same_sampling(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = JsonlTracer(str(path), sample=0.25, seed=3)
    worker = tracer.for_worker("worker2")
    assert worker.path == str(path) + ".worker2"
    assert worker.sample == 0.25 and worker.seed == 3
    worker.emit("goodcache", event="hit")
    worker.close()
    assert (tmp_path / "trace.jsonl.worker2").exists()
    assert not path.exists()
