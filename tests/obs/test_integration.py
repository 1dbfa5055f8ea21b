"""Observability across the campaign stack.

The tests here pin the ISSUE acceptance criteria: the paper-walkthrough
trace of the introductory example, worker registries aggregating to
the serial registry, merged verdict counters equalling the campaign
summary, and the disabled path leaving campaign results untouched.
"""

import collections

import pytest

from repro.faults.model import Fault
from repro.logic.values import ONE
from repro.mot.simulator import ProposedSimulator
from repro.obs import (
    ListTracer,
    MetricsSnapshot,
    disable_metrics,
    enable_metrics,
    get_metrics,
    set_tracer,
)
from repro.runner.harness import CampaignHarness, HarnessConfig
from repro.runner.dispatch import DispatchConfig, DistributedCampaignRunner
from repro.runner.journal import CampaignJournal, load_metrics_payloads
from repro.runner.supervisor import SupervisedCampaignRunner
from repro.runner.transport import LocalTransport

from tests.helpers import s27_faults, s27_patterns, toggle_circuit


def _campaign_counters(snapshot):
    """The deterministic counters: per-verdict counts and MOT events."""
    return {
        name: value
        for name, value in snapshot.counters.items()
        if name.startswith(("campaign.", "mot."))
    }


# ----------------------------------------------------------------------
# Paper walkthrough: the introductory example, event by event
# ----------------------------------------------------------------------
def test_toggle_walkthrough_trace_matches_paper_expansion():
    """Z stuck-at-1 on the toggle circuit (the paper's introductory
    example): every time unit's backward probe detects for alpha=0 and
    yields no information for alpha=1, phase 1 closes those branches,
    phase 2 branches once on the initial state of the single flop, and
    both expanded sequences resolve by resimulation."""
    circuit = toggle_circuit()
    tracer = ListTracer()
    set_tracer(tracer)
    try:
        simulator = ProposedSimulator(circuit, [[1]] * 6)
        verdict = simulator.simulate_fault(Fault(circuit.line_id("Z"), ONE))
    finally:
        set_tracer(None)
    assert verdict.status == "mot" and verdict.how == "resim"

    events = tracer.events
    fault_events = [e for e in events if e["ev"] != "goodcache"]
    assert fault_events[0] == {"ev": "fault_begin", "fault": "Z/1"}

    implications = [e for e in events if e["ev"] == "implication"]
    # Probes at u = 1..6, one per alpha, all on flop 0.
    assert [(e["u"], e["alpha"]) for e in implications] == [
        (u, alpha) for u in range(1, 7) for alpha in (0, 1)
    ]
    assert all(e["i"] == 0 for e in implications)
    assert all(
        e["outcome"] == ("detection" if e["alpha"] == 0 else "no_info")
        for e in implications
    )

    phase1 = [e for e in events if e["ev"] == "phase1"]
    assert [(e["u"], e["closed"]) for e in phase1] == [
        (u, 0) for u in range(1, 7)
    ]

    branches = [e for e in events if e["ev"] == "branch"]
    assert branches == [{"ev": "branch", "u": 0, "i": 0, "sequences": 2}]
    done = [e for e in events if e["ev"] == "expansion_done"]
    assert done == [
        {"ev": "expansion_done", "sequences": 2, "branches": 1,
         "ceiling": False}
    ]

    resim = [e["status"] for e in events if e["ev"] == "resim"]
    assert resim == ["detected", "detected"]
    assert fault_events[-1]["ev"] == "fault_verdict"
    assert fault_events[-1]["status"] == "mot"
    assert fault_events[-1]["how"] == "resim"
    assert fault_events[-1]["ms"] >= 0.0


def test_unsampled_fault_emits_no_scoped_events():
    circuit = toggle_circuit()
    tracer = ListTracer(sample=0.0)
    set_tracer(tracer)
    try:
        simulator = ProposedSimulator(circuit, [[1]] * 6)
        simulator.simulate_fault(Fault(circuit.line_id("Z"), ONE))
    finally:
        set_tracer(None)
    assert all(e["ev"] == "goodcache" for e in tracer.events)


# ----------------------------------------------------------------------
# Serial harness: journal metrics record, verdict counters
# ----------------------------------------------------------------------
def test_harness_appends_metrics_record_and_counts_verdicts(tmp_path):
    from repro.circuits.library import s27

    journal = tmp_path / "run.jsonl"
    faults = s27_faults()
    enable_metrics()
    try:
        harness = CampaignHarness(
            ProposedSimulator(s27(), s27_patterns()),
            HarnessConfig(checkpoint_path=str(journal), handle_sigint=False),
        )
        campaign = harness.run(faults)
        snapshot = get_metrics().snapshot()
    finally:
        disable_metrics()

    by_status = collections.Counter(v.status for v in campaign.verdicts)
    for status, count in by_status.items():
        assert snapshot.counters[f"campaign.verdict.{status}"] == count
    assert snapshot.histograms["campaign.fault_ms"]["count"] == len(faults)

    # The journal carries one metrics record; verdict readers skip it.
    payloads = load_metrics_payloads(str(journal))
    assert len(payloads) == 1
    journaled = MetricsSnapshot.from_payload(payloads[0])
    assert _campaign_counters(journaled) == _campaign_counters(snapshot)
    _manifest, verdicts = CampaignJournal(str(journal)).load()
    assert len(verdicts) == len(faults)


# ----------------------------------------------------------------------
# Workers: two worker registries aggregate to the serial registry
# ----------------------------------------------------------------------
def test_split_registries_merge_to_the_serial_registry():
    """Simulate the fault list in two halves with a fresh registry each
    (exactly what two workers do) and merge the snapshots: the
    deterministic counters equal one serial registry's."""
    from repro.circuits.library import s27

    faults = s27_faults()
    parts = []
    for chunk in (faults[:16], faults[16:]):
        enable_metrics()
        try:
            CampaignHarness(
                ProposedSimulator(s27(), s27_patterns()),
                HarnessConfig(handle_sigint=False),
            ).run(chunk)
            parts.append(get_metrics().snapshot())
        finally:
            disable_metrics()
    enable_metrics()
    try:
        CampaignHarness(
            ProposedSimulator(s27(), s27_patterns()),
            HarnessConfig(handle_sigint=False),
        ).run(faults)
        serial = get_metrics().snapshot()
    finally:
        disable_metrics()
    merged = MetricsSnapshot.merge(parts)
    assert _campaign_counters(merged) == _campaign_counters(serial)
    assert (
        merged.histograms["campaign.fault_ms"]["count"]
        == serial.histograms["campaign.fault_ms"]["count"]
    )


def test_parallel_campaign_merges_worker_registries():
    from repro.circuits.library import s27

    faults = s27_faults()
    circuit = s27()
    patterns = s27_patterns()

    enable_metrics()
    try:
        serial = CampaignHarness(
            ProposedSimulator(circuit, patterns),
            HarnessConfig(handle_sigint=False),
        ).run(faults)
        serial_snapshot = get_metrics().snapshot()
    finally:
        disable_metrics()

    enable_metrics()
    try:
        parallel = DistributedCampaignRunner(
            ProposedSimulator(circuit, patterns),
            ["worker0", "worker1"],
            LocalTransport(),
        ).run(faults)
        parallel_snapshot = get_metrics().snapshot()
    finally:
        disable_metrics()

    assert parallel.verdicts == serial.verdicts
    assert _campaign_counters(parallel_snapshot) == _campaign_counters(
        serial_snapshot
    )
    # Forked workers ship only their own work home: the histogram
    # counts each fault once, not the parent's history again.
    assert (
        parallel_snapshot.histograms["campaign.fault_ms"]["count"]
        == len(faults)
    )


# ----------------------------------------------------------------------
# The acceptance criterion: supervised 2-worker campaign
# ----------------------------------------------------------------------
def test_supervised_campaign_metrics_match_summary(tmp_path):
    from repro.circuits.library import s27

    faults = s27_faults()
    enable_metrics()
    try:
        runner = SupervisedCampaignRunner(
            ProposedSimulator(s27(), s27_patterns()),
            ["worker0", "worker1"],
            config=DispatchConfig(
                checkpoint_path=str(tmp_path / "run.jsonl")
            ),
        )
        campaign = runner.run(faults)
        snapshot = get_metrics().snapshot()
    finally:
        disable_metrics()

    by_status = collections.Counter(v.status for v in campaign.verdicts)
    merged_verdicts = {
        name[len("campaign.verdict."):]: count
        for name, count in snapshot.counters.items()
        if name.startswith("campaign.verdict.")
    }
    assert merged_verdicts == dict(by_status)
    assert sum(merged_verdicts.values()) == len(faults)
    # Nonzero expansion and backward-implication activity (criterion).
    assert snapshot.counters["mot.expansion.runs"] > 0
    assert (
        snapshot.counters.get("mot.backward.detection", 0)
        + snapshot.counters.get("mot.backward.conflict", 0)
        + snapshot.counters.get("mot.backward.no_info", 0)
    ) > 0
    assert snapshot.phases  # per-phase timers populated


# ----------------------------------------------------------------------
# Disabled path: observability off changes nothing
# ----------------------------------------------------------------------
def test_disabled_observability_leaves_verdicts_identical():
    from repro.circuits.library import s27

    faults = s27_faults()
    disable_metrics()
    set_tracer(None)
    plain = ProposedSimulator(s27(), s27_patterns()).run(faults)

    enable_metrics()
    set_tracer(ListTracer())
    try:
        observed = ProposedSimulator(s27(), s27_patterns()).run(faults)
    finally:
        disable_metrics()
        set_tracer(None)
    assert [
        (v.fault, v.status, v.how, v.counters) for v in plain.verdicts
    ] == [
        (v.fault, v.status, v.how, v.counters) for v in observed.verdicts
    ]
