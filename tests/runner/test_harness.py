"""Tests for the resilient campaign harness.

Covers the ISSUE acceptance scenarios: a campaign with an injected
crashing fault and a budget-exceeding fault runs to completion and
reports both, and an interrupted run resumed from its journal produces
the same final summary (byte-identical report/CSV) as an uninterrupted
run.
"""

import os
import signal

import pytest

from repro.circuits.library import s27
from repro.errors import CampaignInterrupted, JournalError
from repro.mot.simulator import MotConfig
from repro.reporting.campaign import (
    campaign_csv,
    render_campaign_report,
    summarize_campaign,
)
from repro.runner.budget import FaultBudget
from repro.runner.harness import CampaignHarness, HarnessConfig

from tests.helpers import crash_on, s27_faults, s27_simulator


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------
def test_injected_exception_is_quarantined_and_campaign_completes():
    simulator = s27_simulator()
    faults = s27_faults()
    crash_on(simulator, 4)
    harness = CampaignHarness(simulator, HarnessConfig(handle_sigint=False))
    campaign = harness.run(faults)

    assert campaign.total == len(faults)
    errored = [v for v in campaign.verdicts if v.status == "errored"]
    assert len(errored) == 1
    assert errored[0].how == "RuntimeError"
    assert "injected crash" in errored[0].detail
    assert "Traceback" in errored[0].detail
    assert harness.stats.errored == 1
    assert harness.stats.simulated == len(faults)
    # The quarantined fault shows up in the summary and the report.
    summary = summarize_campaign(campaign)
    assert summary.errored == 1
    assert "errored (quarantined)  : 1" in render_campaign_report(
        campaign, simulator.circuit
    )


def test_fail_fast_reraises_the_exception():
    simulator = s27_simulator()
    crash_on(simulator, 2)
    harness = CampaignHarness(
        simulator, HarnessConfig(fail_fast=True, handle_sigint=False)
    )
    with pytest.raises(RuntimeError, match="injected crash"):
        harness.run(s27_faults())


# ----------------------------------------------------------------------
# Budgets through the harness
# ----------------------------------------------------------------------
def test_harness_budget_converts_runaways_to_aborted():
    simulator = s27_simulator()
    harness = CampaignHarness(
        simulator,
        HarnessConfig(budget=FaultBudget(max_events=2), handle_sigint=False),
    )
    campaign = harness.run(s27_faults())
    assert campaign.total == len(s27_faults())
    assert campaign.aborted_budget > 0
    assert harness.stats.aborted == campaign.aborted_budget


def test_crash_and_budget_in_one_campaign():
    """ISSUE acceptance: one campaign with a crashing fault *and*
    budget-exceeding faults completes and reports both."""
    simulator = s27_simulator(
        config=MotConfig(budget=FaultBudget(max_events=2))
    )
    faults = s27_faults()
    crash_on(simulator, 0)
    campaign = CampaignHarness(
        simulator, HarnessConfig(handle_sigint=False)
    ).run(faults)
    assert campaign.total == len(faults)
    assert campaign.errored == 1
    assert campaign.aborted_budget > 0
    report = render_campaign_report(campaign, simulator.circuit)
    assert "errored (quarantined)" in report
    assert "aborted (budget)" in report


def test_simulator_without_meter_support_still_runs():
    class PlainSimulator:
        def __init__(self, inner):
            self.inner = inner
            self.circuit = inner.circuit
            self.patterns = inner.patterns
            self.config = inner.config

        def simulate_fault(self, fault):  # no meter parameter
            return self.inner.simulate_fault(fault)

    simulator = PlainSimulator(s27_simulator())
    campaign = CampaignHarness(
        simulator,
        HarnessConfig(budget=FaultBudget(max_events=1), handle_sigint=False),
    ).run(s27_faults())
    # Budget silently inapplicable: every fault simulated, none aborted.
    assert campaign.total == len(s27_faults())
    assert campaign.aborted_budget == 0


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def test_interrupted_run_resumes_to_identical_summary(tmp_path):
    """KeyboardInterrupt mid-campaign, then --resume: the final report
    and CSV are byte-identical to an uninterrupted run."""
    path = str(tmp_path / "run.jsonl")
    faults = s27_faults()

    reference = CampaignHarness(
        s27_simulator(), HarnessConfig(handle_sigint=False)
    ).run(faults)

    interrupted = s27_simulator()
    crash_on(interrupted, 7, exc=KeyboardInterrupt())
    harness = CampaignHarness(
        interrupted,
        HarnessConfig(
            checkpoint_path=path, checkpoint_every=3, handle_sigint=False
        ),
    )
    with pytest.raises(CampaignInterrupted) as excinfo:
        harness.run(faults)
    assert excinfo.value.completed == 7
    assert excinfo.value.journal_path == path

    resumed_harness = CampaignHarness(
        s27_simulator(),
        HarnessConfig(checkpoint_path=path, resume=True, handle_sigint=False),
    )
    resumed = resumed_harness.run(faults)
    assert resumed_harness.stats.reused == 7
    assert resumed_harness.stats.simulated == len(faults) - 7

    circuit = s27()
    assert resumed.verdicts == reference.verdicts
    assert summarize_campaign(resumed) == summarize_campaign(reference)
    assert render_campaign_report(resumed, circuit) == render_campaign_report(
        reference, circuit
    )
    assert campaign_csv(resumed, circuit) == campaign_csv(reference, circuit)


def test_sigint_stops_at_fault_boundary_with_flushed_journal(tmp_path):
    """A real SIGINT is deferred to the fault boundary: the in-flight
    fault finishes, the journal is flushed, CampaignInterrupted reports
    progress, and the resumed run completes."""
    path = str(tmp_path / "run.jsonl")
    faults = s27_faults()
    simulator = s27_simulator()
    original = simulator.simulate_fault
    calls = {"n": 0}

    def simulate_fault(fault, meter=None):
        index = calls["n"]
        calls["n"] += 1
        if index == 5:
            os.kill(os.getpid(), signal.SIGINT)
        return original(fault, meter=meter)

    simulator.simulate_fault = simulate_fault
    previous = signal.getsignal(signal.SIGINT)
    harness = CampaignHarness(
        simulator, HarnessConfig(checkpoint_path=path, checkpoint_every=100)
    )
    with pytest.raises(CampaignInterrupted) as excinfo:
        harness.run(faults)
    # The fault that received the signal still produced its verdict.
    assert excinfo.value.completed == 6
    # The handler was restored after the run.
    assert signal.getsignal(signal.SIGINT) is previous
    # Despite checkpoint_every=100, interruption flushed the journal.
    with open(path) as handle:
        assert len(handle.read().splitlines()) == 1 + 6

    resumed = CampaignHarness(
        s27_simulator(),
        HarnessConfig(checkpoint_path=path, resume=True, handle_sigint=False),
    ).run(faults)
    reference = CampaignHarness(
        s27_simulator(), HarnessConfig(handle_sigint=False)
    ).run(faults)
    assert resumed.verdicts == reference.verdicts


def test_resume_refuses_mismatched_manifest(tmp_path):
    path = str(tmp_path / "run.jsonl")
    faults = s27_faults()
    CampaignHarness(
        s27_simulator(seed=1),
        HarnessConfig(checkpoint_path=path, handle_sigint=False),
    ).run(faults)
    with pytest.raises(JournalError, match="refusing to resume"):
        CampaignHarness(
            s27_simulator(seed=2),
            HarnessConfig(checkpoint_path=path, resume=True,
                          handle_sigint=False),
        ).run(faults)


def test_resume_with_missing_journal_starts_fresh(tmp_path):
    path = str(tmp_path / "fresh.jsonl")
    harness = CampaignHarness(
        s27_simulator(),
        HarnessConfig(checkpoint_path=path, resume=True, handle_sigint=False),
    )
    campaign = harness.run(s27_faults())
    assert harness.stats.reused == 0
    assert campaign.total == len(s27_faults())
    assert os.path.exists(path)


def test_resume_requires_checkpoint_path():
    with pytest.raises(ValueError, match="checkpoint"):
        CampaignHarness(s27_simulator(), HarnessConfig(resume=True))


def test_journal_records_every_verdict(tmp_path):
    path = str(tmp_path / "run.jsonl")
    faults = s27_faults()
    CampaignHarness(
        s27_simulator(),
        HarnessConfig(checkpoint_path=path, checkpoint_every=5,
                      handle_sigint=False),
    ).run(faults)
    with open(path) as handle:
        lines = handle.read().splitlines()
    assert len(lines) == 1 + len(faults)
