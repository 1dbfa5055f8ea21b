"""Local worker campaigns: ``--workers N`` on the lease dispatcher.

Serial and multi-worker runs produce identical verdict lists for
workers in {1, 2, 4} -- including campaigns with budget-aborted and
quarantined (crashing) faults, whose simulators only forked workers can
run, since nothing ships but fault chunks -- and journals move freely
between the two executors: a worker run's journal resumes serially, a
serial journal resumes on workers, and a worker run that lost every
worker resumes with a different worker count.
"""

import re

import pytest

from repro.analysis.testability import hardest_first
from repro.chaos.runtime import SCENARIO_ENV
from repro.chaos.scenario import ChaosScenario, InjectionSpec
from repro.errors import DistributedFailed
from repro.mot.simulator import ProposedSimulator
from repro.runner.budget import FaultBudget
from repro.runner.dispatch import DispatchConfig, DistributedCampaignRunner
from repro.runner.harness import CampaignHarness, HarnessConfig
from repro.runner.transport import LocalTransport

from tests.helpers import s27_faults, s27_patterns, s27_simulator


class CrashOnLineSimulator(ProposedSimulator):
    """Raises on faults at ``crash_line`` -- in a forked worker exactly
    as in the parent."""

    crash_line = None

    def simulate_fault(self, fault, meter=None):
        if self.crash_line is not None and fault.line == self.crash_line:
            raise RuntimeError("injected crash")
        return super().simulate_fault(fault, meter=meter)


def _serial(simulator, budget=None):
    return CampaignHarness(
        simulator, HarnessConfig(budget=budget, handle_sigint=False)
    ).run(s27_faults())


def _workers(simulator, workers, **config):
    return DistributedCampaignRunner(
        simulator,
        [f"worker{k}" for k in range(workers)],
        LocalTransport(),
        DispatchConfig(**config),
    )


def _timeless(verdicts):
    """Verdicts with wall-clock readings scrubbed from ``detail``.

    Budget-abort details embed the elapsed milliseconds, which are not
    reproducible across runs; everything else must match exactly.
    """
    return [
        (
            v.fault,
            v.status,
            v.how,
            v.counters,
            v.num_sequences,
            v.num_expansions,
            re.sub(r"[0-9.]+ ms", "<t> ms", v.detail),
        )
        for v in verdicts
    ]


# ----------------------------------------------------------------------
# Serial / worker equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_matches_serial(workers):
    reference = _serial(s27_simulator())
    runner = _workers(s27_simulator(), workers)
    campaign = runner.run(s27_faults())
    assert campaign.verdicts == reference.verdicts
    assert runner.stats.simulated == len(s27_faults())
    assert runner.stats.reused == 0


#: The lease orders that replaced the two static shard strategies:
#: fault-list order (chunks dealt out in turn) and hardest-first, the
#: structural-cost order ``size_aware`` approximated.
STRATEGIES = {
    "round_robin": lambda circuit, faults: None,
    "size_aware": lambda circuit, faults: tuple(
        hardest_first(circuit, faults)
    ),
}


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_parallel_matches_serial_under_both_strategies(strategy):
    simulator = s27_simulator()
    order = STRATEGIES[strategy](simulator.circuit, s27_faults())
    campaign = _workers(simulator, 3, dispatch_order=order).run(s27_faults())
    assert campaign.verdicts == _serial(s27_simulator()).verdicts


def test_parallel_with_budget_and_crashing_fault_matches_serial():
    """A campaign containing quarantined (crashing) *and* budget-aborted
    faults still yields the exact serial verdict list."""
    budget = FaultBudget(max_events=2)
    faults = s27_faults()

    def crashing_simulator():
        simulator = CrashOnLineSimulator(
            s27_simulator().circuit, s27_patterns()
        )
        simulator.crash_line = faults[5].line
        return simulator

    reference = _serial(crashing_simulator(), budget=budget)
    assert reference.errored > 0
    assert reference.aborted_budget > 0

    runner = _workers(crashing_simulator(), 4, budget=budget)
    campaign = runner.run(faults)
    assert _timeless(campaign.verdicts) == _timeless(reference.verdicts)
    assert runner.stats.errored == reference.errored
    assert runner.stats.aborted == reference.aborted_budget


def test_campaign_workers_fixture_equivalence(campaign_workers):
    """CI reruns this test with REPRO_TEST_WORKERS=2 to push the
    standard campaign through local workers."""
    reference = _serial(s27_simulator())
    campaign = _workers(s27_simulator(), campaign_workers).run(s27_faults())
    assert campaign.verdicts == reference.verdicts


# ----------------------------------------------------------------------
# Checkpoint / resume across executors
# ----------------------------------------------------------------------
def test_parallel_journal_consumed_by_serial_harness(tmp_journal):
    """A worker run's journal is a plain campaign journal: the serial
    harness resumes from it and reuses every verdict."""
    faults = s27_faults()
    parallel = _workers(s27_simulator(), 2, checkpoint_path=tmp_journal)
    campaign = parallel.run(faults)
    serial_harness = CampaignHarness(
        s27_simulator(),
        HarnessConfig(
            checkpoint_path=tmp_journal, resume=True, handle_sigint=False
        ),
    )
    resumed = serial_harness.run(faults)
    assert serial_harness.stats.reused == len(faults)
    assert serial_harness.stats.simulated == 0
    assert resumed.verdicts == campaign.verdicts


def test_parallel_resumes_serial_journal(journaled_campaign):
    """Local workers reuse every verdict of a serial journal."""
    runner = _workers(
        journaled_campaign.fresh_simulator(),
        4,
        checkpoint_path=journaled_campaign.journal_path,
        resume=True,
    )
    campaign = runner.run(journaled_campaign.faults)
    assert runner.stats.reused == len(journaled_campaign.faults)
    assert runner.stats.simulated == 0
    assert campaign.verdicts == journaled_campaign.campaign.verdicts


def test_worker_kill_then_resume_completes(tmp_path, monkeypatch):
    """Two workers that are each killed once are blacklisted (one
    failure allowed); the DistributedFailed names the journal, and a
    --resume run on 4 healthy workers completes with verdicts identical
    to a serial run."""
    faults = s27_faults()
    journal = str(tmp_path / "run.jsonl")
    monkeypatch.setenv(SCENARIO_ENV, ChaosScenario(
        name="two-kills", seed=0,
        faults=[
            InjectionSpec(site="worker.fault", action="kill", index=index,
                          once=True)
            for index in (3, 20)
        ],
    ).with_markers(str(tmp_path)).to_json())
    runner = _workers(
        s27_simulator(), 2, checkpoint_path=journal, host_blacklist_after=1,
    )
    with pytest.raises(DistributedFailed) as excinfo:
        runner.run(faults)
    assert sorted(excinfo.value.blacklisted) == ["worker0", "worker1"]
    assert 0 < excinfo.value.completed < len(faults)
    assert excinfo.value.journal_path == journal
    assert "--resume" not in str(excinfo.value)  # hint belongs to the CLI
    # Fault 20 killed the last worker: implicated, never cleared.
    assert 20 in runner.book.uncleared()

    monkeypatch.delenv(SCENARIO_ENV)
    resumed_runner = _workers(
        s27_simulator(), 4, checkpoint_path=journal, resume=True,
    )
    resumed = resumed_runner.run(faults)
    assert resumed_runner.stats.reused == excinfo.value.completed
    assert resumed_runner.stats.simulated == (
        len(faults) - excinfo.value.completed
    )
    assert resumed.verdicts == _serial(s27_simulator()).verdicts
