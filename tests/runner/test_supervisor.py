"""Chaos tests for supervised worker campaigns.

The acceptance scenarios, on two forked local workers with
``checkpoint_every=1``: a campaign whose worker is SIGKILLed mid-chunk
completes with verdicts identical to a serial run; a fault that kills
its worker on every attempt ends as one ``errored``/``poison`` verdict;
a worker hung inside one fault is killed after ``stall_timeout`` (and a
fault that hangs every worker is poison too); when every worker is
lost the campaign degrades to serial, or -- with degradation off --
raises an error the journal resumes from; an interrupt propagates with
the journal flushed.
"""

import os
import threading
import time

import pytest

from repro.chaos.runtime import SCENARIO_ENV, chaos_fault
from repro.chaos.scenario import ChaosScenario, InjectionSpec
from repro.errors import CampaignInterrupted, DistributedFailed
from repro.mot.simulator import ProposedSimulator
from repro.runner.dispatch import POISON_HOW, DispatchConfig
from repro.runner.harness import CampaignHarness, HarnessConfig
from repro.runner.journal import SupervisionLog
from repro.runner.retry import RetryPolicy
from repro.runner.supervisor import SupervisedCampaignRunner
from repro.runner.transport import LocalTransport, Transport

from tests.helpers import s27_faults, s27_patterns, s27_simulator

WORKERS = ["worker0", "worker1"]


class TransientKillerSimulator(ProposedSimulator):
    """Hard-kills its process on ``kill_line`` -- but only once: the
    marker file it drops first makes every later attempt survive, like
    a transient OOM kill."""

    kill_line = None
    marker = None

    def simulate_fault(self, fault, meter=None):
        if (
            self.kill_line is not None
            and fault.line == self.kill_line
            and not os.path.exists(self.marker)
        ):
            open(self.marker, "w").close()
            os._exit(137)
        return super().simulate_fault(fault, meter=meter)


class DeterministicKillerSimulator(ProposedSimulator):
    """Hard-kills its process on ``kill_line``, every single time -- the
    shape of a poison fault."""

    kill_line = None

    def simulate_fault(self, fault, meter=None):
        if self.kill_line is not None and fault.line == self.kill_line:
            os._exit(137)
        return super().simulate_fault(fault, meter=meter)


class HangSimulator(ProposedSimulator):
    """Hangs forever on ``hang_line``; with a ``marker`` set the hang is
    transient (the first encounter drops the marker and hangs, later
    encounters proceed normally)."""

    hang_line = None
    marker = None

    def simulate_fault(self, fault, meter=None):
        if self.hang_line is not None and fault.line == self.hang_line:
            if self.marker is None or not os.path.exists(self.marker):
                if self.marker:
                    open(self.marker, "w").close()
                time.sleep(3600)
        return super().simulate_fault(fault, meter=meter)


def _serial_reference():
    return CampaignHarness(
        s27_simulator(), HarnessConfig(handle_sigint=False)
    ).run(s27_faults())


def _supervised(simulator, **config):
    allow_degraded = config.pop("allow_degraded", True)
    return SupervisedCampaignRunner(
        simulator, WORKERS, LocalTransport(), DispatchConfig(**config),
        allow_degraded=allow_degraded,
    )


def _events(journal):
    return [e["event"] for e in SupervisionLog(journal + ".events").load()]


def _kill_every_launch(monkeypatch):
    """Every worker dies before its handshake: no lease is ever granted,
    so no fault is implicated."""
    monkeypatch.setenv(SCENARIO_ENV, ChaosScenario(
        name="no-workers", seed=0,
        faults=[InjectionSpec(site="worker.ready", action="kill_before",
                              times=None)],
    ).to_json())


# ----------------------------------------------------------------------
# Transient worker death: the dispatcher heals the campaign completely
# ----------------------------------------------------------------------
def test_transient_kill_recovers_identical_to_serial(tmp_path):
    faults = s27_faults()
    simulator = TransientKillerSimulator(
        s27_simulator().circuit, s27_patterns()
    )
    simulator.kill_line = faults[20].line
    simulator.marker = str(tmp_path / "marker")
    journal = str(tmp_path / "run.jsonl")
    runner = _supervised(simulator, checkpoint_path=journal,
                         checkpoint_every=1)
    campaign = runner.run(faults)

    assert campaign.verdicts == _serial_reference().verdicts
    assert os.path.exists(simulator.marker)  # the kill really fired
    dispatch = runner.stats.dispatch
    assert dispatch.relaunches == 1
    assert sum(dispatch.host_failures.values()) == 1
    assert dispatch.poisoned == []
    assert not runner.stats.degraded
    assert _events(journal) == ["dispatch_started", "campaign_completed"]


def test_supervised_clean_run_has_no_interventions(tmp_path):
    journal = str(tmp_path / "run.jsonl")
    runner = _supervised(s27_simulator(), checkpoint_path=journal)
    campaign = runner.run(s27_faults())
    assert campaign.verdicts == _serial_reference().verdicts
    assert runner.stats.dispatch.relaunches == 0
    assert runner.stats.dispatch.host_failures == {}
    assert _events(journal) == ["dispatch_started", "campaign_completed"]


def test_supervised_run_without_checkpoint_uses_private_journal():
    runner = _supervised(s27_simulator())
    campaign = runner.run(s27_faults())
    assert campaign.verdicts == _serial_reference().verdicts


# ----------------------------------------------------------------------
# Poison faults: a fault that kills its solo re-run too is isolated
# ----------------------------------------------------------------------
def test_deterministic_killer_becomes_poison_verdict(tmp_path):
    faults = s27_faults()
    simulator = DeterministicKillerSimulator(
        s27_simulator().circuit, s27_patterns()
    )
    simulator.kill_line = faults[20].line
    journal = str(tmp_path / "run.jsonl")
    runner = _supervised(simulator, checkpoint_path=journal,
                         checkpoint_every=1)
    campaign = runner.run(faults)

    assert len(campaign.verdicts) == len(faults)
    poison = [v for v in campaign.verdicts if v.how == POISON_HOW]
    assert len(poison) == 1
    assert poison[0].status == "errored"
    assert "kills its worker" in poison[0].detail
    assert runner.stats.dispatch.poisoned == [20]
    assert campaign.verdicts[20].how == POISON_HOW
    # Two workers died, but the solo death is the fault's, not the
    # host's: nobody is blacklisted and nothing degrades.
    assert sum(runner.stats.dispatch.host_failures.values()) == 1
    assert runner.stats.dispatch.blacklisted == []
    assert not runner.stats.degraded

    # Every non-poison verdict is byte-identical to the serial run.
    reference = _serial_reference()
    for index, verdict in enumerate(campaign.verdicts):
        if index != 20:
            assert verdict == reference.verdicts[index]

    events = SupervisionLog(journal + ".events").load()
    assert {"event": "poison_confirmed", "index": 20} in [
        {k: e[k] for k in ("event", "index") if k in e} for e in events
    ]


def test_deterministic_killer_on_named_hosts_blacklists_nobody(tmp_path):
    """The same rule holds for ``--hosts`` runs, which the old
    supervisor could only settle by blacklisting both hosts."""
    faults = s27_faults()
    simulator = DeterministicKillerSimulator(
        s27_simulator().circuit, s27_patterns()
    )
    simulator.kill_line = faults[20].line
    runner = SupervisedCampaignRunner(
        simulator, ["alpha", "beta"],
        config=DispatchConfig(checkpoint_path=str(tmp_path / "run.jsonl")),
    )
    campaign = runner.run(faults)
    assert runner.stats.dispatch.poisoned == [20]
    assert campaign.verdicts[20].how == POISON_HOW
    assert runner.stats.dispatch.blacklisted == []
    assert not runner.stats.degraded


def test_poison_summary_and_report(tmp_path):
    from repro.reporting.campaign import (
        render_campaign_report,
        render_supervision_report,
        summarize_campaign,
    )

    faults = s27_faults()
    circuit = s27_simulator().circuit
    simulator = DeterministicKillerSimulator(circuit, s27_patterns())
    simulator.kill_line = faults[20].line
    runner = _supervised(
        simulator, checkpoint_path=str(tmp_path / "run.jsonl"),
        checkpoint_every=1,
    )
    campaign = runner.run(faults)

    summary = summarize_campaign(campaign)
    assert summary.poisoned == 1
    assert summary.errored >= 1
    assert "poison" in render_campaign_report(campaign, circuit)

    supervision = render_supervision_report(runner.stats)
    assert "poison faults isolated" in supervision
    assert "index 20" in supervision


# ----------------------------------------------------------------------
# Every worker lost: degradation, or a resumable DistributedFailed
# ----------------------------------------------------------------------
def test_retries_exhausted_degrades_to_serial(tmp_path, monkeypatch):
    _kill_every_launch(monkeypatch)
    journal = str(tmp_path / "run.jsonl")
    runner = _supervised(s27_simulator(), checkpoint_path=journal)
    campaign = runner.run(s27_faults())
    assert runner.stats.degraded
    assert sorted(runner.stats.dispatch.blacklisted) == WORKERS
    assert runner.stats.quarantined == []
    assert campaign.verdicts == _serial_reference().verdicts
    assert "degraded_to_serial" in _events(journal)


def test_retries_exhausted_raises_when_degradation_disabled(
    tmp_path, monkeypatch
):
    _kill_every_launch(monkeypatch)
    faults = s27_faults()
    journal = str(tmp_path / "run.jsonl")
    runner = _supervised(
        s27_simulator(), checkpoint_path=journal, allow_degraded=False
    )
    with pytest.raises(DistributedFailed) as excinfo:
        runner.run(faults)
    error = excinfo.value
    assert error.journal_path == journal
    assert error.completed + error.remaining == len(faults)
    assert sorted(error.blacklisted) == WORKERS
    assert "dispatch_failed" in _events(journal)

    # The journal is resumable: healthy workers finish the campaign.
    monkeypatch.delenv(SCENARIO_ENV)
    resumed = _supervised(
        s27_simulator(), checkpoint_path=journal, resume=True
    ).run(faults)
    assert resumed.verdicts == _serial_reference().verdicts


def test_uncleared_suspect_is_never_simulated_serially(
    tmp_path, monkeypatch
):
    """Faults 3 and 20 kill every worker that runs them, and one worker
    failure is allowed per worker: fault 20 kills the last worker before
    any solo re-run, so the serial fallback quarantines it instead of
    running it in-process."""
    from repro.runner.supervisor import SUSPECT_HOW

    reference = _serial_reference()  # before the scenario is armed
    monkeypatch.setenv(SCENARIO_ENV, ChaosScenario(
        name="two-kills", seed=0,
        faults=[
            InjectionSpec(site="worker.fault", action="kill", index=index)
            for index in (3, 20)
        ],
    ).to_json())
    runner = _supervised(
        s27_simulator(), checkpoint_path=str(tmp_path / "run.jsonl"),
        host_blacklist_after=1,
    )
    # Serial fallback would hit the kill at index 3 or 20 in *this*
    # process if it ever simulated a suspect.
    campaign = runner.run(s27_faults())
    assert runner.stats.degraded
    assert 20 in runner.stats.quarantined
    # Fault 3 is either poison already (worker 1 died on its solo run
    # before reaching 20) or still uncleared, so quarantined too.
    assert 3 in runner.stats.quarantined + runner.stats.dispatch.poisoned
    for index, verdict in enumerate(campaign.verdicts):
        if index in runner.stats.quarantined:
            assert (verdict.status, verdict.how) == ("errored", SUSPECT_HOW)
        elif index in runner.stats.dispatch.poisoned:
            assert (verdict.status, verdict.how) == ("errored", POISON_HOW)
        else:
            assert verdict == reference.verdicts[index]


# ----------------------------------------------------------------------
# Interruption: never retried, journal flushed
# ----------------------------------------------------------------------
class _CancelOnRetryTransport(Transport):
    """Workers that never answer the handshake; the dispatcher's retry
    closes the first one -- and that is when the cancel arrives."""

    kind = "silent"
    handshake_timeout = 0.05

    def __init__(self, cancel):
        self.cancel = cancel

    def launch(self, host, simulator):
        cancel = self.cancel

        class Handle:
            process = None

            def send(self, message):
                pass

            def recv(self, timeout=0.0):
                return None

            def close(self, timeout=5.0):
                cancel.set()
                return 0

        return Handle()


def test_interrupt_during_backoff_propagates(tmp_path):
    cancel = threading.Event()
    journal = str(tmp_path / "run.jsonl")
    runner = SupervisedCampaignRunner(
        s27_simulator(), ["alpha"], _CancelOnRetryTransport(cancel),
        DispatchConfig(checkpoint_path=journal, cancel_event=cancel),
    )
    with pytest.raises(CampaignInterrupted) as excinfo:
        runner.run(s27_faults())
    assert excinfo.value.journal_path == journal
    assert excinfo.value.completed == 0
    assert _events(journal)[-1] == "interrupted"
    assert runner.stats.dispatch.relaunches == 1  # the pending retry


# ----------------------------------------------------------------------
# Stall detection: a worker hung inside one fault is killed
# ----------------------------------------------------------------------
def test_supervised_recovers_from_transient_stall(tmp_path):
    faults = s27_faults()
    simulator = HangSimulator(s27_simulator().circuit, s27_patterns())
    simulator.hang_line = faults[20].line
    simulator.marker = str(tmp_path / "marker")
    runner = _supervised(
        simulator,
        checkpoint_path=str(tmp_path / "run.jsonl"),
        checkpoint_every=1,
        stall_timeout=0.75,
        min_latency_samples=10**6,  # no stealing: the stall must heal it
    )
    campaign = runner.run(faults)
    assert campaign.verdicts == _serial_reference().verdicts
    assert runner.stats.dispatch.stalls == 1
    assert runner.stats.dispatch.poisoned == []


def test_permanent_hang_becomes_poison_verdict(tmp_path):
    faults = s27_faults()
    simulator = HangSimulator(s27_simulator().circuit, s27_patterns())
    simulator.hang_line = faults[20].line
    runner = _supervised(
        simulator,
        checkpoint_path=str(tmp_path / "run.jsonl"),
        checkpoint_every=1,
        stall_timeout=0.75,
    )
    campaign = runner.run(faults)
    assert runner.stats.dispatch.poisoned == [20]
    assert campaign.verdicts[20].how == POISON_HOW
    assert "silent for over 0.75 s" in campaign.verdicts[20].detail
    reference = _serial_reference()
    for index, verdict in enumerate(campaign.verdicts):
        if index != 20:
            assert verdict == reference.verdicts[index]


def test_hang_outliving_its_lease_still_becomes_poison(tmp_path):
    """``stall_timeout`` longer than ``lease_timeout``: the hung
    worker's lease expires first and its host is quarantined, yet the
    worker is still killed once it has been silent that long, and its
    fault is still the one implicated."""
    faults = s27_faults()
    simulator = HangSimulator(s27_simulator().circuit, s27_patterns())
    simulator.hang_line = faults[20].line
    runner = _supervised(
        simulator,
        checkpoint_path=str(tmp_path / "run.jsonl"),
        checkpoint_every=1,
        lease_timeout=0.5,
        stall_timeout=1.0,
    )
    campaign = runner.run(faults)
    assert runner.stats.dispatch.leases_expired >= 1
    assert runner.stats.dispatch.stalls >= 2
    assert runner.stats.dispatch.poisoned == [20]
    assert campaign.verdicts[20].how == POISON_HOW
    assert not runner.stats.degraded
    reference = _serial_reference()
    for index, verdict in enumerate(campaign.verdicts):
        if index != 20:
            assert verdict == reference.verdicts[index]


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_policy_validation():
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError, match="backoff_factor"):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError, match="jitter"):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError, match="deadline"):
        RetryPolicy(deadline=0)
    with pytest.raises(ValueError, match="backoff_base"):
        RetryPolicy(backoff_base=-1)


def test_retry_policy_allows():
    policy = RetryPolicy(max_retries=2)
    assert policy.allows(0) and policy.allows(1)
    assert not policy.allows(2)
    assert not RetryPolicy(max_retries=0).allows(0)


def test_retry_policy_backoff_growth_and_cap():
    policy = RetryPolicy(
        backoff_base=0.5, backoff_factor=2.0, backoff_cap=3.0, jitter=0.0
    )
    assert [policy.backoff(n) for n in (1, 2, 3, 4, 5)] == [
        0.5, 1.0, 2.0, 3.0, 3.0,
    ]
    with pytest.raises(ValueError, match="1-based"):
        policy.backoff(0)


def test_retry_policy_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0, jitter=0.25)
    first = [policy.backoff(n) for n in range(1, 6)]
    second = [policy.backoff(n) for n in range(1, 6)]
    assert first == second  # reproducible schedules
    assert all(1.0 <= delay <= 1.25 for delay in first)
    assert len(set(first)) > 1  # attempts are actually jittered apart
    other_seed = RetryPolicy(
        backoff_base=1.0, backoff_factor=1.0, jitter=0.25, jitter_seed=7
    )
    assert [other_seed.backoff(n) for n in range(1, 6)] != first


def test_retry_policy_deadline():
    assert RetryPolicy().within_deadline(1e9)  # no deadline by default
    policy = RetryPolicy(deadline=10.0)
    assert policy.within_deadline(9.9)
    assert not policy.within_deadline(10.0)


# ----------------------------------------------------------------------
# The per-fault chaos hook (the kill path itself is covered above and by
# the CLI tests)
# ----------------------------------------------------------------------
def _kill_at(index, marker=None):
    return ChaosScenario(name="kill", seed=0, faults=[
        InjectionSpec(site="worker.fault", action="kill", index=index,
                      once=marker is not None, marker=marker),
    ]).to_json()


def test_chaos_hook_inert_without_env(monkeypatch):
    monkeypatch.delenv(SCENARIO_ENV, raising=False)
    assert chaos_fault(0) is None  # must not exit


def test_chaos_hook_ignores_malformed_and_mismatched(monkeypatch):
    monkeypatch.setenv(SCENARIO_ENV, "{banana")
    assert chaos_fault(0) is None
    monkeypatch.setenv(SCENARIO_ENV, _kill_at(5))
    assert chaos_fault(4) is None  # armed for a different fault


def test_chaos_hook_respects_existing_marker(tmp_path, monkeypatch):
    marker = tmp_path / "marker"
    marker.write_text("5")
    monkeypatch.setenv(SCENARIO_ENV, _kill_at(5, str(marker)))
    assert chaos_fault(5) is None  # already fired once: must not exit
