"""Tests for the proposed MOT fault simulator (Procedure 1)."""

import pytest

from repro.circuits.library import s27
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.logic.values import ONE
from repro.mot.simulator import MotConfig, ProposedSimulator

from tests.helpers import both_circuit, s27_faults, s27_patterns, toggle_circuit


def test_conventionally_detected_fault_short_circuits():
    circuit = s27()
    simulator = ProposedSimulator(circuit, s27_patterns(seed=0))
    verdict = simulator.simulate_fault(Fault(circuit.line_id("G17"), 0))
    assert verdict.status == "conv"
    assert verdict.detected


def test_toggle_fault_detected_by_mot():
    circuit = toggle_circuit()
    simulator = ProposedSimulator(circuit, [[1]] * 6)
    verdict = simulator.simulate_fault(Fault(circuit.line_id("Z"), ONE))
    assert verdict.status == "mot"
    assert verdict.detected
    # One branch closes by detection during collection; the other
    # resolves in resimulation.
    assert verdict.how in ("resim", "phase1")
    assert verdict.counters.n_det > 0


def test_both_branch_fault_detected_from_info():
    circuit = both_circuit()
    simulator = ProposedSimulator(circuit, [[1]] * 6)
    verdict = simulator.simulate_fault(Fault(circuit.line_id("Z"), ONE))
    assert verdict.status == "mot"
    assert verdict.how == "info"


def test_condition_c_drop():
    """A fault whose faulty response has no resolvable output positions
    is dropped without expansion work."""
    circuit = toggle_circuit()
    # Z stuck 0 is a redundant fault: responses identical, no X outputs.
    simulator = ProposedSimulator(circuit, [[1]] * 4)
    verdict = simulator.simulate_fault(Fault(circuit.line_id("Z"), 0))
    assert verdict.status == "dropped"
    assert not verdict.detected


def test_campaign_counts_consistent():
    circuit = s27()
    faults = s27_faults()
    campaign = ProposedSimulator(circuit, s27_patterns(24, seed=1)).run(
        faults
    )
    assert campaign.total == len(faults)
    assert campaign.total_detected == campaign.conv_detected + campaign.mot_detected
    statuses = {v.status for v in campaign.verdicts}
    assert statuses <= {"conv", "mot", "dropped", "undetected"}


def test_campaign_deterministic():
    circuit = toggle_circuit()
    faults = collapse_faults(circuit)
    a = ProposedSimulator(circuit, [[1], [0], [1], [1]]).run(faults)
    b = ProposedSimulator(circuit, [[1], [0], [1], [1]]).run(faults)
    assert [(v.status, v.how) for v in a.verdicts] == [
        (v.status, v.how) for v in b.verdicts
    ]


def test_average_counters_over_mot_faults_only():
    circuit = toggle_circuit()
    faults = collapse_faults(circuit)
    campaign = ProposedSimulator(circuit, [[1]] * 6).run(faults)
    averages = campaign.average_counters()
    mot = campaign.mot_verdicts()
    assert mot, "expected at least one MOT detection on the toggle circuit"
    assert averages["detect"] == pytest.approx(
        sum(v.counters.n_det for v in mot) / len(mot)
    )


def test_average_counters_empty_campaign():
    circuit = s27()
    campaign = ProposedSimulator(circuit, [[1, 0, 1, 1]]).run([])
    assert campaign.average_counters() == {
        "detect": 0.0,
        "conf": 0.0,
        "extra": 0.0,
    }


def test_n_states_limit_respected():
    circuit = s27()
    config = MotConfig(n_states=4)
    simulator = ProposedSimulator(
        circuit, s27_patterns(seed=2), config
    )
    for fault in s27_faults():
        verdict = simulator.simulate_fault(fault)
        assert verdict.num_sequences <= 4


def test_two_pass_mode_runs():
    circuit = toggle_circuit()
    config = MotConfig(implication_mode="two_pass")
    verdict = ProposedSimulator(circuit, [[1]] * 6, config).simulate_fault(
        Fault(circuit.line_id("Z"), ONE)
    )
    assert verdict.status == "mot"


def test_fallback_disabled_still_sound():
    circuit = toggle_circuit()
    config = MotConfig(forward_fallback=False)
    verdict = ProposedSimulator(circuit, [[1]] * 6, config).simulate_fault(
        Fault(circuit.line_id("Z"), ONE)
    )
    assert verdict.status == "mot"


def test_fallback_reuses_the_injected_fault_and_its_simulation(monkeypatch):
    """The [4] fallback starts from Procedure 1's injected fault and
    conventional states instead of injecting and simulating again."""
    import repro.mot.baseline as baseline

    def refuse(*args, **kwargs):
        raise AssertionError("the fallback redid Procedure 1's work")

    monkeypatch.setattr(baseline, "inject_fault", refuse)
    monkeypatch.setattr(baseline, "simulate_injected", refuse)
    started = []
    real = baseline.BaselineSimulator.expand_and_resolve

    def recording(self, fault, injected, *args, **kwargs):
        started.append(injected)
        return real(self, fault, injected, *args, **kwargs)

    monkeypatch.setattr(
        baseline.BaselineSimulator, "expand_and_resolve", recording
    )
    circuit = s27()
    verdict = ProposedSimulator(circuit, s27_patterns(seed=3)).simulate_fault(
        Fault(circuit.line_id("G16"), ONE)
    )
    assert verdict.status == "undetected"
    assert len(started) == 1 and started[0].fault.line == circuit.line_id("G16")
