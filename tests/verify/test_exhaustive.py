"""Tests for the exhaustive restricted-MOT oracle."""

import pytest

from repro.circuits.library import s27
from repro.faults.model import Fault
from repro.logic.values import ONE, ZERO
from repro.verify import states
from repro.verify.exhaustive import exhaustive_restricted_mot

from tests.helpers import toggle_circuit


def test_toggle_fault_is_mot_detectable():
    circuit = toggle_circuit()
    assert exhaustive_restricted_mot(
        circuit, Fault(circuit.line_id("Z"), ONE), [[1]] * 4
    )


def test_toggle_needs_enough_patterns():
    """One pattern cannot distinguish both initial states."""
    circuit = toggle_circuit()
    assert not exhaustive_restricted_mot(
        circuit, Fault(circuit.line_id("Z"), ONE), [[1]]
    )


def test_redundant_fault_not_detectable():
    circuit = toggle_circuit()
    assert not exhaustive_restricted_mot(
        circuit, Fault(circuit.line_id("Z"), ZERO), [[1]] * 6
    )


def test_conventionally_detected_implies_oracle():
    """Three-valued detection is sound, so the oracle must agree."""
    from repro.faults.collapse import collapse_faults
    from repro.fsim.conventional import run_conventional
    from repro.patterns.random_gen import random_patterns

    circuit = s27()
    patterns = random_patterns(4, 24, seed=2)
    campaign = run_conventional(circuit, collapse_faults(circuit), patterns)
    for verdict in campaign.verdicts:
        if verdict.detected:
            assert exhaustive_restricted_mot(
                circuit, verdict.fault, patterns,
                campaign.reference.outputs,
            )


def test_max_flops_guard(monkeypatch):
    monkeypatch.setattr(states, "MAX_FREE_FLOPS", 2)
    circuit = s27()
    with pytest.raises(ValueError):
        exhaustive_restricted_mot(circuit, Fault(0, 0), [[1, 0, 1, 1]])


def test_forced_flops_not_enumerated(monkeypatch):
    """A present-state stem fault pins that flop, so the oracle only
    enumerates the remaining ones (and still terminates with the flop
    cap one below the flop count)."""
    monkeypatch.setattr(states, "MAX_FREE_FLOPS", 2)
    circuit = s27()
    fault = Fault(circuit.line_id("G5"), ONE, None)
    exhaustive_restricted_mot(circuit, fault, [[1, 0, 1, 1]] * 3)
