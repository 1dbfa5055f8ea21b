"""Detection-hardness scoring (repro.analysis.testability)."""

import pytest

from repro.analysis.collapse import fault_classes
from repro.analysis.testability import (
    FaultScore,
    hardest_first,
    order_by_hardness,
    pin_observability,
    score_faults,
)
from repro.circuit.bench import parse_bench
from repro.circuit.scoap import INFINITY, compute_scoap
from repro.circuits.library import s27
from repro.faults.model import Fault, Pin
from repro.faults.sites import all_faults
from repro.logic.values import ONE, ZERO

COMB_BENCH = """
INPUT(A)
INPUT(B)
OUTPUT(O)
Q = DFF(O)
W = AND(A, B)
O = NOT(W)
"""


def _comb():
    return parse_bench(COMB_BENCH, "comb_chain")


# ----------------------------------------------------------------------
# FaultScore arithmetic
# ----------------------------------------------------------------------
def test_hardness_is_activation_plus_observation():
    fault = Fault(line=0, stuck_at=ZERO)
    score = FaultScore(fault, activation=3.0, observation=2.0)
    assert score.hardness == pytest.approx(5.0)
    unobservable = FaultScore(fault, activation=3.0, observation=INFINITY)
    assert unobservable.hardness == INFINITY


def test_untestable_faults_score_infinite():
    fault = Fault(line=0, stuck_at=ZERO)
    score = FaultScore(fault, activation=INFINITY, observation=1.0)
    assert score.hardness == INFINITY


# ----------------------------------------------------------------------
# Pin-accurate observability
# ----------------------------------------------------------------------
def test_output_tap_observability_is_zero():
    circuit = _comb()
    scoap = compute_scoap(circuit)
    line_o = circuit.line_id("O")
    tap = Fault(line=line_o, stuck_at=ZERO, pin=Pin("output", 0, 0))
    assert pin_observability(circuit, scoap, tap) == 0.0


def test_stem_fault_uses_line_observability():
    circuit = _comb()
    scoap = compute_scoap(circuit)
    line_w = circuit.line_id("W")
    stem = Fault(line=line_w, stuck_at=ONE)
    assert pin_observability(circuit, scoap, stem) == scoap.co[line_w]


def test_gate_pin_observability_adds_side_inputs():
    # Observing A through the AND gate costs co(W) + cc1(B) + 1.
    circuit = _comb()
    scoap = compute_scoap(circuit)
    gate_index = next(
        i for i, gate in enumerate(circuit.gates)
        if circuit.line_names[gate.output] == "W"
    )
    pin = Pin("gate", gate_index, 0)
    fault = Fault(line=circuit.line_id("A"), stuck_at=ZERO, pin=pin)
    expected = (
        scoap.co[circuit.line_id("W")] + scoap.cc1[circuit.line_id("B")] + 1.0
    )
    assert pin_observability(circuit, scoap, fault) == pytest.approx(expected)


# ----------------------------------------------------------------------
# Scoring and ordering
# ----------------------------------------------------------------------
def test_scores_cover_input_order():
    circuit = s27()
    faults = fault_classes(circuit).representatives()
    scores = score_faults(circuit, faults)
    assert [score.fault for score in scores] == faults


def test_sequential_observation_keeps_scores_finite():
    # s27's flops are observable through the state with observe_state;
    # every representative must get a finite hardness estimate.
    circuit = s27()
    faults = fault_classes(circuit).representatives()
    assert all(s.hardness < INFINITY for s in score_faults(circuit, faults))


def test_order_by_hardness_is_a_permutation_and_sorted():
    circuit = s27()
    faults = fault_classes(circuit).representatives()
    scores = score_faults(circuit, faults)
    order = order_by_hardness(scores)
    assert sorted(order) == list(range(len(faults)))
    hardness = [scores[i].hardness for i in order]
    assert hardness == sorted(hardness, reverse=True)


def test_hardest_first_is_deterministic():
    circuit = s27()
    faults = fault_classes(circuit).representatives()
    assert hardest_first(circuit, faults) == hardest_first(s27(), faults)

