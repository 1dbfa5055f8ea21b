"""Tests for detection certificates (build + independent check)."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.generators import random_moore, reconvergent_fsm
from repro.circuits.library import s27
from repro.circuits.registry import get_entry
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.faults.sites import all_faults
from repro.logic.values import ONE
from repro.mot.simulator import MotConfig, ProposedSimulator
from repro.mot.witness import build_witness, check_witness
from repro.patterns.random_gen import random_patterns

from tests.helpers import both_circuit, toggle_circuit


def test_conventional_detection_witness():
    circuit = s27()
    patterns = random_patterns(4, 16, seed=0)
    fault = Fault(circuit.line_id("G17"), 0)
    witness = build_witness(circuit, fault, patterns)
    assert witness is not None
    assert len(witness.cases) == 1
    assert witness.cases[0].constraints == {}
    assert check_witness(circuit, fault, patterns, witness)


def test_mot_detection_witness_toggle():
    circuit = toggle_circuit()
    patterns = [[1]] * 6
    fault = Fault(circuit.line_id("Z"), ONE)
    witness = build_witness(circuit, fault, patterns)
    assert witness is not None
    assert witness.cases
    assert check_witness(circuit, fault, patterns, witness)
    text = witness.describe(circuit)
    assert "Z/1" in text and "conflict at output" in text


def test_info_detection_witness_both_branches():
    circuit = both_circuit()
    patterns = [[1]] * 6
    fault = Fault(circuit.line_id("Z"), ONE)
    witness = build_witness(circuit, fault, patterns)
    assert witness is not None
    # Both branches closed by detection: two single-constraint cases
    # must be among them.
    single = [c for c in witness.cases if len(c.constraints) == 1]
    assert len(single) >= 2
    assert check_witness(circuit, fault, patterns, witness)


def test_undetected_fault_has_no_witness():
    circuit = toggle_circuit()
    patterns = [[1]] * 6
    # Z stuck-at-0 is redundant: no certificate can exist.
    assert build_witness(circuit, Fault(circuit.line_id("Z"), 0), patterns) is None


def test_witness_for_every_s27_detection():
    circuit = s27()
    patterns = random_patterns(4, 24, seed=3)
    faults = collapse_faults(circuit)
    campaign = ProposedSimulator(
        circuit, patterns, MotConfig(forward_fallback=False)
    ).run(faults)
    for verdict in campaign.verdicts:
        witness = build_witness(circuit, verdict.fault, patterns)
        if verdict.detected:
            assert witness is not None
            assert check_witness(circuit, verdict.fault, patterns, witness)
        else:
            assert witness is None


def test_witness_for_every_s298_like_mot_verdict():
    """s298_like (18 flip-flops) at its Table 2 workload: every MOT
    detection of the procedure is certified by enumeration."""
    entry = get_entry("s298_like")
    circuit = entry.build()
    patterns = random_patterns(
        circuit.num_inputs, entry.sequence_length, seed=entry.seed
    )
    campaign = ProposedSimulator(
        circuit, patterns, MotConfig(forward_fallback=False)
    ).run(collapse_faults(circuit))
    mot = [v.fault for v in campaign.verdicts if v.status == "mot"]
    assert mot
    for fault in mot:
        witness = build_witness(circuit, fault, patterns)
        assert witness is not None
        assert check_witness(circuit, fault, patterns, witness)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50_000),
    pattern_seed=st.integers(0, 500),
    fault_index=st.integers(0, 5_000),
)
def test_witness_property_random_circuits(seed, pattern_seed, fault_index):
    """Whenever a witness is built, it must check out -- on random
    machines and random faults."""
    circuit = random_moore(seed, num_inputs=2, num_flops=4, num_gates=16)
    patterns = random_patterns(2, 8, seed=pattern_seed)
    faults = all_faults(circuit)
    fault = faults[fault_index % len(faults)]
    witness = build_witness(circuit, fault, patterns)
    if witness is not None:
        assert check_witness(circuit, fault, patterns, witness)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50_000),
    pattern_seed=st.integers(0, 500),
    fault_index=st.integers(0, 5_000),
)
def test_witness_property_reconvergent(seed, pattern_seed, fault_index):
    """Same, on conflict-heavy reconvergent machines (exercises the
    phase-1 / conflict-branch paths of the certificate argument)."""
    circuit = reconvergent_fsm(seed, num_flops=3, num_inputs=2)
    patterns = random_patterns(2, 8, seed=pattern_seed)
    faults = all_faults(circuit)
    fault = faults[fault_index % len(faults)]
    witness = build_witness(circuit, fault, patterns)
    if witness is not None:
        assert check_witness(circuit, fault, patterns, witness)
