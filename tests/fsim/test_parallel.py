"""Kernel fault batches must match the serial simulator."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.generators import random_moore
from repro.circuits.library import s27
from repro.circuits.registry import build_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.sites import all_faults
from repro.fsim.conventional import run_conventional
from repro.fsim.parallel import run_parallel_conventional
from repro.patterns.random_gen import random_patterns
from repro.sim.sequential import simulate_sequence


def _compare(circuit, faults, patterns, batch=62):
    serial = run_conventional(circuit, faults, patterns)
    parallel = run_parallel_conventional(circuit, faults, patterns, batch)
    good = simulate_sequence(circuit, patterns)
    assert parallel.reference.states == good.states
    assert parallel.reference.outputs == good.outputs
    assert len(serial.verdicts) == len(parallel.verdicts)
    for s_verdict, p_verdict in zip(serial.verdicts, parallel.verdicts):
        assert s_verdict.fault == p_verdict.fault
        assert s_verdict.detected == p_verdict.detected, s_verdict.fault.describe(
            circuit
        )


def test_matches_serial_s27_full_universe():
    circuit = s27()
    _compare(circuit, all_faults(circuit), random_patterns(4, 24, seed=0))


def test_matches_serial_s27_collapsed_multiple_seeds():
    circuit = s27()
    faults = collapse_faults(circuit)
    for seed in range(4):
        _compare(circuit, faults, random_patterns(4, 16, seed=seed))


def test_matches_serial_small_batch():
    """Batching across multiple words must not change verdicts."""
    circuit = s27()
    faults = all_faults(circuit)
    patterns = random_patterns(4, 16, seed=2)
    _compare(circuit, faults, patterns, batch=5)
    _compare(circuit, faults, patterns, batch=1)


def test_matches_serial_standin_sample():
    circuit = build_circuit("s208_like")
    faults = collapse_faults(circuit)[::3]
    _compare(circuit, faults, random_patterns(circuit.num_inputs, 24, seed=1))


def test_matches_serial_opaque_cluster_circuit():
    """Circuits with 3v-opaque cells and tautology masks exercise the
    X-plane handling."""
    circuit = build_circuit("s5378_like")
    faults = collapse_faults(circuit)[::7]
    _compare(circuit, faults, random_patterns(circuit.num_inputs, 16, seed=3))


def test_rejects_bad_batch():
    with pytest.raises(ValueError):
        run_parallel_conventional(s27(), [], random_patterns(4, 4), batch=0)


def test_empty_fault_list():
    circuit = s27()
    patterns = random_patterns(4, 4)
    campaign = run_parallel_conventional(circuit, [], patterns)
    assert campaign.total == 0
    good = simulate_sequence(circuit, patterns)
    assert campaign.reference.states == good.states
    assert campaign.reference.outputs == good.outputs


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50_000),
    pattern_seed=st.integers(0, 500),
    batch=st.integers(1, 70),
)
def test_matches_serial_random_circuits(seed, pattern_seed, batch):
    circuit = random_moore(seed, num_inputs=2, num_flops=3, num_gates=14)
    faults = all_faults(circuit)[:30]
    patterns = random_patterns(2, 8, seed=pattern_seed)
    _compare(circuit, faults, patterns, batch=batch)
