"""Structural sanity tests for the benchmark stand-in circuits."""

import pytest

from repro.circuit.stats import circuit_stats
from repro.circuits import registry
from repro.circuits.bench_expectations import EXPECTED_FLOPS
from repro.logic.values import UNKNOWN
from repro.patterns.random_gen import random_patterns
from repro.sim.sequential import simulate_sequence

ALL_NAMES = [e.name for e in registry.benchmark_entries()]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builds_and_validates(name):
    circuit = registry.build_circuit(name)
    assert circuit.num_gates > 0
    assert circuit.num_outputs > 0
    assert circuit.num_inputs > 0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_expected_flop_counts(name):
    circuit = registry.build_circuit(name)
    assert circuit.num_flops == EXPECTED_FLOPS[name]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_scale_note_names_the_real_flop_count(name):
    note = registry.get_entry(name).scale_note
    assert f"{EXPECTED_FLOPS[name]} FFs" in note


@pytest.mark.parametrize("name", ALL_NAMES)
def test_deterministic_construction(name):
    a = registry.build_circuit(name)
    b = registry.build_circuit(name)
    assert a.line_names == b.line_names
    assert [(g.gate_type, g.output, g.inputs) for g in a.gates] == [
        (g.gate_type, g.output, g.inputs) for g in b.gates
    ]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_has_unspecified_state_under_random_patterns(name):
    """Every benchmark keeps some state unspecified (the regime the MOT
    approach addresses) while specifying some outputs (so detection is
    possible at all)."""
    entry = registry.get_entry(name)
    circuit = entry.build()
    patterns = random_patterns(circuit.num_inputs, 24, seed=entry.seed)
    result = simulate_sequence(circuit, patterns)
    assert any(UNKNOWN in row for row in result.states)
    assert any(
        value != UNKNOWN for row in result.outputs for value in row
    )


def test_registry_lookup_unknown():
    with pytest.raises(KeyError):
        registry.get_entry("s9999")


def test_registry_order_matches_paper():
    names = [e.name for e in registry.benchmark_entries()]
    assert names[0] == "s27"
    assert names.index("s208_like") < names.index("s5378_like")
    assert names[-1] == "mp2_like"


def test_largest_circuits_skip_baseline():
    assert not registry.get_entry("s15850_like").run_baseline
    assert not registry.get_entry("s35932_like").run_baseline
    assert registry.get_entry("s5378_like").run_baseline
