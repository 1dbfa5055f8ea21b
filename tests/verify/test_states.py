"""Tests for the packed initial-state enumeration and its six callers.

Every check that quantifies over initial states runs on
:func:`repro.verify.states.initial_state_chunks`; the serial references
here (built on :func:`tests.helpers.serial_runs`) run the interpreter
once per initial state.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.generators import random_moore
from repro.circuits.library import s27
from repro.diagnosis import per_state_signatures
from repro.faults.collapse import collapse_faults
from repro.faults.injection import inject_fault
from repro.faults.model import Fault
from repro.faults.sites import all_faults
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.witness import (
    DetectionWitness,
    WitnessCase,
    build_witness,
    check_witness,
)
from repro.patterns.random_gen import random_patterns
from repro.sim.sequential import simulate_sequence
from repro.verify import states
from repro.verify.equivalence import sequentially_equivalent
from repro.verify.exhaustive import (
    exhaustive_restricted_mot,
    exhaustive_unrestricted_mot,
)
from repro.verify.pessimism import measure_pessimism
from repro.verify.states import initial_state_chunks

from tests.helpers import serial_restricted_mot, serial_runs


def _slot_values(planes, slot):
    ones, zeros = planes
    bit = 1 << slot
    return [
        ONE if one & bit else (ZERO if zero & bit else UNKNOWN)
        for one, zero in zip(ones, zeros)
    ]


def _with_x(patterns, rng):
    patterns = [list(row) for row in patterns]
    patterns[rng.randrange(len(patterns))][
        rng.randrange(len(patterns[0]))
    ] = UNKNOWN
    return patterns


def _s27_case():
    return s27(), {}, _with_x(random_patterns(4, 6, seed=3), random.Random(3))


def _s27_forced_case():
    """A stem fault on a flip-flop output pins that flop."""
    circuit = s27()
    injected = inject_fault(circuit, Fault(circuit.line_id("G6"), ONE))
    assert injected.forced_ps
    patterns = _with_x(random_patterns(4, 6, seed=4), random.Random(4))
    return injected.circuit, injected.forced_ps, patterns


def _moore_case():
    circuit = random_moore(57, num_inputs=2, num_flops=5, num_gates=16)
    return circuit, {}, random_patterns(2, 5, seed=57)


@pytest.mark.parametrize("chunk_bits", [1, 3, states.CHUNK_BITS])
@pytest.mark.parametrize("case", [_s27_case, _s27_forced_case, _moore_case])
def test_slots_match_serial_simulation(monkeypatch, chunk_bits, case):
    """Slot k of the chunk starting at state n holds the trajectory
    ``simulate_sequence`` gives from state n + k, every state comes
    once, and the numbering is ``itertools.product`` order."""
    monkeypatch.setattr(states, "CHUNK_BITS", chunk_bits)
    circuit, forced, patterns = case()
    serial = list(serial_runs(circuit, patterns, forced))
    visited = []
    for chunk in initial_state_chunks(circuit, patterns, forced):
        for slot in range(chunk.width):
            index = chunk.start + slot
            _state, run = serial[index]
            assert [
                _slot_values(chunk.state(u), slot)
                for u in range(len(patterns) + 1)
            ] == run.states
            assert [
                _slot_values(chunk.outputs(u), slot)
                for u in range(len(patterns))
            ] == run.outputs
            visited.append(index)
    assert visited == list(range(len(serial)))


@pytest.mark.parametrize("seed", [0, 5])
def test_restricted_oracle_matches_serial_on_s27(seed):
    """Every prefix: short ones are where detection depends on the
    initial state."""
    circuit = s27()
    patterns = random_patterns(4, 24, seed=seed)
    for length in range(1, len(patterns) + 1):
        prefix = patterns[:length]
        reference = simulate_sequence(circuit, prefix).outputs
        for fault in collapse_faults(circuit):
            assert exhaustive_restricted_mot(
                circuit, fault, prefix, reference
            ) == serial_restricted_mot(circuit, fault, prefix, reference)


# ----------------------------------------------------------------------
# Serial references of the other five callers
# ----------------------------------------------------------------------
def _response(run):
    return tuple(tuple(row) for row in run.outputs)


def _serial_pessimism(circuit, patterns):
    three_valued = simulate_sequence(circuit, patterns).outputs
    runs = [run for _state, run in serial_runs(circuit, patterns)]
    specified = pessimistic = genuine = 0
    for time, row in enumerate(three_valued):
        for position, value in enumerate(row):
            if value != UNKNOWN:
                specified += 1
            elif len({run.outputs[time][position] for run in runs}) == 1:
                pessimistic += 1
            else:
                genuine += 1
    return specified, pessimistic, genuine


def _serial_check_witness(circuit, fault, patterns, witness, reference):
    injected = inject_fault(circuit, fault)
    for _state, run in serial_runs(
        injected.circuit, patterns, injected.forced_ps
    ):
        satisfied = False
        for case in witness.cases:
            if any(
                run.states[u][flop_index] != value
                for (u, flop_index), value in case.constraints.items()
            ):
                continue
            time, position = case.site
            response = run.outputs[time][position]
            expected = reference[time][position]
            if UNKNOWN not in (response, expected) and response != expected:
                satisfied = True
                break
        if not satisfied:
            return False
    return True


def _serial_equivalent(a, b, sequences):
    for index, patterns in enumerate(sequences):
        for (state, run_a), (_state, run_b) in zip(
            serial_runs(a, patterns), serial_runs(b, patterns)
        ):
            if run_a.outputs != run_b.outputs:
                return index, tuple(state)
    return None


def _random_witness(fault, rng, length, num_flops, num_outputs):
    cases = [
        WitnessCase(
            {
                (rng.randrange(length + 1), rng.randrange(num_flops)):
                    rng.randrange(2)
                for _ in range(rng.randrange(3))
            },
            (rng.randrange(length), rng.randrange(num_outputs)),
        )
        for _ in range(rng.randrange(1, 6))
    ]
    return DetectionWitness(fault, cases)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50_000),
    num_flops=st.integers(3, 6),
    pattern_seed=st.integers(0, 500),
    fault_index=st.integers(0, 5_000),
    add_x=st.booleans(),
    chunk_bits=st.sampled_from([1, 3, states.CHUNK_BITS]),
)
def test_rebuilt_checks_match_serial_references(
    seed, num_flops, pattern_seed, fault_index, add_x, chunk_bits
):
    """All six enumerations agree with their serial versions on random
    Moore machines, across chunk boundaries, X inputs included."""
    original_bits = states.CHUNK_BITS
    states.CHUNK_BITS = chunk_bits
    try:
        _compare_with_serial(seed, num_flops, pattern_seed, fault_index, add_x)
    finally:
        states.CHUNK_BITS = original_bits


def _compare_with_serial(seed, num_flops, pattern_seed, fault_index, add_x):
    rng = random.Random(seed)
    circuit = random_moore(
        seed, num_inputs=2, num_flops=num_flops, num_gates=16
    )
    patterns = random_patterns(2, 8, seed=pattern_seed)
    if add_x:
        patterns = _with_x(patterns, rng)
    faults = all_faults(circuit)
    fault = faults[fault_index % len(faults)]
    injected = inject_fault(circuit, fault)
    reference = simulate_sequence(circuit, patterns).outputs

    assert exhaustive_restricted_mot(
        circuit, fault, patterns, reference
    ) == serial_restricted_mot(circuit, fault, patterns, reference)

    good = {_response(run) for _s, run in serial_runs(circuit, patterns)}
    faulty = {
        _response(run)
        for _s, run in serial_runs(
            injected.circuit, patterns, injected.forced_ps
        )
    }
    assert exhaustive_unrestricted_mot(circuit, fault, patterns) == (
        not good & faulty
    )
    assert per_state_signatures(circuit, fault, patterns) == sorted(faulty)

    report = measure_pessimism(circuit, patterns)
    assert (
        report.specified, report.pessimistic, report.genuine
    ) == _serial_pessimism(circuit, patterns)

    witnesses = [
        _random_witness(
            fault, rng, len(patterns), num_flops, circuit.num_outputs
        )
    ]
    built = build_witness(circuit, fault, patterns)
    if built is not None:
        witnesses.append(built)
        witnesses.append(DetectionWitness(fault, built.cases[:-1]))
    for witness in witnesses:
        assert check_witness(
            circuit, fault, patterns, witness, reference
        ) == _serial_check_witness(
            circuit, fault, patterns, witness, reference
        )

    sequences = [random_patterns(2, 6, seed=pattern_seed + 1), patterns]
    assert sequentially_equivalent(
        circuit, injected.circuit, sequences
    ) == _serial_equivalent(circuit, injected.circuit, sequences)
