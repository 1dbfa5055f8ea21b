"""Tests for unrestricted MOT simulation (fault-free expansion)."""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.circuit.bench import parse_bench
from repro.circuits.generators import random_moore
from repro.circuits.registry import build_circuit, get_entry
from repro.faults.model import Fault
from repro.faults.sites import all_faults
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.expansion import StateSequence
from repro.mot.simulator import ProposedSimulator
from repro.mot.unrestricted import (
    UnrestrictedConfig,
    UnrestrictedSimulator,
    expand_fault_free_references,
)
from repro.patterns.random_gen import random_patterns
from repro.runner.budget import BudgetMeter, FaultBudget
from repro.sim.frame import eval_frame
from repro.sim.sequential import simulate_sequence
from repro.verify.exhaustive import (
    exhaustive_restricted_mot,
    exhaustive_unrestricted_mot,
)

#: Fault-free: the output follows a toggling flop (responses 0101... or
#: 1010... depending on the unknown initial state).  With A stuck at 0
#: the flop holds instead (responses 0000... or 1111...).  The response
#: sets are disjoint -- detected under unrestricted MOT -- but the single
#: three-valued reference is all-x, so the restricted approach cannot
#: detect anything.
TOGGLE_OBS = """
INPUT(A)
OUTPUT(O)
Q = DFF(QN)
QN = XOR(Q, A)
O = BUFF(Q)
"""


def _circuit():
    return parse_bench(TOGGLE_OBS, "toggle_obs")


def test_reference_expansion_produces_specified_outputs():
    circuit = _circuit()
    references = expand_fault_free_references(circuit, [[1]] * 4, 8)
    assert len(references) == 2
    flat = [tuple(v for row in r for v in row) for r in references]
    assert (0, 1, 0, 1) in flat
    assert (1, 0, 1, 0) in flat


def test_reference_expansion_covers_every_response():
    """Every concrete fault-free response must complete one reference."""
    import itertools

    from repro.sim.sequential import simulate_sequence

    circuit = _circuit()
    patterns = [[1]] * 4
    references = expand_fault_free_references(circuit, patterns, 8)
    for q0 in (0, 1):
        run = simulate_sequence(circuit, patterns, initial_state=[q0])
        assert any(
            all(
                ref[u][o] in (UNKNOWN, run.outputs[u][o])
                for u in range(4)
                for o in range(1)
            )
            for ref in references
        )


def _refines(finer, coarser):
    """Every output *coarser* specifies holds the same value in *finer*."""
    return all(
        old == UNKNOWN or new == old
        for finer_row, coarser_row in zip(finer, coarser)
        for new, old in zip(finer_row, coarser_row)
    )


@pytest.mark.parametrize(
    "name,length,seed", [("s208_like", 16, 1), ("s298_like", 48, 2)]
)
def test_more_references_refine_fewer(name, length, seed):
    """Another expansion round only adds specified outputs: each
    reference at ``2n`` refines some reference at ``n``, so an output
    an earlier round specified is never lost."""
    circuit = build_circuit(name)
    patterns = random_patterns(circuit.num_inputs, length, seed=seed)
    coarser = expand_fault_free_references(circuit, patterns, 1)
    for n in (2, 4, 8):
        finer = expand_fault_free_references(circuit, patterns, n)
        for reference in finer:
            assert any(_refines(reference, old) for old in coarser), n
        coarser = finer


def test_outputs_of_earlier_rounds_detect_on_s298_like():
    """``xor_7/1`` is detected only against references that keep the
    outputs every earlier expansion round specified."""
    entry = get_entry("s298_like")
    circuit = entry.build()
    patterns = random_patterns(
        circuit.num_inputs, entry.sequence_length, seed=entry.seed
    )
    (fault,) = [
        f for f in all_faults(circuit) if f.describe(circuit) == "xor_7/1"
    ]
    verdict = UnrestrictedSimulator(circuit, patterns).simulate_fault(fault)
    assert verdict.status == "mot"


def _serial_references(circuit, patterns, n_references):
    """The greedy reference expansion on a list of sequences, one
    interpreted frame at a time: every round duplicates each sequence
    (its 0-copy, then its 1-copy) and forward-fills the marked frames
    on top of the outputs the sequence already specifies."""
    good = simulate_sequence(circuit, patterns)
    length = len(patterns)

    def fill(seq, outputs):
        outputs = [list(row) for row in outputs]
        for u in range(length):
            if u not in seq.marked:
                continue
            values = eval_frame(circuit, patterns[u], seq.states[u])
            for position, line in enumerate(circuit.outputs):
                if values[line] != UNKNOWN:
                    outputs[u][position] = values[line]
            for i, flop in enumerate(circuit.flops):
                if values[flop.ns] != UNKNOWN and not seq.assign(
                    u + 1, i, values[flop.ns]
                ):
                    return None  # infeasible
        seq.marked.clear()
        return outputs

    def gain(seq, u, i):
        base = eval_frame(circuit, patterns[u], seq.states[u])
        total = 0
        for alpha in (ZERO, ONE):
            row = list(seq.states[u])
            row[i] = alpha
            trial = eval_frame(circuit, patterns[u], row)
            total += sum(
                1
                for line in circuit.outputs
                if base[line] == UNKNOWN and trial[line] != UNKNOWN
            )
        return total

    sequences = [
        (StateSequence(states=[list(row) for row in good.states]),
         good.outputs)
    ]
    while 2 * len(sequences) <= n_references:
        best = None
        for u in range(length):
            for i in range(circuit.num_flops):
                if any(seq.states[u][i] != UNKNOWN for seq, _ in sequences):
                    continue
                trial_gain = gain(sequences[0][0], u, i)
                if trial_gain > 0 and (best is None or trial_gain > best[0]):
                    best = (trial_gain, u, i)
        if best is None:
            break
        _gain, u, i = best
        expanded = []
        for seq, outputs in sequences:
            twin = seq.copy()
            for candidate, value in ((seq, ZERO), (twin, ONE)):
                candidate.assign(u, i, value)
                filled = fill(candidate, outputs)
                if filled is not None:
                    expanded.append((candidate, filled))
        sequences = expanded
    return [outputs for _seq, outputs in sequences]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 50_000),
    length=st.integers(1, 10),
    n_references=st.sampled_from([1, 2, 4, 8, 16]),
)
@example(seed=21, length=6, n_references=16)
@example(seed=63, length=6, n_references=16)
def test_reference_expansion_matches_the_serial_list_version(
    seed, length, n_references
):
    """The slot-based expansion returns the list version's references,
    in its order -- also when the 0-copies of earlier rounds are
    infeasible, so the list's first sequence is not slot 0."""
    circuit = random_moore(seed, num_inputs=2, num_flops=4, num_gates=16)
    patterns = random_patterns(2, length, seed=seed)
    assert expand_fault_free_references(
        circuit, patterns, n_references
    ) == _serial_references(circuit, patterns, n_references)


def test_unrestricted_detects_what_restricted_cannot():
    circuit = _circuit()
    patterns = [[1]] * 4
    fault = Fault(circuit.line_id("A"), ZERO, None)
    # Ground truth: unrestricted-detectable, not restricted-detectable.
    assert exhaustive_unrestricted_mot(circuit, fault, patterns)
    assert not exhaustive_restricted_mot(circuit, fault, patterns)
    # Simulators agree.
    restricted = ProposedSimulator(circuit, patterns).simulate_fault(fault)
    assert not restricted.detected
    unrestricted = UnrestrictedSimulator(circuit, patterns).simulate_fault(fault)
    assert unrestricted.status == "mot"
    assert unrestricted.how == "unrestricted"


def test_unrestricted_subsumes_restricted_detections():
    circuit = _circuit()
    patterns = [[1], [0], [1], [1]]
    faults = all_faults(circuit)
    restricted = ProposedSimulator(circuit, patterns).run(faults)
    unrestricted = UnrestrictedSimulator(circuit, patterns).run(faults)
    for r_verdict, u_verdict in zip(restricted.verdicts, unrestricted.verdicts):
        if r_verdict.detected:
            assert u_verdict.detected, r_verdict.fault.describe(circuit)


def test_conv_fault_costs_one_event_and_no_reference_run():
    circuit = build_circuit("s27")
    patterns = random_patterns(circuit.num_inputs, 16, seed=1)
    simulator = UnrestrictedSimulator(
        circuit, patterns, UnrestrictedConfig(n_references=4)
    )
    assert simulator.n_references > 1
    conv = [
        fault for fault in all_faults(circuit)
        if simulator._conventional.front_outcome(fault) == "conv"
    ]
    assert conv
    for fault in conv:
        # A caller's meter with room for one event: a per-reference run
        # would charge a second one and raise.
        meter = BudgetMeter(FaultBudget(max_events=1))
        assert simulator.simulate_fault(fault, meter).status == "conv"
        assert meter.events == 1


def test_reference_limit_respected():
    circuit = random_moore(3, num_inputs=2, num_flops=5, num_gates=20)
    patterns = random_patterns(2, 6, seed=0)
    config = UnrestrictedConfig(n_references=4)
    simulator = UnrestrictedSimulator(circuit, patterns, config)
    assert simulator.n_references <= 4


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
def test_unrestricted_soundness_random(seed, pattern_seed, fault_index):
    """Unrestricted detections must satisfy the disjoint-response-set
    definition (exhaustive oracle)."""
    circuit = random_moore(seed, num_inputs=2, num_flops=3, num_gates=14)
    patterns = random_patterns(2, 6, seed=pattern_seed)
    faults = all_faults(circuit)
    fault = faults[fault_index % len(faults)]
    verdict = UnrestrictedSimulator(circuit, patterns).simulate_fault(fault)
    if verdict.detected:
        assert exhaustive_unrestricted_mot(circuit, fault, patterns)
