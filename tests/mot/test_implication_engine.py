"""Tests for the frame implication engine."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.bench import load_bench
from repro.circuits.generators import random_moore
from repro.circuits.library import fig4, s27
from repro.logic.implication import Conflict
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.implication import FrameEngine
from repro.sim.frame import eval_frame

from tests.helpers import comb_circuit, completions

DEMO_BENCH = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "circuits",
    "learned_demo.bench",
)


def test_forward_propagation():
    circuit = comb_circuit()
    engine = FrameEngine(circuit)
    values = [UNKNOWN] * circuit.num_lines
    engine.imply(values, [(circuit.line_id("A"), ONE), (circuit.line_id("B"), ONE)])
    assert values[circuit.line_id("N")] == ZERO
    assert values[circuit.line_id("Y")] == ONE


def test_backward_propagation():
    circuit = comb_circuit()
    engine = FrameEngine(circuit)
    values = [UNKNOWN] * circuit.num_lines
    # Forcing NAND output 0 forces both inputs to 1, hence Y = XOR(0,1)=1.
    engine.imply(values, [(circuit.line_id("N"), ZERO)])
    assert values[circuit.line_id("A")] == ONE
    assert values[circuit.line_id("B")] == ONE
    assert values[circuit.line_id("Y")] == ONE


def test_conflicting_seed_assignment():
    circuit = comb_circuit()
    engine = FrameEngine(circuit)
    values = [UNKNOWN] * circuit.num_lines
    engine.imply(values, [(circuit.line_id("A"), ONE)])
    with pytest.raises(Conflict):
        engine.imply(values, [(circuit.line_id("A"), ZERO)])


def test_record_collects_new_assignments_only():
    circuit = comb_circuit()
    engine = FrameEngine(circuit)
    values = [UNKNOWN] * circuit.num_lines
    record = []
    engine.imply(values, [(circuit.line_id("N"), ZERO)], record)
    recorded_lines = {line for line, _v in record}
    assert circuit.line_id("N") in recorded_lines
    assert circuit.line_id("A") in recorded_lines
    # Every record entry matches the final values.
    for line, value in record:
        assert values[line] == value


def test_fig4_conflict_on_one_branch():
    """Paper Figure 4: next-state 1 conflicts under input 0; next-state 0
    is consistent."""
    circuit = fig4()
    engine = FrameEngine(circuit)
    base = eval_frame(circuit, [0], [UNKNOWN])
    with pytest.raises(Conflict):
        engine.imply(base.copy(), [(circuit.line_id("L11"), ONE)])
    values = base.copy()
    engine.imply(values, [(circuit.line_id("L11"), ZERO)])  # no conflict


def test_fig4_no_conflict_under_input_one():
    circuit = fig4()
    engine = FrameEngine(circuit)
    base = eval_frame(circuit, [1], [UNKNOWN])
    # With L1 = 1, L9 = 1 already and L10 = NOR(1, .) = 0, so L11 = 0:
    # forcing 1 still conflicts, forcing 0 is consistent.
    assert base[circuit.line_id("L11")] == ZERO


def test_two_pass_subset_of_fixpoint():
    """The two-pass schedule must assign a subset of the fixpoint values
    (and never a different value)."""
    circuit = s27()
    engine = FrameEngine(circuit)
    base = eval_frame(circuit, [1, 0, 1, 1], [UNKNOWN] * 3)
    seed = [(circuit.line_id("G11"), ONE)]
    full = base.copy()
    engine.imply(full, seed)
    two = base.copy()
    engine.imply_two_pass(two, seed)
    for line in range(circuit.num_lines):
        if two[line] != UNKNOWN:
            assert two[line] == full[line]


def test_two_pass_misses_a_conflict_the_fixpoint_finds():
    """On learned_demo, M = 0 makes Z = 1 infeasible.

    The paper's two-pass schedule sweeps each gate a bounded number of
    times and never revisits the cone that rules Z = 1 out; the fixpoint
    schedule finds the conflict by iterating.
    """
    circuit = load_bench(DEMO_BENCH)
    engine = FrameEngine(circuit)
    m, z = circuit.line_id("M"), circuit.line_id("Z")

    def frame():
        values = [UNKNOWN] * circuit.num_lines
        values[m] = 0
        return values

    engine.imply_two_pass(frame(), [(z, 1)], [])
    with pytest.raises(Conflict):
        engine.imply(frame(), [(z, 1)], [])


def _frame_models(circuit, base, assignments):
    """All binary completions of the frame sources that satisfy the base
    values and the seeded assignments."""
    sources = list(circuit.inputs) + [f.ps for f in circuit.flops]
    source_vals = [base[line] for line in sources]
    models = []
    for completion in completions(source_vals):
        pis = completion[: circuit.num_inputs]
        pss = completion[circuit.num_inputs:]
        values = eval_frame(circuit, list(pis), list(pss))
        if all(values[line] == value for line, value in assignments):
            models.append(values)
    return models


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 5_000), data=st.data())
def test_engine_soundness_random_frames(seed, data):
    """Implication soundness on random frames.

    Whatever the engine assigns must hold in every binary completion of
    the frame sources consistent with the seeds; a conflict means no
    such completion exists.
    """
    circuit = random_moore(seed, num_inputs=2, num_flops=3, num_gates=14)
    engine = FrameEngine(circuit)
    pis = data.draw(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=2))
    base = eval_frame(circuit, pis, [UNKNOWN] * 3)
    target_line = data.draw(
        st.sampled_from(
            [f.ns for f in circuit.flops] + list(circuit.outputs)
        )
    )
    target_value = data.draw(st.sampled_from([0, 1]))
    if base[target_line] != UNKNOWN:
        return  # nothing to imply
    assignments = [(target_line, target_value)]
    models = _frame_models(circuit, base, assignments)
    values = base.copy()
    try:
        engine.imply(values, assignments)
    except Conflict:
        assert not models, "engine conflict but a model exists"
        return
    # Soundness: every assigned value holds in every model.
    for model in models:
        for line in range(circuit.num_lines):
            if values[line] != UNKNOWN:
                assert values[line] == model[line]
