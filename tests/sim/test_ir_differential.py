"""Cross-engine differential suite: the compiled IR kernel vs the interpreters.

The compiled two-plane kernel (:mod:`repro.sim.ir` /
:mod:`repro.sim.kernel`) replaces the per-gate object-graph interpreter
on every hot path, so its one non-negotiable property is **bit
identity**: for any circuit and any three-valued stimulus, every engine
must agree line-for-line and verdict-for-verdict.  This suite drives
seeded random Moore machines and random 3-valued patterns through

* :func:`repro.sim.frame.eval_frame` vs the width-1 kernel and every
  slot of a packed PPSFP evaluation,
* :func:`repro.sim.sequential.simulate_sequence` vs the IR sequential
  path, including X initial states, ``forced_ps`` pinning, per-frame
  value capture and flop state carry-over across frames,
* the serial :mod:`repro.fsim.conventional` vs the kernel fault batches
  of :mod:`repro.fsim.parallel`,
* a full :func:`~repro.sim.kernel.eval_pass` vs the cone-limited
  :func:`~repro.sim.kernel.eval_cone` over any set of schedule slots,

and asserts exact equality everywhere.  X-propagation is exercised by
construction: patterns and states draw from {0, 1, X} uniformly.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuit.netlist import CircuitBuilder
from repro.circuits.generators import random_moore
from repro.circuits.library import s27
from repro.circuits.registry import build_circuit
from repro.faults.sites import all_faults
from repro.fsim.conventional import run_conventional
from repro.fsim.parallel import run_parallel_conventional
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.patterns.random_gen import random_patterns
from repro.sim.frame import eval_frame
from repro.sim.ir import (
    KIND_PAIR,
    OP_CONST1,
    OP_NOR,
    compile_circuit,
    entry_kind,
)
from repro.sim.kernel import (
    compile_fault_batch,
    eval_cone,
    eval_frame_patterns,
    eval_frame_planes,
    eval_frame_values,
    eval_pass,
    simulate_fault_batch,
    simulate_sequence_ir,
)
from repro.sim.sequential import simulate_sequence
from tests.helpers import program_entries


def _xpat(num, rng):
    """One row of uniformly random three-valued stimulus."""
    return [rng.choice((ZERO, ONE, UNKNOWN)) for _ in range(num)]


# ----------------------------------------------------------------------
# IR structure sanity
# ----------------------------------------------------------------------
def test_ir_schedule_is_levelized_and_complete():
    # s35932_like has 15 runs over 5 levels and every entry kind but
    # the constant.
    for name in ("s27", "s35932_like"):
        _assert_schedule_levelized_and_complete(name)


def _assert_schedule_levelized_and_complete(name):
    circuit = build_circuit(name)
    ir = compile_circuit(circuit)
    assert ir.num_gates == len(circuit.gates)
    assert sorted(ir.slot_of_gate) == list(range(ir.num_gates))
    # Every fanin of a slot is produced at a strictly earlier slot (or
    # is a frame source), which is what makes one sequential pass and
    # per-level lane parallelism both correct.
    producer = {ir.outs[s]: s for s in range(ir.num_gates)}
    assert len(producer) == ir.num_gates
    sources = set(ir.inputs) | set(ir.ps_lines)
    for s in range(ir.num_gates):
        for i in range(ir.fanin_offsets[s], ir.fanin_offsets[s + 1]):
            line = ir.fanin_lines[i]
            assert line in sources or producer[line] < s
    # The program's entries tile the schedule in schedule order: each
    # gate once, in a run of its opcode and of the kind its fanin count
    # gives, with no forces; every two-input AND-family gate is flat.
    s = 0
    for op, kind, out, fanins, pins, force in program_entries(ir.program):
        assert ir.ops[s] == op and ir.outs[s] == out
        assert fanins == ir.fanin_lines[
            ir.fanin_offsets[s]:ir.fanin_offsets[s + 1]
        ]
        assert kind == entry_kind(op, len(fanins))
        if op <= OP_NOR and len(fanins) == 2:
            assert kind == KIND_PAIR
        assert pins == (None,) * len(fanins) and force is None
        s += 1
    assert s == ir.num_gates
    # Runs are non-empty and maximal, so a run may cross levels: on s27
    # some do, which the tiling above has checked in schedule order.
    keys = [(op, kind) for op, kind, _ in ir.program]
    assert all(keys[k] != keys[k + 1] for k in range(len(keys) - 1))
    assert all(gates for _, _, gates in ir.program)
    run_starts = [0]
    for _, _, gates in ir.program:
        run_starts.append(run_starts[-1] + len(gates))
    crossing = [
        start for start, end in zip(run_starts, run_starts[1:])
        if any(start < level < end for level in ir.level_starts)
    ]
    if name == "s27":
        assert crossing
    # Levels tile the schedule too.
    assert ir.level_starts[0] == 0
    assert ir.level_starts[-1] == ir.num_gates
    assert list(ir.level_starts) == sorted(ir.level_starts)


def test_ir_is_compiled_once_per_circuit():
    circuit = build_circuit("s27")
    assert compile_circuit(circuit) is compile_circuit(circuit)


# ----------------------------------------------------------------------
# Frame evaluation: interpreter == width-1 kernel == packed slots
# ----------------------------------------------------------------------
def test_frame_values_match_on_seeded_random_circuits():
    rng = random.Random(2026)
    for seed in range(60):
        circuit = random_moore(
            seed, num_inputs=3, num_flops=3, num_gates=18
        )
        for _ in range(4):
            pi = _xpat(circuit.num_inputs, rng)
            ps = _xpat(circuit.num_flops, rng)
            interp = eval_frame(circuit, pi, ps)
            assert eval_frame_values(circuit, pi, ps) == interp


def test_ppsfp_slots_decode_to_exact_interpreter_frames():
    rng = random.Random(7)
    circuit = build_circuit("s27")
    patterns = [_xpat(circuit.num_inputs, rng) for _ in range(70)]
    states = [_xpat(circuit.num_flops, rng) for _ in range(70)]
    reference = [
        eval_frame(circuit, p, s) for p, s in zip(patterns, states)
    ]
    planes = eval_frame_planes(circuit, patterns, states)
    assert [
        planes.line_values(slot) for slot in range(len(patterns))
    ] == reference
    assert eval_frame_patterns(circuit, patterns, states) == reference
    # Output / next-state extraction agrees with the full decode.
    for slot in range(len(patterns)):
        row = reference[slot]
        assert planes.output_values(slot) == [
            row[line] for line in circuit.outputs
        ]
        assert planes.next_state_values(slot) == [
            row[f.ns] for f in circuit.flops
        ]


def test_ppsfp_default_states_are_all_x():
    circuit = build_circuit("s27")
    patterns = random_patterns(circuit.num_inputs, 8, seed=1)
    explicit = eval_frame_patterns(
        circuit, patterns, [[UNKNOWN] * circuit.num_flops] * len(patterns)
    )
    assert eval_frame_patterns(circuit, patterns) == explicit


def test_x_propagation_is_identical_not_just_pessimistic():
    """An all-X stimulus must produce the same X set on both engines
    (constant gates still force values; everything reconvergent is X)."""
    for seed in (0, 5, 9):
        circuit = random_moore(seed, num_inputs=4, num_flops=4, num_gates=24)
        pi = [UNKNOWN] * circuit.num_inputs
        ps = [UNKNOWN] * circuit.num_flops
        assert eval_frame_values(circuit, pi, ps) == eval_frame(
            circuit, pi, ps
        )


# ----------------------------------------------------------------------
# Sequential simulation: state carry-over across frames
# ----------------------------------------------------------------------
def test_sequential_trajectories_match_including_frames():
    rng = random.Random(3)
    for seed in range(25):
        circuit = random_moore(seed, num_inputs=3, num_flops=4, num_gates=20)
        patterns = [_xpat(circuit.num_inputs, rng) for _ in range(10)]
        interp = simulate_sequence(circuit, patterns, keep_frames=True)
        ir = simulate_sequence_ir(circuit, patterns, keep_frames=True)
        assert ir.states == interp.states
        assert ir.outputs == interp.outputs
        assert ir.frames == interp.frames


def test_sequential_with_initial_state_and_forced_ps():
    rng = random.Random(17)
    circuit = build_circuit("s27")
    patterns = [_xpat(circuit.num_inputs, rng) for _ in range(12)]
    initial = [ONE, UNKNOWN, ZERO]
    forced = {1: ZERO}
    interp = simulate_sequence(
        circuit, patterns, initial_state=initial, forced_ps=forced,
        keep_frames=True,
    )
    ir = simulate_sequence(
        circuit, patterns, initial_state=initial, forced_ps=forced,
        keep_frames=True, engine="ir",
    )
    assert ir.states == interp.states
    assert ir.outputs == interp.outputs
    assert ir.frames == interp.frames
    # The forced flop is pinned at every time unit on both engines.
    assert all(row[1] == ZERO for row in ir.states)


def test_flop_carry_over_feeds_next_frame_exactly():
    """Frame u+1 of the sequential path must consume frame u's computed
    next state -- re-evaluating each frame standalone from the recorded
    states reproduces the trajectory on both engines."""
    circuit = build_circuit("s27")
    patterns = random_patterns(circuit.num_inputs, 8, seed=5)
    for engine, frame in (("interp", eval_frame), ("ir", eval_frame_values)):
        result = simulate_sequence(
            circuit, patterns, keep_frames=True, engine=engine
        )
        for u, pattern in enumerate(patterns):
            standalone = frame(circuit, pattern, result.states[u])
            assert standalone == result.frames[u]
            assert result.states[u + 1] == [
                standalone[f.ns] for f in circuit.flops
            ]


def test_sequential_rejects_unknown_engine_and_bad_shapes():
    circuit = build_circuit("s27")
    patterns = random_patterns(circuit.num_inputs, 2, seed=0)
    with pytest.raises(ValueError):
        simulate_sequence(circuit, patterns, engine="fast")
    with pytest.raises(ValueError):
        simulate_sequence_ir(circuit, [[ONE]])
    with pytest.raises(ValueError):
        simulate_sequence_ir(circuit, patterns, initial_state=[ONE])


# ----------------------------------------------------------------------
# Fault simulation: serial == kernel fault batches
# ----------------------------------------------------------------------
def _assert_verdicts_agree(circuit, faults, patterns, batch=62):
    serial = run_conventional(circuit, faults, patterns)
    campaign = run_parallel_conventional(circuit, faults, patterns, batch)
    assert len(campaign.verdicts) == len(serial.verdicts)
    for expected, got in zip(serial.verdicts, campaign.verdicts):
        assert expected.fault == got.fault
        assert expected.detected == got.detected, expected.fault.describe(
            circuit
        )


def test_fault_verdicts_agree_on_s27_full_universe():
    circuit = s27()
    _assert_verdicts_agree(
        circuit, all_faults(circuit), random_patterns(4, 24, seed=0)
    )


def test_fault_verdicts_agree_on_seeded_random_circuits():
    for seed in range(12):
        circuit = random_moore(seed, num_inputs=3, num_flops=3, num_gates=16)
        faults = all_faults(circuit)
        patterns = random_patterns(circuit.num_inputs, 12, seed=seed)
        _assert_verdicts_agree(circuit, faults, patterns, batch=11)


def test_fault_batch_masks_match_serial_detection_bits():
    circuit = s27()
    faults = all_faults(circuit)
    patterns = random_patterns(4, 16, seed=4)
    serial = run_conventional(circuit, faults, patterns)
    batch = compile_fault_batch(circuit, faults)
    detected = simulate_fault_batch(
        circuit, batch, patterns, serial.reference.outputs
    ).detected
    for j, verdict in enumerate(serial.verdicts):
        assert bool((detected >> j) & 1) == verdict.detected


def test_parallel_rejects_unknown_engine():
    circuit = s27()
    patterns = random_patterns(circuit.num_inputs, 2, seed=0)
    for engine in ("interp", "cuda"):
        with pytest.raises(ValueError, match="selector was removed"):
            run_parallel_conventional(
                circuit, all_faults(circuit), patterns, engine=engine
            )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50_000),
    pattern_seed=st.integers(0, 500),
    batch=st.integers(1, 70),
)
def test_property_all_engines_agree(seed, pattern_seed, batch):
    """Hypothesis sweep: random machine, random workload, random batch
    width -- serial and the kernel fault batches must agree, and the
    frame/sequential engines must match on the same machine."""
    circuit = random_moore(seed, num_inputs=2, num_flops=3, num_gates=14)
    patterns = random_patterns(circuit.num_inputs, 8, seed=pattern_seed)
    faults = all_faults(circuit)[:20]
    _assert_verdicts_agree(circuit, faults, patterns, batch=batch)
    interp = simulate_sequence(circuit, patterns, keep_frames=True)
    ir = simulate_sequence(circuit, patterns, keep_frames=True, engine="ir")
    assert ir.states == interp.states
    assert ir.outputs == interp.outputs
    assert ir.frames == interp.frames


# ----------------------------------------------------------------------
# Cone-limited evaluation == the full pass on the cone
# ----------------------------------------------------------------------
_CONE_GATES = (
    "AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF",
    "CONST0", "CONST1",
)


def _every_opcode_circuit(seed):
    """A random combinational core holding every gate type (constants
    included) and gates that read one line on several pins."""
    rng = random.Random(seed)
    builder = CircuitBuilder(f"cone_{seed}")
    for k in range(3):
        builder.add_input(f"pi{k}")
    pool = [f"pi{k}" for k in range(3)] + [f"ps{k}" for k in range(3)]
    for g in range(30):
        op = _CONE_GATES[g] if g < len(_CONE_GATES) else rng.choice(_CONE_GATES)
        if op.startswith("CONST"):
            sources = []
        elif op in ("NOT", "BUFF"):
            sources = [rng.choice(pool)]
        else:
            sources = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
            if rng.random() < 0.4:
                sources.insert(rng.randrange(len(sources)), sources[0])
        builder.add_gate(op, f"g{g}", sources)
        pool.append(f"g{g}")
    for k in range(3):
        builder.add_flop(f"ps{k}", rng.choice(pool[6:]))
    builder.add_output(pool[-1])
    return builder.build()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_cone_pass_matches_the_full_pass(seed, data):
    """With the lines outside a cone at their full-pass values, the cone
    pass leaves every cone line exactly as :func:`eval_pass` does --
    for fanout cones of random source lines and for arbitrary slot
    subsets."""
    circuit = _every_opcode_circuit(seed)
    ir = compile_circuit(circuit)
    assert set(ir.ops) == set(range(OP_CONST1 + 1))
    width = data.draw(st.integers(1, 9))
    mask = (1 << width) - 1
    ones = [0] * ir.num_lines
    zeros = [0] * ir.num_lines
    for line in ir.inputs + ir.ps_lines:
        one = data.draw(st.integers(0, mask))
        ones[line] = one
        zeros[line] = data.draw(st.integers(0, mask)) & ~one
    eval_pass(ir, ones, zeros, mask)
    if data.draw(st.booleans()):
        changed = set(
            data.draw(st.lists(st.sampled_from(ir.inputs + ir.ps_lines)))
        )
        cone = []
        for s in range(ir.num_gates):
            fanins = ir.fanin_lines[ir.fanin_offsets[s]:ir.fanin_offsets[s + 1]]
            if changed.intersection(fanins):
                cone.append(s)
                changed.add(ir.outs[s])
    else:
        cone = sorted(
            set(data.draw(st.lists(st.integers(0, ir.num_gates - 1))))
        )
    scrambled_ones = list(ones)
    scrambled_zeros = list(zeros)
    for s in cone:
        line = ir.outs[s]
        scrambled_ones[line] = data.draw(st.integers(0, mask))
        scrambled_zeros[line] = data.draw(st.integers(0, mask))
    eval_cone(ir, scrambled_ones, scrambled_zeros, mask, cone)
    assert scrambled_ones == ones
    assert scrambled_zeros == zeros
