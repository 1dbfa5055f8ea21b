"""Differential tests: the compiled implication step against its reference.

:class:`~repro.mot.implication.FrameEngine` runs an opcode-specialized,
inlined gate step.  :func:`repro.logic.implication.propagate_gate` is
the readable reference for one gate.  These tests pin the two together:

* one gate of every type, arity 1-4 with every pattern of duplicate
  fanins, under every value combination: same values, same record, same
  conflicts;
* whole frames of random Moore machines, against a reference engine
  that applies ``propagate_gate`` gate by gate, under both schedules:
  same values (also after a conflict), same record, same conflicts.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.netlist import CircuitBuilder
from repro.circuits.generators import random_moore
from repro.logic.gates import GateType
from repro.logic.implication import Conflict, propagate_gate
from repro.logic.values import UNKNOWN
from repro.mot.implication import FrameEngine
from repro.sim.frame import eval_frame

MULTI_INPUT = (
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
    GateType.XOR, GateType.XNOR,
)


def _fanin_patterns(arity):
    """Every way to map *arity* input positions onto distinct lines, up
    to renaming (restricted growth strings): ``(0, 0, 1)`` is a gate
    reading its first line twice, then a second line."""
    patterns = [()]
    for _ in range(arity):
        patterns = [
            p + (k,) for p in patterns for k in range(max(p, default=-1) + 2)
        ]
    return patterns


def _gate_cases():
    for gate_type in MULTI_INPUT:
        for arity in range(1, 5):
            for pattern in _fanin_patterns(arity):
                yield gate_type, pattern
    for gate_type in (GateType.NOT, GateType.BUF):
        yield gate_type, (0,)
    for gate_type in (GateType.CONST0, GateType.CONST1):
        yield gate_type, ()


def _one_gate_circuit(gate_type, pattern):
    builder = CircuitBuilder("one_gate")
    names = [f"i{k}" for k in range(max(pattern, default=-1) + 1)]
    for name in names:
        builder.add_input(name)
    builder.add_gate(gate_type, "y", [names[k] for k in pattern])
    builder.add_output("y")
    return builder.build()


def _reference_step(gate_type, out_line, in_lines, values):
    """``propagate_gate`` written back like the interpreted engine did:
    returns (values, record) or raises Conflict."""
    in_values = [values[line] for line in in_lines]
    new_out, new_ins = propagate_gate(gate_type, values[out_line], in_values)
    values = list(values)
    record = []
    if new_out != values[out_line]:
        values[out_line] = new_out
        record.append((out_line, new_out))
    for line, old, new in zip(in_lines, in_values, new_ins):
        if new != old:
            values[line] = new
            record.append((line, new))
    return values, record


@pytest.mark.parametrize(
    "gate_type,pattern",
    list(_gate_cases()),
    ids=lambda case: getattr(case, "value", None) or "-".join(map(str, case)),
)
def test_compiled_step_matches_propagate_gate(gate_type, pattern):
    circuit = _one_gate_circuit(gate_type, pattern)
    gate = circuit.gates[0]
    engine = FrameEngine(circuit)
    lines = [gate.output] + sorted(set(gate.inputs))
    for combo in itertools.product((0, 1, UNKNOWN), repeat=len(lines)):
        start = [UNKNOWN] * circuit.num_lines
        for line, value in zip(lines, combo):
            start[line] = value
        try:
            expected = _reference_step(
                gate.gate_type, gate.output, gate.inputs, start
            )
        except Conflict:
            expected = None
        values = list(start)
        record = []
        # With no seed assignments the two-pass schedule visits the one
        # gate exactly twice; the second visit must be a no-op.
        if expected is None:
            with pytest.raises(Conflict):
                engine.imply_two_pass(values, [], record)
            assert values == start and record == [], combo
        else:
            engine.imply_two_pass(values, [], record)
            assert (values, record) == expected, combo


# ----------------------------------------------------------------------
# Whole frames: the compiled engine against a propagate_gate engine
# ----------------------------------------------------------------------
class ReferenceEngine(FrameEngine):
    """The interpreted engine: ``propagate_gate`` per visit, revisiting
    a gate once per fanin position that reads the changed line."""

    def __init__(self, circuit):
        super().__init__(circuit)
        touched = [[] for _ in range(circuit.num_lines)]
        for gate_index, gate in enumerate(circuit.gates):
            touched[gate.output].append(gate_index)
            for line in gate.inputs:
                touched[line].append(gate_index)
        self._all_touched = touched

    def _process_gate(self, gate_index, values, queue, record):
        gate = self.circuit.gates[gate_index]
        in_values = [values[line] for line in gate.inputs]
        new_out, new_ins = propagate_gate(
            gate.gate_type, values[gate.output], in_values
        )
        changes = []
        if new_out != values[gate.output]:
            changes.append((gate.output, new_out))
        changes += [
            (line, new)
            for line, old, new in zip(gate.inputs, in_values, new_ins)
            if new != old
        ]
        for line, value in changes:
            values[line] = value
            if record is not None:
                record.append((line, value))
            if queue is not None:
                queue.append(line)

    def imply(self, values, assignments, record=None):
        queue = deque(self._seed(values, assignments, record))
        while queue:
            for gate_index in self._all_touched[queue.popleft()]:
                self._process_gate(gate_index, values, queue, record)

    def imply_two_pass(self, values, assignments, record=None):
        self._seed(values, assignments, record)
        for gate_index in self._reverse_topo:
            self._process_gate(gate_index, values, None, record)
        for gate_index in self.circuit.topo_gates:
            self._process_gate(gate_index, values, None, record)


def _observe(engine, method, base, assignments):
    """(conflict?, values, record) of one run."""
    values = list(base)
    record = []
    try:
        getattr(engine, method)(values, assignments, record)
        conflict = False
    except Conflict:
        conflict = True
    return conflict, values, record


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(["imply", "imply_two_pass"]),
    data=st.data(),
)
def test_engine_matches_reference_on_random_frames(seed, mode, data):
    circuit = random_moore(seed, num_inputs=3, num_flops=4, num_gates=20)
    compiled = FrameEngine(circuit)
    reference = ReferenceEngine(circuit)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(8):
        pis = [rng.choice((0, 1, UNKNOWN)) for _ in circuit.inputs]
        pss = [rng.choice((0, 1, UNKNOWN)) for _ in circuit.flops]
        base = eval_frame(circuit, pis, pss)
        # Mostly unspecified lines, so the seeds propagate; a specified
        # one now and then exercises the seed-time conflict.
        pool = [line for line, v in enumerate(base) if v == UNKNOWN]
        if len(pool) < 3 or rng.random() < 0.1:
            pool = list(range(circuit.num_lines))
        lines = rng.sample(pool, rng.randint(1, 3))
        assignments = [(line, rng.randint(0, 1)) for line in lines]
        assert _observe(compiled, mode, base, assignments) == _observe(
            reference, mode, base, assignments
        ), (pis, pss, assignments)
