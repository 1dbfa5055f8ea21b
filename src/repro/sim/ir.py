"""Compiled, levelized structure-of-arrays circuit IR.

The object-graph :class:`~repro.circuit.netlist.Circuit` is the right
shape for construction, linting and backward implications, but it is a
poor shape for the simulation hot loop: every gate evaluation chases
``Gate`` dataclass attributes and re-reads tuple fields.  This module
compiles a circuit **once** into flat integer arrays:

* ``ops[slot]`` / ``outs[slot]`` -- opcode and output line id of the
  gate scheduled at *slot*, in levelized (topological) order;
* ``fanin_offsets`` / ``fanin_lines`` -- CSR-style fanin index table:
  the inputs of slot ``s`` are
  ``fanin_lines[fanin_offsets[s]:fanin_offsets[s+1]]``;
* ``program`` -- the schedule as :func:`repro.sim.kernel.eval_pass`
  walks it: one ``(opcode, gates)`` pair per maximal run of consecutive
  slots sharing one opcode, so the evaluator dispatches on the gate type
  once per run instead of once per gate, and per gate one
  ``(output, fanins, pin forces, line force)`` entry.  The IR's program
  carries no forces (both are ``None``); a compiled fault batch
  (:func:`repro.sim.kernel.compile_fault_batch`) walks a copy with its
  stuck lines and pins attached;
* ``level_starts`` -- slot index where each level begins.  All gates
  inside one level are mutually independent (every fanin comes from a
  strictly lower level), which is what makes lane/SIMD backends safe;
* PI / PO / present-state / next-state line id tuples.

The schedule orders gates by level (ties grouped by opcode), which is a
topological order: a sequential pass over the slots evaluates every
fanin before its consumers.  :func:`compile_circuit` caches the IR on
the circuit object, mirroring :func:`repro.sim.frame.frame_plan`, so
repeated consumers (kernel, fault batches, benchmarks) compile once.

The IR is pure structure -- it holds no simulation values.  The matching
two-plane bit-parallel evaluator lives in :mod:`repro.sim.kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuit.netlist import Circuit
from repro.logic.gates import GateType
from repro.obs.metrics import get_metrics

__all__ = [
    "OP_AND",
    "OP_NAND",
    "OP_OR",
    "OP_NOR",
    "OP_XOR",
    "OP_XNOR",
    "OP_NOT",
    "OP_BUF",
    "OP_CONST0",
    "OP_CONST1",
    "Force",
    "GateEntry",
    "Program",
    "CircuitIR",
    "compile_circuit",
]

# Dense opcodes (shared contract with repro.sim.kernel).
OP_AND = 0
OP_NAND = 1
OP_OR = 2
OP_NOR = 3
OP_XOR = 4
OP_XNOR = 5
OP_NOT = 6
OP_BUF = 7
OP_CONST0 = 8
OP_CONST1 = 9

_OPCODES: Dict[GateType, int] = {
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
    GateType.NOT: OP_NOT,
    GateType.BUF: OP_BUF,
    GateType.CONST0: OP_CONST0,
    GateType.CONST1: OP_CONST1,
}

_IR_ATTR = "_repro_circuit_ir"

#: ``(force_one, force_zero, keep)`` plane masks of the slots where one
#: line or pin is stuck at 1 and at 0; ``keep`` holds the batch's other
#: slots, ``mask ^ (force_one | force_zero)``.
Force = Tuple[int, int, int]
#: ``(output line, fanin lines, pin forces, line force)`` of one gate;
#: *pin forces* is ``None`` or one ``Force``-or-``None`` per fanin.
GateEntry = Tuple[
    int, Tuple[int, ...], Optional[Tuple[Optional[Force], ...]],
    Optional[Force],
]
#: One ``(opcode, gate entries)`` pair per same-opcode run.
Program = Tuple[Tuple[int, Tuple[GateEntry, ...]], ...]


@dataclass(frozen=True)
class CircuitIR:
    """Flat, levelized compilation of one :class:`Circuit`.

    Instances are immutable and shared freely (the kernel never mutates
    the IR; all simulation state lives in caller-owned plane arrays).
    """

    name: str
    num_lines: int
    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]
    ps_lines: Tuple[int, ...]
    ns_lines: Tuple[int, ...]
    #: opcode per schedule slot (levelized topological order)
    ops: Tuple[int, ...]
    #: output line id per schedule slot
    outs: Tuple[int, ...]
    #: CSR offsets into :attr:`fanin_lines`; length ``num_gates + 1``
    fanin_offsets: Tuple[int, ...]
    #: concatenated fanin line ids of every slot
    fanin_lines: Tuple[int, ...]
    #: maximal same-opcode runs in schedule order, with no forces
    program: Program
    #: slot index where each level begins (ends with ``num_gates``)
    level_starts: Tuple[int, ...]
    #: original circuit gate index -> schedule slot
    slot_of_gate: Tuple[int, ...]

    @property
    def num_gates(self) -> int:
        return len(self.ops)

    @property
    def num_levels(self) -> int:
        return max(0, len(self.level_starts) - 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitIR({self.name!r}: {self.num_gates} gates, "
            f"{self.num_levels} levels, {len(self.program)} op runs)"
        )


def compile_circuit(circuit: Circuit) -> CircuitIR:
    """Compile *circuit* into a :class:`CircuitIR` (cached per circuit).

    The cache key is the circuit object itself: circuits are immutable
    after :meth:`~repro.circuit.netlist.CircuitBuilder.build`, so one
    compilation serves every consumer for the object's lifetime.
    """
    cached = getattr(circuit, _IR_ATTR, None)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    get_metrics().counter("kernel.compile")
    ir = _compile(circuit)
    setattr(circuit, _IR_ATTR, ir)
    return ir


def _compile(circuit: Circuit) -> CircuitIR:
    level_of = circuit.level_of_line
    # Bucket gates by (level, opcode), preserving topological order
    # inside each bucket (topo_gates order is already topological).
    buckets: Dict[Tuple[int, int], List[int]] = {}
    levels_seen: List[int] = []
    for gate_index in circuit.topo_gates:
        gate = circuit.gates[gate_index]
        level = level_of[gate.output]
        op = _OPCODES[gate.gate_type]
        key = (level, op)
        if key not in buckets:
            buckets[key] = []
        buckets[key].append(gate_index)
        levels_seen.append(level)
    ops: List[int] = []
    outs: List[int] = []
    fanin_offsets: List[int] = [0]
    fanin_lines: List[int] = []
    slot_of_gate: List[int] = [-1] * len(circuit.gates)
    level_starts: List[int] = []
    program: List[Tuple[int, List[GateEntry]]] = []
    for level in sorted(set(levels_seen)):
        level_starts.append(len(ops))
        for op in range(OP_CONST1 + 1):
            bucket = buckets.get((level, op))
            if not bucket:
                continue
            # Merge with the previous run when the opcode matches: the
            # flat order stays topological, so a sequential evaluator
            # is unaffected and dispatches once for the longer run.
            if not program or program[-1][0] != op:
                program.append((op, []))
            for gate_index in bucket:
                gate = circuit.gates[gate_index]
                slot_of_gate[gate_index] = len(ops)
                ops.append(op)
                outs.append(gate.output)
                fanin_lines.extend(gate.inputs)
                fanin_offsets.append(len(fanin_lines))
                program[-1][1].append(
                    (gate.output, tuple(gate.inputs), None, None)
                )
    level_starts.append(len(ops))
    return CircuitIR(
        name=circuit.name,
        num_lines=circuit.num_lines,
        inputs=tuple(circuit.inputs),
        outputs=tuple(circuit.outputs),
        ps_lines=tuple(f.ps for f in circuit.flops),
        ns_lines=tuple(f.ns for f in circuit.flops),
        ops=tuple(ops),
        outs=tuple(outs),
        fanin_offsets=tuple(fanin_offsets),
        fanin_lines=tuple(fanin_lines),
        program=tuple((op, tuple(gates)) for op, gates in program),
        level_starts=tuple(level_starts),
        slot_of_gate=tuple(slot_of_gate),
    )
