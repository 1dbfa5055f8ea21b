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
  walks it: one ``(opcode, kind, entries)`` run per maximal sequence of
  consecutive slots sharing an opcode and an entry kind, so the
  evaluator dispatches once per run instead of once per gate.  The kind
  follows from the opcode and the fanin count: a constant, a one-fanin
  gate, a two-fanin AND/NAND/OR/NOR gate (a flat entry with no inner
  loop), a wider one, or an XOR/XNOR gate.  Each run reads its fanins
  from, and writes its outputs to, an oriented plane pair
  (:data:`READS_SWAPPED`, :data:`WRITES_SWAPPED`), so AND, NAND, OR and
  NOR share one loop.  The IR's program carries no forces (every force
  field is ``None``); a compiled fault batch
  (:func:`repro.sim.kernel.compile_fault_batch`) walks a copy with its
  stuck lines and pins attached;
* ``level_starts`` -- slot index where each level begins.  All gates
  inside one level are mutually independent (every fanin comes from a
  strictly lower level), which is what makes lane/SIMD backends safe;
* PI / PO / present-state / next-state line id tuples.

The schedule orders gates by level (ties grouped by opcode, then by
entry kind), which is a topological order: a sequential pass over the
slots evaluates every fanin before its consumers.
:func:`compile_circuit` caches the IR on the circuit object, mirroring
:func:`repro.sim.frame.frame_plan`, so repeated consumers (kernel,
fault batches, benchmarks) compile once.

The IR is pure structure -- it holds no simulation values.  The matching
two-plane bit-parallel evaluator lives in :mod:`repro.sim.kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
    "READS_SWAPPED",
    "WRITES_SWAPPED",
    "KIND_CONST",
    "KIND_COPY",
    "KIND_PAIR",
    "KIND_CHAIN",
    "Force",
    "ConstEntry",
    "CopyEntry",
    "PairEntry",
    "ChainEntry",
    "GateEntry",
    "Run",
    "Program",
    "entry_kind",
    "gate_entry",
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

#: Per opcode, whether a run reads each fanin as the plane pair
#: ``(zeros, ones)`` rather than ``(ones, zeros)``.  An AND-family run
#: ANDs the first plane and ORs the second, so the first must hold the
#: gate's non-controlling value: OR and NOR are AND over swapped planes.
READS_SWAPPED: Tuple[bool, ...] = (
    False, False, True, True, False, False, False, False, False, False,
)
#: Per opcode, whether a run writes its output's plane pair as ``(zeros,
#: ones)``: NAND and OR (whose inputs all non-controlling give 0), the
#: inverting XNOR and NOT, and CONST0, which is CONST1 written swapped.
WRITES_SWAPPED: Tuple[bool, ...] = (
    False, True, True, False, False, True, True, False, True, False,
)

# Entry kinds of a program run: what the evaluator does per gate.
#: CONST0 / CONST1, :data:`ConstEntry`
KIND_CONST = 0
#: any gate with one fanin (a copy between oriented planes),
#: :data:`CopyEntry`
KIND_COPY = 1
#: AND / NAND / OR / NOR with two fanins, :data:`PairEntry`
KIND_PAIR = 2
#: AND / NAND / OR / NOR with three or more fanins, and XOR / XNOR
#: with two or more, :data:`ChainEntry`
KIND_CHAIN = 3

#: ``(force_p, keep_p, force_q, keep_q)``: the slots where one line or
#: pin is stuck, as masks over the plane pair ``(p, q)`` it is applied
#: to.  ``force_p`` holds the slots stuck at the value plane ``p``
#: carries and ``keep_p = mask ^ force_p`` every other slot of the
#: batch; likewise ``force_q`` and ``keep_q`` for plane ``q``.  It is
#: applied as ``p |= force_p; q &= keep_p`` when ``force_p`` is not
#: empty, then ``q |= force_q; p &= keep_q`` when ``force_q`` is not
#: empty, so a one-sided force costs one operation per plane.  In a
#: batch program every force is oriented: a pin force to the planes its
#: run reads, a line force to the planes its run writes.
Force = Tuple[int, int, int, int]
#: ``(output line, line force)`` of a constant gate.
ConstEntry = Tuple[int, Optional[Force]]
#: ``(output line, fanin, pin force, line force)`` of a one-fanin gate.
CopyEntry = Tuple[int, int, Optional[Force], Optional[Force]]
#: ``(output line, fanin a, fanin b, pin force a, pin force b, line
#: force)`` of a two-fanin AND-family gate.
PairEntry = Tuple[
    int, int, int, Optional[Force], Optional[Force], Optional[Force]
]
#: ``(output line, first fanin, other fanins, first pin force, other
#: pin forces, line force)``; *other pin forces* is ``None`` or one
#: ``Force``-or-``None`` per other fanin.
ChainEntry = Tuple[
    int, int, Tuple[int, ...], Optional[Force],
    Optional[Tuple[Optional[Force], ...]], Optional[Force],
]
GateEntry = Union[ConstEntry, CopyEntry, PairEntry, ChainEntry]
#: ``(opcode, kind, entries)``: every entry has the shape of *kind*.
Run = Tuple[int, int, Tuple[GateEntry, ...]]
#: The runs in schedule order.
Program = Tuple[Run, ...]


def entry_kind(op: int, arity: int) -> int:
    """The run kind of a gate with opcode *op* and *arity* fanins."""
    if op >= OP_CONST0:
        return KIND_CONST
    if arity == 1:
        return KIND_COPY
    if arity == 2 and op <= OP_NOR:
        return KIND_PAIR
    return KIND_CHAIN


def gate_entry(
    kind: int,
    out: int,
    fanins: Sequence[int],
    pins: Optional[Sequence[Optional[Force]]] = None,
    force: Optional[Force] = None,
) -> GateEntry:
    """The program entry of one gate of run kind *kind*: *pins* is
    ``None`` or one pin force (or ``None``) per fanin, *force* the line
    force, both already oriented."""
    if kind == KIND_CONST:
        return (out, force)
    first = None if pins is None else pins[0]
    if kind == KIND_COPY:
        return (out, fanins[0], first, force)
    if kind == KIND_PAIR:
        return (
            out, fanins[0], fanins[1], first,
            None if pins is None else pins[1], force,
        )
    return (
        out, fanins[0], tuple(fanins[1:]), first,
        None if pins is None else tuple(pins[1:]), force,
    )


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
    #: maximal runs of one opcode and entry kind, in schedule order,
    #: with no forces
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
            f"{self.num_levels} levels, {len(self.program)} runs)"
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
    # Bucket gates by (level, opcode, kind), preserving topological
    # order inside each bucket (topo_gates order is already topological).
    # Gates of one level are independent, so any order among them is
    # topological too.
    buckets: Dict[Tuple[int, int, int], List[int]] = {}
    for gate_index in circuit.topo_gates:
        gate = circuit.gates[gate_index]
        op = _OPCODES[gate.gate_type]
        key = (level_of[gate.output], op, entry_kind(op, len(gate.inputs)))
        buckets.setdefault(key, []).append(gate_index)
    ops: List[int] = []
    outs: List[int] = []
    fanin_offsets: List[int] = [0]
    fanin_lines: List[int] = []
    slot_of_gate: List[int] = [-1] * len(circuit.gates)
    level_starts: List[int] = []
    program: List[Tuple[int, int, List[GateEntry]]] = []
    last_level: Optional[int] = None
    for level, op, kind in sorted(buckets):
        if level != last_level:
            level_starts.append(len(ops))
            last_level = level
        # Merge with the previous run when opcode and kind match: the
        # flat order stays topological, so a sequential evaluator is
        # unaffected and dispatches once for the longer run.
        if not program or program[-1][:2] != (op, kind):
            program.append((op, kind, []))
        for gate_index in buckets[(level, op, kind)]:
            gate = circuit.gates[gate_index]
            slot_of_gate[gate_index] = len(ops)
            ops.append(op)
            outs.append(gate.output)
            fanin_lines.extend(gate.inputs)
            fanin_offsets.append(len(fanin_lines))
            program[-1][2].append(gate_entry(kind, gate.output, gate.inputs))
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
        program=tuple(
            (op, kind, tuple(gates)) for op, kind, gates in program
        ),
        level_starts=tuple(level_starts),
        slot_of_gate=tuple(slot_of_gate),
    )
