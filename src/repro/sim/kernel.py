"""Two-plane bit-parallel evaluation kernel over the compiled IR.

Values are dual-rail encoded, one machine word pair per line::

    one[line]  -- bit k set when the line is 1 in machine slot k
    zero[line] -- bit k set when the line is 0 in machine slot k
    (neither)  -- the line is X in slot k

A *slot* is one independent simulation: a pattern (PPSFP -- parallel
pattern single fault), a candidate initial state, or a faulty machine
(parallel-fault, slot 0 reserved for the fault-free circuit).  Gate
evaluation is pure bitwise logic over the planes (AND: ones intersect,
zeros union; XOR by plane recurrence), so one levelized pass over the
:class:`~repro.sim.ir.CircuitIR` schedule simulates every slot at once.
Python integers are arbitrary precision, so a plane has no word size:
one plane pair holds every slot of a batch, with no windowing, and the
cost of a pass grows far slower than its width.

Every gate starts from its first fanin.  AND, NAND, OR and NOR share
one loop over *oriented* plane pairs: it ANDs the plane of the gate's
non-controlling value and ORs the other, so OR is AND over ``(zeros,
ones)``, and NAND and OR write their result to the swapped pair
(:data:`~repro.sim.ir.READS_SWAPPED`, :data:`~repro.sim.ir.WRITES_SWAPPED`).
A two-input gate is one flat entry with no inner loop.

Fault injection is compiled, not simulated: each stuck line or pin of
a batch becomes a force (:data:`~repro.sim.ir.Force`), forced in
exactly one place and stored in the orientation of the planes it is
applied to, so nothing swaps at run time.  A force that holds only
stuck-at-1 or only stuck-at-0 slots costs one operation per plane
(``p |= force; q &= keep``).  A stem is forced once on its line -- at
its driving gate's output, at the source for a primary input, on the
present state for a flip-flop output -- so every consumer reads the
stuck value, and a branch on its one gate pin, flip-flop data pin or
output tap.  The gate forces hang on a copy of the IR's per-gate
program, which :func:`eval_pass` walks; this models the
netlist-transformation injector exactly.  Without a reference
response, a batch compares every fault with slot 0, the fault-free
machine of the same pass, and hands back slot 0's trajectory as the
good machine's.

This kernel is the only bit-parallel simulator: every ``fsim``
campaign runs its fault batches (and takes its good machine from their
slot 0), MOT campaigns compute their good machine and run their front's
batch on it, and :mod:`repro.verify.states` enumerates initial states on
it.  Everything here is verdict- and value-identical to the
interpreted oracles (:func:`repro.sim.frame.eval_frame`,
:func:`repro.sim.sequential.simulate_sequence`,
:mod:`repro.fsim.conventional`); the differential suite in
``tests/sim/test_ir_differential.py`` and the CI gate
``benchmarks/check_kernel_gate.py`` enforce exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.sim.ir import (
    KIND_CONST,
    KIND_COPY,
    KIND_PAIR,
    OP_BUF,
    OP_CONST0,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_XNOR,
    READS_SWAPPED,
    WRITES_SWAPPED,
    ChainEntry,
    CircuitIR,
    ConstEntry,
    CopyEntry,
    Force,
    GateEntry,
    PairEntry,
    Program,
    Run,
    compile_circuit,
    gate_entry,
)

if TYPE_CHECKING:  # circular at runtime: sequential imports this module
    from repro.sim.sequential import SequentialResult

__all__ = [
    "pack_columns",
    "broadcast_planes",
    "eval_pass",
    "eval_cone",
    "eval_frame_values",
    "eval_frame_planes",
    "eval_frame_patterns",
    "FramePlanes",
    "simulate_sequence_ir",
    "CompiledFaultBatch",
    "FaultBatchMasks",
    "compile_fault_batch",
    "simulate_fault_batch",
]

#: Stands in for the pin forces of a gate that has none.
_UNFORCED: Iterator[Optional[Force]] = repeat(None)

# The entries of each run kind, as :func:`eval_pass` casts a run's
# entries once it has dispatched on the kind.
_Consts = Tuple[ConstEntry, ...]
_Copies = Tuple[CopyEntry, ...]
_Pairs = Tuple[PairEntry, ...]
_Chains = Tuple[ChainEntry, ...]


# ----------------------------------------------------------------------
# Packing helpers
# ----------------------------------------------------------------------
def pack_columns(
    rows: Sequence[Sequence[int]],
) -> Tuple[List[int], List[int]]:
    """Pack W rows of three-valued values into per-column plane masks.

    ``rows[k][j]`` is the value of position *j* in slot *k*; the result
    is ``(one_masks, zero_masks)`` with bit *k* of ``one_masks[j]`` set
    when ``rows[k][j] == 1`` (and likewise for 0; X sets neither).
    """
    if not rows:
        return [], []
    num_columns = len(rows[0])
    ones = [0] * num_columns
    zeros = [0] * num_columns
    for slot, row in enumerate(rows):
        if len(row) != num_columns:
            raise ValueError("ragged rows cannot be packed")
        bit = 1 << slot
        for j, value in enumerate(row):
            if value == ONE:
                ones[j] |= bit
            elif value == ZERO:
                zeros[j] |= bit
    return ones, zeros


def broadcast_planes(
    values: Sequence[int], mask: int
) -> Tuple[List[int], List[int]]:
    """Broadcast one scalar row to every slot of a *mask*-wide batch."""
    ones = []
    zeros = []
    for value in values:
        if value == ONE:
            ones.append(mask)
            zeros.append(0)
        elif value == ZERO:
            ones.append(0)
            zeros.append(mask)
        else:
            ones.append(0)
            zeros.append(0)
    return ones, zeros


# ----------------------------------------------------------------------
# The levelized evaluation pass
# ----------------------------------------------------------------------
def eval_pass(
    ir: CircuitIR,
    ones: List[int],
    zeros: List[int],
    mask: int,
    program: Optional[Program] = None,
) -> None:
    """Evaluate the combinational core over the planes, in place.

    Frame sources (primary inputs and present-state lines) must already
    be set in *ones* / *zeros*; every other line is recomputed.  *mask*
    has one bit per live slot.  The pass walks *program* (the IR's own,
    with no forces, by default) one run at a time, reading each fanin as
    the plane pair ``(p, q)`` its run reads and writing each output to
    the pair its run writes.  Each gate starts from its first fanin; a
    pin force replaces the forced slots' bits of the line that pin
    reads, and a line force those of the gate's output before any
    consumer reads it (:data:`~repro.sim.ir.Force`).
    """
    for op, kind, gates in ir.program if program is None else program:
        p_in, q_in = (zeros, ones) if READS_SWAPPED[op] else (ones, zeros)
        p_out, q_out = (zeros, ones) if WRITES_SWAPPED[op] else (ones, zeros)
        if kind == KIND_PAIR:  # p: AND of the p planes, q: OR of the q planes
            for out, a, b, pin_a, pin_b, force in cast(_Pairs, gates):
                p, q = p_in[a], q_in[a]
                if pin_a is not None:
                    fp, kp, fq, kq = pin_a
                    if fp:
                        p |= fp
                        q &= kp
                    if fq:
                        q |= fq
                        p &= kq
                vp, vq = p_in[b], q_in[b]
                if pin_b is not None:
                    fp, kp, fq, kq = pin_b
                    if fp:
                        vp |= fp
                        vq &= kp
                    if fq:
                        vq |= fq
                        vp &= kq
                p &= vp
                q |= vq
                if force is not None:
                    fp, kp, fq, kq = force
                    if fp:
                        p |= fp
                        q &= kp
                    if fq:
                        q |= fq
                        p &= kq
                p_out[out] = p
                q_out[out] = q
        elif kind == KIND_COPY:
            for out, a, pin_a, force in cast(_Copies, gates):
                p, q = p_in[a], q_in[a]
                if pin_a is not None:
                    fp, kp, fq, kq = pin_a
                    if fp:
                        p |= fp
                        q &= kp
                    if fq:
                        q |= fq
                        p &= kq
                if force is not None:
                    fp, kp, fq, kq = force
                    if fp:
                        p |= fp
                        q &= kp
                    if fq:
                        q |= fq
                        p &= kq
                p_out[out] = p
                q_out[out] = q
        elif kind == KIND_CONST:  # CONST1 written straight, CONST0 swapped
            for out, force in cast(_Consts, gates):
                if force is None:
                    p_out[out] = mask
                    q_out[out] = 0
                else:  # (mask, 0) forced is (keep_q, force_q)
                    p_out[out] = force[3]
                    q_out[out] = force[2]
        else:  # KIND_CHAIN
            conjunctive = op <= OP_NOR
            for out, a, rest, pin_a, pins, force in cast(_Chains, gates):
                p, q = p_in[a], q_in[a]
                if pin_a is not None:
                    fp, kp, fq, kq = pin_a
                    if fp:
                        p |= fp
                        q &= kp
                    if fq:
                        q |= fq
                        p &= kq
                for line, pin in zip(rest, pins or _UNFORCED):
                    vp, vq = p_in[line], q_in[line]
                    if pin is not None:
                        fp, kp, fq, kq = pin
                        if fp:
                            vp |= fp
                            vq &= kp
                        if fq:
                            vq |= fq
                            vp &= kq
                    if conjunctive:
                        p &= vp
                        q |= vq
                    else:  # XOR by plane recurrence
                        p, q = (p & vq) | (q & vp), (p & vp) | (q & vq)
                if force is not None:
                    fp, kp, fq, kq = force
                    if fp:
                        p |= fp
                        q &= kp
                    if fq:
                        q |= fq
                        p &= kq
                p_out[out] = p
                q_out[out] = q


def eval_cone(
    ir: CircuitIR,
    ones: List[int],
    zeros: List[int],
    mask: int,
    slots: Iterable[int],
) -> None:
    """Evaluate only the schedule slots *slots*, in place.

    *slots* must be ascending (schedule order is topological).  Every
    other line is read as it stands in *ones* / *zeros*, so once the
    lines outside *slots* hold the values a full :func:`eval_pass`
    gives them, every evaluated line comes out as that pass leaves it.
    This is the event-limited pass of MOT resolution
    (:func:`repro.mot.resimulate.resolve_sequences`): a frame that
    differs from a stored frame only on some present-state lines
    changes only inside their fanout cone.  There are no forces -- it
    runs on injected netlists.
    """
    ops = ir.ops
    off = ir.fanin_offsets
    fl = ir.fanin_lines
    outs = ir.outs
    for s in slots:
        op = ops[s]
        lo, hi = off[s], off[s + 1]
        if op <= OP_NOR:  # AND / NAND / OR / NOR
            line = fl[lo]
            acc1, acc0 = ones[line], zeros[line]
            if op <= OP_NAND:
                for i in range(lo + 1, hi):
                    line = fl[i]
                    acc1 &= ones[line]
                    acc0 |= zeros[line]
            else:
                for i in range(lo + 1, hi):
                    line = fl[i]
                    acc1 |= ones[line]
                    acc0 &= zeros[line]
            if op == OP_NAND or op == OP_NOR:
                acc1, acc0 = acc0, acc1
        elif op <= OP_XNOR:  # XOR / XNOR by plane recurrence
            line = fl[lo]
            acc1, acc0 = ones[line], zeros[line]
            for i in range(lo + 1, hi):
                line = fl[i]
                v1, v0 = ones[line], zeros[line]
                acc1, acc0 = (acc1 & v0) | (acc0 & v1), (acc1 & v1) | (acc0 & v0)
            if op == OP_XNOR:
                acc1, acc0 = acc0, acc1
        elif op == OP_NOT:
            line = fl[lo]
            acc1, acc0 = zeros[line], ones[line]
        elif op == OP_BUF:
            line = fl[lo]
            acc1, acc0 = ones[line], zeros[line]
        elif op == OP_CONST0:
            acc1, acc0 = 0, mask
        else:  # CONST1
            acc1, acc0 = mask, 0
        out = outs[s]
        ones[out] = acc1
        zeros[out] = acc0


# ----------------------------------------------------------------------
# Frame-level entry points
# ----------------------------------------------------------------------
def _set_sources(
    ir: CircuitIR,
    ones: List[int],
    zeros: List[int],
    pi_ones: Sequence[int],
    pi_zeros: Sequence[int],
    ps_ones: Sequence[int],
    ps_zeros: Sequence[int],
) -> None:
    for line, v1, v0 in zip(ir.inputs, pi_ones, pi_zeros):
        ones[line], zeros[line] = v1, v0
    for line, v1, v0 in zip(ir.ps_lines, ps_ones, ps_zeros):
        ones[line], zeros[line] = v1, v0


def eval_frame_values(
    circuit: Circuit,
    pi_values: Sequence[int],
    ps_values: Sequence[int],
) -> List[int]:
    """Single-slot IR evaluation of one frame.

    Drop-in equivalent of :func:`repro.sim.frame.eval_frame` (same
    argument validation, same return shape), routed through the packed
    kernel at width 1.
    """
    ir = compile_circuit(circuit)
    if len(pi_values) != len(ir.inputs):
        raise ValueError(
            f"expected {len(ir.inputs)} input values, got {len(pi_values)}"
        )
    if len(ps_values) != len(ir.ps_lines):
        raise ValueError(
            f"expected {len(ir.ps_lines)} state values, got {len(ps_values)}"
        )
    ones = [0] * ir.num_lines
    zeros = [0] * ir.num_lines
    pi_ones, pi_zeros = broadcast_planes(pi_values, 1)
    ps_ones, ps_zeros = broadcast_planes(ps_values, 1)
    _set_sources(ir, ones, zeros, pi_ones, pi_zeros, ps_ones, ps_zeros)
    eval_pass(ir, ones, zeros, 1)
    return [
        ONE if ones[line] else (ZERO if zeros[line] else UNKNOWN)
        for line in range(ir.num_lines)
    ]


@dataclass
class FramePlanes:
    """Packed result of one PPSFP frame evaluation.

    The planes stay packed -- decoding every line of every slot costs
    more than the evaluation itself, so consumers extract only what
    they need (:meth:`output_values`, :meth:`next_state_values`) or
    decode whole slots on demand (:meth:`line_values`, the differential
    suite's path).
    """

    ir: CircuitIR
    width: int
    mask: int
    ones: List[int]
    zeros: List[int]

    def _decode(self, lines: Sequence[int], slot: int) -> List[int]:
        bit = 1 << slot
        ones = self.ones
        zeros = self.zeros
        return [
            ONE if ones[line] & bit
            else (ZERO if zeros[line] & bit else UNKNOWN)
            for line in lines
        ]

    def line_values(self, slot: int) -> List[int]:
        """All line values of one slot (``eval_frame`` shape)."""
        return self._decode(range(self.ir.num_lines), slot)

    def output_values(self, slot: int) -> List[int]:
        return self._decode(self.ir.outputs, slot)

    def next_state_values(self, slot: int) -> List[int]:
        return self._decode(self.ir.ns_lines, slot)


def eval_frame_planes(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    states: Optional[Sequence[Sequence[int]]] = None,
) -> FramePlanes:
    """PPSFP frame evaluation: W patterns through one levelized pass.

    ``patterns[k]`` (and optionally ``states[k]``; all-X by default) is
    simulated in slot *k*.  The planes are returned packed; slot *k*
    decodes to exactly ``eval_frame(circuit, patterns[k], states[k])``.
    """
    ir = compile_circuit(circuit)
    width = len(patterns)
    if states is not None and len(states) != width:
        raise ValueError("states must have one row per pattern")
    for row in patterns:
        if len(row) != len(ir.inputs):
            raise ValueError(
                f"expected {len(ir.inputs)} input values, got {len(row)}"
            )
    mask = (1 << width) - 1
    pi_ones, pi_zeros = pack_columns(patterns)
    if states is None:
        ps_ones = [0] * len(ir.ps_lines)
        ps_zeros = [0] * len(ir.ps_lines)
    else:
        ps_ones, ps_zeros = pack_columns(states)
    ones = [0] * ir.num_lines
    zeros = [0] * ir.num_lines
    _set_sources(ir, ones, zeros, pi_ones, pi_zeros, ps_ones, ps_zeros)
    eval_pass(ir, ones, zeros, mask)
    return FramePlanes(ir=ir, width=width, mask=mask, ones=ones, zeros=zeros)


def eval_frame_patterns(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    states: Optional[Sequence[Sequence[int]]] = None,
) -> List[List[int]]:
    """PPSFP frame evaluation, fully decoded per slot.

    Like :func:`eval_frame_planes` but decoding every slot back into a
    full line-value list (the shape the differential suite compares
    against the interpreter).
    """
    width = len(patterns)
    if width == 0:
        return []
    planes = eval_frame_planes(circuit, patterns, states)
    return [planes.line_values(slot) for slot in range(width)]


# ----------------------------------------------------------------------
# Sequential simulation (single slot)
# ----------------------------------------------------------------------
def simulate_sequence_ir(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    initial_state: Optional[Sequence[int]] = None,
    forced_ps: Optional[Dict[int, int]] = None,
    keep_frames: bool = False,
) -> "SequentialResult":
    """IR-backed equivalent of :func:`repro.sim.sequential.simulate_sequence`.

    Returns the same :class:`~repro.sim.sequential.SequentialResult`
    shape (states / outputs / optional frames as plain value lists);
    the differential suite asserts bit identity with the interpreter.
    """
    from repro.sim.sequential import SequentialResult

    ir = compile_circuit(circuit)
    num_flops = len(ir.ps_lines)
    if initial_state is None:
        state = [UNKNOWN] * num_flops
    else:
        if len(initial_state) != num_flops:
            raise ValueError(
                f"expected {num_flops} state values, got {len(initial_state)}"
            )
        state = list(initial_state)
    if forced_ps:
        for flop_index, value in forced_ps.items():
            state[flop_index] = value
    states = [list(state)]
    outputs: List[List[int]] = []
    frames: Optional[List[List[int]]] = [] if keep_frames else None
    ones = [0] * ir.num_lines
    zeros = [0] * ir.num_lines
    for pattern in patterns:
        if len(pattern) != len(ir.inputs):
            raise ValueError(
                f"expected {len(ir.inputs)} input values, got {len(pattern)}"
            )
        pi_ones, pi_zeros = broadcast_planes(pattern, 1)
        ps_ones, ps_zeros = broadcast_planes(state, 1)
        _set_sources(ir, ones, zeros, pi_ones, pi_zeros, ps_ones, ps_zeros)
        eval_pass(ir, ones, zeros, 1)
        outputs.append(
            [
                ONE if ones[line] else (ZERO if zeros[line] else UNKNOWN)
                for line in ir.outputs
            ]
        )
        state = [
            ONE if ones[line] else (ZERO if zeros[line] else UNKNOWN)
            for line in ir.ns_lines
        ]
        if forced_ps:
            for flop_index, value in forced_ps.items():
                state[flop_index] = value
        states.append(list(state))
        if frames is not None:
            frames.append(
                [
                    ONE if ones[line] else (ZERO if zeros[line] else UNKNOWN)
                    for line in range(ir.num_lines)
                ]
            )
    return SequentialResult(states=states, outputs=outputs, frames=frames)


# ----------------------------------------------------------------------
# Parallel-fault batches (plane-mask fault injection)
# ----------------------------------------------------------------------
@dataclass
class CompiledFaultBatch:
    """One fault batch compiled to IR plane masks.

    Slot 0 is the fault-free machine; fault *j* (0-based in
    :attr:`faults`) occupies slot ``j + 1``.  Every stuck line or pin
    is forced in one place, by a :data:`~repro.sim.ir.Force` computed
    here once and oriented to the planes it is applied to (a gate pin's
    to those its run reads, a gate output's to those its run writes,
    every other to ``(ones, zeros)``): a stem stuck on a gate output
    in :attr:`program` at that gate, one on a primary input in
    :attr:`input_forces` at the source, one on a present-state line in
    :attr:`forced_state` alone (exactly like ``InjectedFault.forced_ps``);
    a branch on its one gate pin in :attr:`program`, flip-flop data pin
    in :attr:`flop_forces` or output tap in :attr:`output_forces`.
    """

    faults: List[Fault]
    width: int
    mask: int
    #: the IR's program with this batch's gate-output and gate-pin forces
    program: Program
    #: primary-input position -> force
    input_forces: Dict[int, Force]
    #: primary-output position -> force of the output tap
    output_forces: Dict[int, Force]
    #: flip-flop index -> force of its data pin
    flop_forces: Dict[int, Force]
    #: flip-flop index -> force of its present-state line
    forced_state: Dict[int, Force]


def _force(
    ones: List[int], zeros: List[int], forces: Dict[int, Force]
) -> None:
    """Apply position-keyed *forces*, oriented ``(ones, zeros)``, to two
    plane lists, in place."""
    for index, (f1, k1, f0, k0) in forces.items():
        v1 = ones[index]
        v0 = zeros[index]
        if f1:
            v1 |= f1
            v0 &= k1
        if f0:
            v0 |= f0
            v1 &= k0
        ones[index] = v1
        zeros[index] = v0


def compile_fault_batch(
    circuit: Circuit, faults: Sequence[Fault]
) -> CompiledFaultBatch:
    """Compile *faults* (slots 1..N) into plane-mask forces."""
    ir = compile_circuit(circuit)
    mask = (1 << (len(faults) + 1)) - 1
    input_pos = {line: k for k, line in enumerate(ir.inputs)}
    flop_of_ps = {line: k for k, line in enumerate(ir.ps_lines)}
    # (force_one, force_zero) per site: a gate output line, a gate
    # output line's input position, or a position in a port list.
    stems: Dict[int, Tuple[int, int]] = {}
    branches: Dict[int, Dict[int, Tuple[int, int]]] = {}
    inputs: Dict[int, Tuple[int, int]] = {}
    states: Dict[int, Tuple[int, int]] = {}
    flops: Dict[int, Tuple[int, int]] = {}
    outputs: Dict[int, Tuple[int, int]] = {}

    def merge(
        table: Dict[int, Tuple[int, int]], key: int, f1: int, f0: int
    ) -> None:
        old_one, old_zero = table.get(key, (0, 0))
        table[key] = (old_one | f1, old_zero | f0)

    for slot, fault in enumerate(faults, start=1):
        bit = 1 << slot
        force_one = bit if fault.stuck_at == ONE else 0
        force_zero = bit if fault.stuck_at == ZERO else 0
        pin = fault.pin
        if pin is None:
            source = circuit.source_kind[fault.line]
            if source == "gate":
                merge(stems, fault.line, force_one, force_zero)
            elif source == "input":
                merge(inputs, input_pos[fault.line], force_one, force_zero)
            else:  # a present-state line
                merge(states, flop_of_ps[fault.line], force_one, force_zero)
        elif pin.kind == "gate":
            gate = circuit.gates[pin.index]
            if not 0 <= pin.pos < len(gate.inputs):
                raise IndexError(
                    f"gate {pin.index} has no input position {pin.pos}"
                )
            merge(branches.setdefault(gate.output, {}), pin.pos,
                  force_one, force_zero)
        elif pin.kind == "flop":
            merge(flops, pin.index, force_one, force_zero)
        else:  # "output"
            merge(outputs, pin.index, force_one, force_zero)

    def oriented(f1: int, f0: int, swapped: bool = False) -> Force:
        # ``keep`` stays inside the batch's slots (a negative mask makes
        # every ``&`` on CPython's big integers about twice as slow), and
        # the keep of an empty side is *mask* itself, not a copy.
        fp, fq = (f0, f1) if swapped else (f1, f0)
        return (fp, mask ^ fp if fp else mask, fq, mask ^ fq if fq else mask)

    def ports(table: Dict[int, Tuple[int, int]]) -> Dict[int, Force]:
        return {k: oriented(f1, f0) for k, (f1, f0) in table.items()}

    # The IR's entries are in schedule order, so the schedule slot *s*
    # indexes the CSR table; an unforced gate keeps the IR's own entry.
    program: List[Run] = []
    s = 0
    for op, kind, gates in ir.program:
        entries: List[GateEntry] = []
        for entry in gates:
            out = ir.outs[s]
            pins = branches.get(out)
            stem = stems.get(out)
            if pins is None and stem is None:
                entries.append(entry)
            else:
                fanins = ir.fanin_lines[
                    ir.fanin_offsets[s]:ir.fanin_offsets[s + 1]
                ]
                entries.append(gate_entry(
                    kind,
                    out,
                    fanins,
                    None if pins is None else [
                        None if pos not in pins
                        else oriented(*pins[pos], READS_SWAPPED[op])
                        for pos in range(len(fanins))
                    ],
                    None if stem is None
                    else oriented(*stem, WRITES_SWAPPED[op]),
                ))
            s += 1
        program.append((op, kind, tuple(entries)))

    return CompiledFaultBatch(
        faults=list(faults),
        width=len(faults) + 1,
        mask=mask,
        program=tuple(program),
        input_forces=ports(inputs),
        output_forces=ports(outputs),
        flop_forces=ports(flops),
        forced_state=ports(states),
    )


class FaultBatchMasks(NamedTuple):
    """Per-fault answers of :func:`simulate_fault_batch`; bit *j* of
    each mask belongs to fault *j* of the batch.  ``good`` is slot 0's
    trajectory (states and outputs) when the batch ran without a
    reference, ``None`` otherwise."""

    detected: int
    condition_c: int
    good: Optional["SequentialResult"] = None


def _slot0(ones: Sequence[int], zeros: Sequence[int]) -> List[int]:
    """Slot 0's three-valued value of each plane pair."""
    return [
        ONE if v1 & 1 else (ZERO if v0 & 1 else UNKNOWN)
        for v1, v0 in zip(ones, zeros)
    ]


def simulate_fault_batch(
    circuit: Circuit,
    batch: CompiledFaultBatch,
    patterns: Sequence[Sequence[int]],
    reference_outputs: Optional[Sequence[Sequence[int]]] = None,
) -> FaultBatchMasks:
    """Sequentially simulate one compiled batch against a reference.

    *reference_outputs* holds one row of fault-free output values per
    pattern (the good machine's, or an expanded fault-free response).
    Without it, every fault is compared with slot 0, the fault-free
    machine of the same pass, from the all-X initial state, and slot
    0's trajectory comes back as ``good``: the same states and outputs
    as :func:`repro.sim.sequential.simulate_sequence`.  Both masks come
    out of the one frame loop:

    * ``detected`` -- the fault's response and the reference hold
      opposite specified values at some (time, output) position.
      Against the good machine this is exactly
      :func:`repro.fsim.conventional.run_conventional`'s verdict.
    * ``condition_c`` -- at some time unit ``u < L`` the faulty
      present state (after forced stems) has an X bit, and at ``u`` or
      later some output is X in the faulty response but specified in
      the reference: ``N_sv(u) > 0 and N_out(u) > 0``.  Read off the
      planes frame by frame: an X output the reference specifies
      counts for the slots that have had an X state bit so far.
    """
    if reference_outputs is not None and len(reference_outputs) != len(
        patterns
    ):
        raise ValueError("reference response length mismatch")
    ir = compile_circuit(circuit)
    mask = batch.mask
    ones = [0] * ir.num_lines
    zeros = [0] * ir.num_lines
    num_flops = len(ir.ps_lines)
    state_one = [0] * num_flops
    state_zero = [0] * num_flops
    _force(state_one, state_zero, batch.forced_state)
    good_states = [_slot0(state_one, state_zero)]
    good_outputs: List[List[int]] = []
    detected = condition_c = 0
    x_state = 0  # slots with an X present-state bit up to this frame
    for u, pattern in enumerate(patterns):
        if len(pattern) != len(ir.inputs):
            raise ValueError(
                f"expected {len(ir.inputs)} input values, got {len(pattern)}"
            )
        specified = mask
        for v1, v0 in zip(state_one, state_zero):
            specified &= v1 | v0
        x_state |= mask ^ specified
        pi_ones, pi_zeros = broadcast_planes(pattern, mask)
        _force(pi_ones, pi_zeros, batch.input_forces)
        _set_sources(ir, ones, zeros, pi_ones, pi_zeros, state_one, state_zero)
        eval_pass(ir, ones, zeros, mask, batch.program)
        out_one = [ones[line] for line in ir.outputs]
        out_zero = [zeros[line] for line in ir.outputs]
        _force(out_one, out_zero, batch.output_forces)
        if reference_outputs is None:
            good_outputs.append(_slot0(out_one, out_zero))
        reference = (
            good_outputs[-1] if reference_outputs is None
            else reference_outputs[u]
        )
        resolved = mask
        for expected, v1, v0 in zip(reference, out_one, out_zero):
            if expected == UNKNOWN:
                continue
            detected |= v0 if expected == ONE else v1
            resolved &= v1 | v0
        condition_c |= x_state & (mask ^ resolved)
        state_one = [ones[line] for line in ir.ns_lines]
        state_zero = [zeros[line] for line in ir.ns_lines]
        _force(state_one, state_zero, batch.flop_forces)
        _force(state_one, state_zero, batch.forced_state)
        if reference_outputs is None:
            good_states.append(_slot0(state_one, state_zero))
    good: Optional[SequentialResult] = None
    if reference_outputs is None:
        from repro.sim.sequential import SequentialResult

        good = SequentialResult(states=good_states, outputs=good_outputs)
    # Drop the fault-free slot 0.
    return FaultBatchMasks(detected >> 1, condition_c >> 1, good)
