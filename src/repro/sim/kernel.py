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

Fault injection is compiled, not simulated: a stuck pin becomes a pair
of force masks attached to its CSR fanin index (or primary-output tap /
flip-flop data pin), applied when the consumer reads the line.  This
models stems (every consumer pin forced) and branches (a single pin)
exactly like the netlist-transformation injector, and only gates with at
least one forced pin leave the fast evaluation path.

This kernel is the only bit-parallel simulator: every ``fsim``
campaign runs its fault batches, MOT campaigns compute their good
machine and :mod:`repro.verify.states` enumerates initial states on
it.  Everything here is verdict- and value-identical to the
interpreted oracles (:func:`repro.sim.frame.eval_frame`,
:func:`repro.sim.sequential.simulate_sequence`,
:mod:`repro.fsim.conventional`); the differential suite in
``tests/sim/test_ir_differential.py`` and the CI gate
``benchmarks/check_kernel_gate.py`` enforce exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.sim.ir import (
    OP_BUF,
    OP_CONST0,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_XNOR,
    CircuitIR,
    compile_circuit,
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

PinOverrides = Dict[int, Tuple[int, int]]


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
    pin_overrides: Optional[PinOverrides] = None,
    dirty_slots: Optional[FrozenSet[int]] = None,
) -> None:
    """Evaluate the combinational core over the planes, in place.

    Frame sources (primary inputs and present-state lines) must already
    be set in *ones* / *zeros*; every other line is recomputed.  *mask*
    has one bit per live slot.  *pin_overrides* maps CSR fanin indices
    (see :meth:`CircuitIR.pin_slot`) to ``(force_one, force_zero)``
    masks; *dirty_slots* is the set of schedule slots with at least one
    overridden pin (gates outside it take the override-free fast path).
    """
    off = ir.fanin_offsets
    fl = ir.fanin_lines
    outs = ir.outs
    pin = pin_overrides if pin_overrides else {}
    dirty = dirty_slots if dirty_slots else frozenset()
    for op, start, end in ir.groups:
        if op <= OP_NOR:  # AND / NAND / OR / NOR
            conjunctive = op <= OP_NAND
            negated = op == OP_NAND or op == OP_NOR
            for s in range(start, end):
                lo, hi = off[s], off[s + 1]
                if dirty and s in dirty:
                    if conjunctive:
                        acc1, acc0 = mask, 0
                        for i in range(lo, hi):
                            line = fl[i]
                            v1, v0 = ones[line], zeros[line]
                            forced = pin.get(i)
                            if forced is not None:
                                f1, f0 = forced
                                keep = ~(f1 | f0)
                                v1 = (v1 & keep) | f1
                                v0 = (v0 & keep) | f0
                            acc1 &= v1
                            acc0 |= v0
                    else:
                        acc1, acc0 = 0, mask
                        for i in range(lo, hi):
                            line = fl[i]
                            v1, v0 = ones[line], zeros[line]
                            forced = pin.get(i)
                            if forced is not None:
                                f1, f0 = forced
                                keep = ~(f1 | f0)
                                v1 = (v1 & keep) | f1
                                v0 = (v0 & keep) | f0
                            acc1 |= v1
                            acc0 &= v0
                elif conjunctive:
                    acc1, acc0 = mask, 0
                    for i in range(lo, hi):
                        line = fl[i]
                        acc1 &= ones[line]
                        acc0 |= zeros[line]
                else:
                    acc1, acc0 = 0, mask
                    for i in range(lo, hi):
                        line = fl[i]
                        acc1 |= ones[line]
                        acc0 &= zeros[line]
                out = outs[s]
                if negated:
                    ones[out], zeros[out] = acc0, acc1
                else:
                    ones[out], zeros[out] = acc1, acc0
        elif op <= OP_XNOR:  # XOR / XNOR by plane recurrence
            for s in range(start, end):
                lo, hi = off[s], off[s + 1]
                check = dirty and s in dirty
                line = fl[lo]
                r1, r0 = ones[line], zeros[line]
                if check:
                    forced = pin.get(lo)
                    if forced is not None:
                        f1, f0 = forced
                        keep = ~(f1 | f0)
                        r1 = (r1 & keep) | f1
                        r0 = (r0 & keep) | f0
                for i in range(lo + 1, hi):
                    line = fl[i]
                    v1, v0 = ones[line], zeros[line]
                    if check:
                        forced = pin.get(i)
                        if forced is not None:
                            f1, f0 = forced
                            keep = ~(f1 | f0)
                            v1 = (v1 & keep) | f1
                            v0 = (v0 & keep) | f0
                    r1, r0 = (r1 & v0) | (r0 & v1), (r1 & v1) | (r0 & v0)
                out = outs[s]
                if op == OP_XNOR:
                    ones[out], zeros[out] = r0, r1
                else:
                    ones[out], zeros[out] = r1, r0
        elif op == OP_NOT or op == OP_BUF:
            for s in range(start, end):
                lo = off[s]
                line = fl[lo]
                v1, v0 = ones[line], zeros[line]
                if dirty and s in dirty:
                    forced = pin.get(lo)
                    if forced is not None:
                        f1, f0 = forced
                        keep = ~(f1 | f0)
                        v1 = (v1 & keep) | f1
                        v0 = (v0 & keep) | f0
                out = outs[s]
                if op == OP_NOT:
                    ones[out], zeros[out] = v0, v1
                else:
                    ones[out], zeros[out] = v1, v0
        else:  # CONST0 / CONST1
            for s in range(start, end):
                out = outs[s]
                if op == OP_CONST0:
                    ones[out], zeros[out] = 0, mask
                else:
                    ones[out], zeros[out] = mask, 0


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
    changes only inside their fanout cone.  There are no pin
    overrides -- it runs on injected netlists.
    """
    ops = ir.ops
    off = ir.fanin_offsets
    fl = ir.fanin_lines
    outs = ir.outs
    for s in slots:
        op = ops[s]
        lo, hi = off[s], off[s + 1]
        if op <= OP_NOR:  # AND / NAND / OR / NOR
            if op <= OP_NAND:
                acc1, acc0 = mask, 0
                for i in range(lo, hi):
                    line = fl[i]
                    acc1 &= ones[line]
                    acc0 |= zeros[line]
            else:
                acc1, acc0 = 0, mask
                for i in range(lo, hi):
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


def _read_override(
    one: int, zero: int, forced: Optional[Tuple[int, int]]
) -> Tuple[int, int]:
    """Apply a (force_one, force_zero) mask pair to one plane pair."""
    if forced is None:
        return one, zero
    f1, f0 = forced
    keep = ~(f1 | f0)
    return (one & keep) | f1, (zero & keep) | f0


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
    :attr:`faults`) occupies slot ``j + 1``.  ``pin_overrides`` forces
    gate-input reads by CSR fanin index; output taps and flip-flop data
    pins have their own tables; ``forced_state`` pins stuck
    present-state variables exactly like ``InjectedFault.forced_ps``.
    """

    faults: List[Fault]
    width: int
    mask: int
    pin_overrides: PinOverrides
    dirty_slots: FrozenSet[int]
    output_overrides: Dict[int, Tuple[int, int]]
    flop_overrides: Dict[int, Tuple[int, int]]
    forced_state: Dict[int, Tuple[int, int]]


def compile_fault_batch(
    circuit: Circuit, faults: Sequence[Fault]
) -> CompiledFaultBatch:
    """Compile *faults* (slots 1..N) into plane-mask overrides."""
    ir = compile_circuit(circuit)
    pin_overrides: PinOverrides = {}
    output_overrides: Dict[int, Tuple[int, int]] = {}
    flop_overrides: Dict[int, Tuple[int, int]] = {}
    forced_state: Dict[int, Tuple[int, int]] = {}
    dirty: set = set()

    def merge(
        table: Dict[int, Tuple[int, int]], key: int, f1: int, f0: int
    ) -> None:
        old_one, old_zero = table.get(key, (0, 0))
        table[key] = (old_one | f1, old_zero | f0)

    for slot, fault in enumerate(faults, start=1):
        bit = 1 << slot
        force_one = bit if fault.stuck_at == ONE else 0
        force_zero = bit if fault.stuck_at == ZERO else 0
        pins = (
            circuit.fanout_pins[fault.line]
            if fault.pin is None
            else [fault.pin]
        )
        for pin in pins:
            if pin.kind == "gate":
                index = ir.pin_slot(pin.index, pin.pos)
                merge(pin_overrides, index, force_one, force_zero)
                dirty.add(ir.slot_of_gate[pin.index])
            elif pin.kind == "flop":
                merge(flop_overrides, pin.index, force_one, force_zero)
            else:  # "output"
                merge(output_overrides, pin.index, force_one, force_zero)
        if fault.pin is None:
            for flop_index, ps_line in enumerate(ir.ps_lines):
                if ps_line == fault.line:
                    merge(forced_state, flop_index, force_one, force_zero)
    return CompiledFaultBatch(
        faults=list(faults),
        width=len(faults) + 1,
        mask=(1 << (len(faults) + 1)) - 1,
        pin_overrides=pin_overrides,
        dirty_slots=frozenset(dirty),
        output_overrides=output_overrides,
        flop_overrides=flop_overrides,
        forced_state=forced_state,
    )


class FaultBatchMasks(NamedTuple):
    """Per-fault answers of :func:`simulate_fault_batch`; bit *j* of
    each mask belongs to fault *j* of the batch."""

    detected: int
    condition_c: int


def simulate_fault_batch(
    circuit: Circuit,
    batch: CompiledFaultBatch,
    patterns: Sequence[Sequence[int]],
    reference_outputs: Sequence[Sequence[int]],
) -> FaultBatchMasks:
    """Sequentially simulate one compiled batch against a reference.

    *reference_outputs* holds one row of fault-free output values per
    pattern (the good machine's, or an expanded fault-free response).
    Both masks come out of the one frame loop:

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
    if len(reference_outputs) != len(patterns):
        raise ValueError("reference response length mismatch")
    ir = compile_circuit(circuit)
    mask = batch.mask
    ones = [0] * ir.num_lines
    zeros = [0] * ir.num_lines
    num_flops = len(ir.ps_lines)
    state_one = [0] * num_flops
    state_zero = [0] * num_flops
    for flop_index, (f1, f0) in batch.forced_state.items():
        state_one[flop_index] = f1
        state_zero[flop_index] = f0
    detected = condition_c = 0
    x_state = 0  # slots with an X present-state bit up to this frame
    for pattern, reference in zip(patterns, reference_outputs):
        specified = mask
        for v1, v0 in zip(state_one, state_zero):
            specified &= v1 | v0
        x_state |= mask ^ specified
        pi_ones, pi_zeros = broadcast_planes(pattern, mask)
        _set_sources(ir, ones, zeros, pi_ones, pi_zeros, state_one, state_zero)
        eval_pass(
            ir, ones, zeros, mask, batch.pin_overrides, batch.dirty_slots
        )
        resolved = mask
        for out_index, line in enumerate(ir.outputs):
            expected = reference[out_index]
            if expected == UNKNOWN:
                continue
            v1, v0 = _read_override(
                ones[line], zeros[line],
                batch.output_overrides.get(out_index),
            )
            detected |= v0 if expected == ONE else v1
            resolved &= v1 | v0
        condition_c |= x_state & (mask ^ resolved)
        for flop_index, line in enumerate(ir.ns_lines):
            v1, v0 = _read_override(
                ones[line], zeros[line],
                batch.flop_overrides.get(flop_index),
            )
            v1, v0 = _read_override(
                v1, v0, batch.forced_state.get(flop_index)
            )
            state_one[flop_index] = v1
            state_zero[flop_index] = v0
    # Drop the fault-free slot 0.
    return FaultBatchMasks(detected >> 1, condition_c >> 1)
