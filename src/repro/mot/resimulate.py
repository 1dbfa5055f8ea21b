"""Fault simulation after expansion (paper Section 3.4).

Every expanded state sequence is resimulated at its *marked* time units.
Simulating frame ``u`` of a sequence uses the test pattern ``T[u]`` and
the (partially specified) state row ``S'[u]``; the computed outputs and
next state are then checked:

* outputs conflicting with the fault-free response => the fault is
  **detected** for this sequence;
* computed next-state values conflicting with already-assigned values in
  ``S'[u+1]`` => the sequence is **infeasible** (no initial state follows
  this trajectory);
* newly specified next-state values are written into ``S'[u+1]`` and time
  unit ``u+1`` is marked for simulation.

A sequence whose marked units are exhausted without either outcome stays
**unresolved**.  The fault is declared detected only when *every*
sequence resolves (detected or infeasible).

:func:`resolve_sequences` resolves a whole
:class:`~repro.mot.expansion.SequenceSet` at once: it walks the time
units once and, at each, runs one plane pass over the slots marked
there.  The pass starts from the stored faulty frame and evaluates only
the fanout cone of the present-state lines those slots specify -- a
slot's frame differs from the stored frame on those lines alone, so
every other line keeps its stored value in every slot.
:func:`resimulate_sequence` is the serial one-sequence reference it is
tested against.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.expansion import SequenceSet, StateSequence
from repro.sim.frame import eval_frame
from repro.sim.ir import CircuitIR, compile_circuit
from repro.sim.kernel import eval_cone

Site = Tuple[int, int]


class SequenceStatus(enum.Enum):
    """Resolution of one expanded state sequence."""

    DETECTED = "detected"
    INFEASIBLE = "infeasible"
    UNRESOLVED = "unresolved"


class Resolution(NamedTuple):
    """Result of :func:`resolve_sequences`.

    ``statuses[k]`` is slot *k*'s outcome, in slot order; ``sites[k]``
    the ``(time unit, output position)`` witnessing a DETECTED slot.
    """

    statuses: List[SequenceStatus]
    sites: Dict[int, Site]


class _ConePlan(NamedTuple):
    """The cone pass for one set of loaded present-state lines."""

    #: schedule slots of the union of the lines' fanout cones, ascending
    slots: Tuple[int, ...]
    #: lines the cone reads that lie outside it (stored frame values)
    inputs: Tuple[int, ...]
    #: per primary output position: does its line lie in the cone?
    outputs_in_cone: Tuple[bool, ...]
    #: ``(flop index, next-state line)`` of the next-state lines in it
    next_states: Tuple[Tuple[int, int], ...]


class _StateCones:
    """Present-state fanout cones of one (faulty) circuit.

    Built on the first resolution over a circuit and cached on it,
    like :func:`~repro.sim.ir.compile_circuit` caches the IR, so it
    lives exactly as long as the circuit does.
    """

    def __init__(self, ir: CircuitIR) -> None:
        self.ir = ir
        off = ir.fanin_offsets
        self._consumers: List[List[int]] = [[] for _ in range(ir.num_lines)]
        for s in range(ir.num_gates):
            for index in range(off[s], off[s + 1]):
                self._consumers[ir.fanin_lines[index]].append(s)
        #: per flop, the schedule slots of its fanout cone as a bitmask
        #: (computed when the flop is first loaded)
        self._cones: List[Optional[int]] = [None] * len(ir.ps_lines)
        self._plans: Dict[int, _ConePlan] = {}

    def _cone(self, flop_index: int) -> int:
        cone = self._cones[flop_index]
        if cone is None:
            cone = 0
            stack = [self.ir.ps_lines[flop_index]]
            while stack:
                for s in self._consumers[stack.pop()]:
                    if not cone >> s & 1:
                        cone |= 1 << s
                        stack.append(self.ir.outs[s])
            self._cones[flop_index] = cone
        return cone

    def plan(self, loaded: int) -> _ConePlan:
        """The cone pass for the flops in bitmask *loaded*."""
        plan = self._plans.get(loaded)
        if plan is None:
            plan = self._build(loaded)
            self._plans[loaded] = plan
        return plan

    def _build(self, loaded: int) -> _ConePlan:
        ir = self.ir
        union = 0
        lines = set()
        flops = loaded
        while flops:
            low = flops & -flops
            flop_index = low.bit_length() - 1
            union |= self._cone(flop_index)
            lines.add(ir.ps_lines[flop_index])
            flops ^= low
        slots = []
        while union:
            low = union & -union
            slots.append(low.bit_length() - 1)
            union ^= low
        lines.update(ir.outs[s] for s in slots)
        off = ir.fanin_offsets
        inputs = {
            ir.fanin_lines[index]
            for s in slots
            for index in range(off[s], off[s + 1])
        } - lines
        return _ConePlan(
            slots=tuple(slots),
            inputs=tuple(sorted(inputs)),
            outputs_in_cone=tuple(line in lines for line in ir.outputs),
            next_states=tuple(
                (flop_index, line)
                for flop_index, line in enumerate(ir.ns_lines)
                if line in lines
            ),
        )


_CONES_ATTR = "_repro_state_cones"


def _state_cones(circuit: Circuit) -> _StateCones:
    cones = getattr(circuit, _CONES_ATTR, None)
    if cones is None:
        cones = _StateCones(compile_circuit(circuit))
        setattr(circuit, _CONES_ATTR, cones)
    return cones


def resolve_sequences(
    circuit: Circuit,
    frames: Sequence[Sequence[int]],
    reference_outputs: Sequence[Sequence[int]],
    sequences: SequenceSet,
    first_only: bool = False,
) -> Resolution:
    """Resimulate every slot of *sequences* (mutated in place).

    *circuit* is the faulty netlist and *frames* its stored
    conventional frames (every line value of frame ``u``, as kept by
    ``simulate_injected(..., keep_frames=True)``); the set's base must
    be that same trajectory.  *reference_outputs* is the fault-free
    response.  Stuck present-state flops need no special case: the
    base specifies them at every time unit, so no slot writes them.

    The walk visits each time unit once.  At unit *u* the live slots
    marked there are evaluated together; a live slot with no mark
    pending at *u* or later is UNRESOLVED.  Marks at time unit ``L``
    never resimulate (there is no frame ``L``).  Unresolved slots keep
    the next-state values their walk filled in, and every mark is
    cleared on return.

    Returns every slot's status.  With *first_only*, resolution stops
    once the lowest unresolved slot *k* is known and slots ``0..k-1``
    are settled, and only slots ``0..k`` are returned (slots above *k*
    are left partially resolved) -- exactly the sequences the serial
    loop resimulates before it stops at the first unresolved one.
    """
    width = len(sequences)
    length = len(frames)
    ir = compile_circuit(circuit)
    cones = _state_cones(circuit)
    base = sequences.base
    row_ones = sequences.ones
    row_zeros = sequences.zeros
    marks = sequences.marks
    num_flops = len(ir.ps_lines)
    ps_lines = ir.ps_lines
    out_lines = ir.outputs
    ones = [0] * ir.num_lines
    zeros = [0] * ir.num_lines
    # suffix[v]: slots marked at some unit in v..L-1 before the walk.
    suffix = [0] * (length + 2)
    for v in range(length - 1, -1, -1):
        suffix[v] = suffix[v + 1] | marks[v]
    live = (1 << width) - 1
    detected = infeasible = unresolved = 0
    sites: Dict[int, Site] = {}
    u = 0
    while live:
        # Marks reach u + 1 only from u, so beyond u the suffix holds.
        stale = live & ~(suffix[u + 1] | (marks[u] if u < length else 0))
        if stale:
            unresolved |= stale
            live ^= stale
            if first_only:
                live &= (unresolved & -unresolved) - 1
            if not live:
                break
        active = marks[u] & live
        if not active:
            u += 1
            continue
        marks[u] = 0
        # Load the specified present-state planes and evaluate the cone.
        loaded = 0
        r1 = row_ones[u]
        r0 = row_zeros[u]
        if r1 is not None and r0 is not None:
            for flop_index in range(num_flops):
                if (r1[flop_index] | r0[flop_index]) & active:
                    loaded |= 1 << flop_index
                    line = ps_lines[flop_index]
                    ones[line] = r1[flop_index]
                    zeros[line] = r0[flop_index]
        plan = cones.plan(loaded)
        frame = frames[u]
        for line in plan.inputs:
            value = frame[line]
            ones[line] = active if value == ONE else 0
            zeros[line] = active if value == ZERO else 0
        eval_cone(ir, ones, zeros, active, plan.slots)
        # Outputs: the lowest conflicting position of each slot.
        go = active
        reference = reference_outputs[u]
        in_cone = plan.outputs_in_cone
        for position, line in enumerate(out_lines):
            ref = reference[position]
            if ref == UNKNOWN:
                continue
            value = frame[line]
            if value == UNKNOWN:
                if not in_cone[position]:
                    continue
                hit = (zeros[line] if ref == ONE else ones[line]) & go
            elif value != ref:
                hit = go
            else:
                continue
            if hit:
                go ^= hit
                detected |= hit
                while hit:
                    low = hit & -hit
                    sites[low.bit_length() - 1] = (u, position)
                    hit ^= low
                if not go:
                    break
        # Next state: contradictions and newly specified values.
        bad = advanced = 0
        if go:
            next_base = base[u + 1]
            n1: Optional[List[int]] = None
            n0: Optional[List[int]] = None
            for flop_index, line in plan.next_states:
                if next_base[flop_index] != UNKNOWN:
                    continue
                c1 = ones[line] & go
                c0 = zeros[line] & go
                if not (c1 | c0):
                    continue
                if n1 is None or n0 is None:
                    n1, n0 = sequences.planes(u + 1)
                s1 = n1[flop_index]
                s0 = n0[flop_index]
                bad |= (c1 & s0) | (c0 & s1)
                held = s1 | s0
                n1[flop_index] = s1 | (c1 & ~held)
                n0[flop_index] = s0 | (c0 & ~held)
                advanced |= (c1 | c0) & ~held
        infeasible |= bad
        live &= ~((active ^ go) | bad)
        if advanced & ~bad:
            marks[u + 1] |= advanced & ~bad
        u += 1
    for t, bits in enumerate(marks):
        if bits:
            marks[t] = 0
    count = width
    if first_only and unresolved:
        count = (unresolved & -unresolved).bit_length()
    statuses = []
    for slot in range(count):
        if detected >> slot & 1:
            statuses.append(SequenceStatus.DETECTED)
        elif infeasible >> slot & 1:
            statuses.append(SequenceStatus.INFEASIBLE)
        else:
            statuses.append(SequenceStatus.UNRESOLVED)
    return Resolution(
        statuses, {k: site for k, site in sites.items() if k < count}
    )


def resimulate_sequence(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    reference_outputs: Sequence[Sequence[int]],
    sequence: StateSequence,
    forced_ps: Optional[Dict[int, int]] = None,
    detail: Optional[dict] = None,
) -> SequenceStatus:
    """Resimulate the marked time units of *sequence* (mutated in place).

    The serial reference of :func:`resolve_sequences`: one sequence, one
    interpreted frame at a time.  *circuit* is the faulty netlist,
    *reference_outputs* the fault-free response.  Flops listed in
    *forced_ps* have a stuck output: their computed next-state values
    are masked by the stuck value, so they are neither checked for
    conflicts nor propagated.

    When *detail* (a dict) is supplied, a DETECTED outcome stores the
    witnessing ``(time unit, output position)`` under ``detail["site"]``.
    """
    length = len(patterns)
    marked = sequence.marked
    output_lines = circuit.outputs
    ns_lines = [flop.ns for flop in circuit.flops]
    forced = forced_ps or {}
    u = min(marked) if marked else length
    while u < length:
        if u not in marked:
            u += 1
            continue
        marked.discard(u)
        values = eval_frame(circuit, patterns[u], sequence.states[u])
        reference = reference_outputs[u]
        for position, line in enumerate(output_lines):
            value = values[line]
            ref = reference[position]
            if value != UNKNOWN and ref != UNKNOWN and value != ref:
                if detail is not None:
                    detail["site"] = (u, position)
                return SequenceStatus.DETECTED
        next_row = sequence.states[u + 1]
        advanced = False
        for flop_index, line in enumerate(ns_lines):
            if flop_index in forced:
                continue
            computed = values[line]
            if computed == UNKNOWN:
                continue
            stored = next_row[flop_index]
            if stored == UNKNOWN:
                next_row[flop_index] = computed
                advanced = True
            elif stored != computed:
                return SequenceStatus.INFEASIBLE
        if advanced:
            marked.add(u + 1)
        u += 1
    marked.clear()
    return SequenceStatus.UNRESOLVED
