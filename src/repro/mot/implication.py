"""Frame implication engines: constraint propagation inside one time frame.

These engines power backward implications (paper Section 2): after a
next-state line is assigned at time unit ``u-1``, values are propagated
through the frame in both directions -- "from outputs to inputs and then
from inputs to outputs" -- until either a conflict is found or no
further values are forced.

Two engines apply the same per-gate rules:

* :class:`FrameEngine` runs one assignment on one frame of three-valued
  values.  It serves the paper-figure reproductions, the examples and
  the tests, which use it as the reference for the plane engine.
* :class:`PlaneEngine` runs many independent probes at once, one per
  bit-slot of a :class:`SlotPlanes` set of ``(zeros, ones)`` planes
  per line; each slot starts from its own stored frame.  This is the
  engine of Section 3.1's collection
  (:class:`repro.mot.backward.BackwardCollector`).

Each engine has two schedules:

* ``imply`` -- event-driven, to fixpoint.  Finds a superset of the
  paper's two-pass implications (the paper itself notes "several passes
  over the circuit ... may be required to determine all the
  implications" and stops at two only to bound CPU time).
* ``imply_two_pass`` -- exactly the paper's two sweeps (reverse
  topological backward pass, then forward pass), for the fidelity
  ablation bench.

Both schedules are sound: every value they assign holds in every
complete binary assignment consistent with the starting values, and a
conflict is reported only when no consistent completion exists.

The per-gate step is compiled: each engine flattens its circuit once
into ``(kind, output, inputs, controlling value, controlled output)``
tuples.  :class:`FrameEngine`'s inlined, opcode-specialized step
computes the local fixpoint of a gate from a single scan of its inputs
-- counting controlling and ``X`` inputs for AND/NAND/OR/NOR, parity
plus an ``X`` count for XOR/XNOR, direct cases for NOT, BUF and the
constants.  It is value-, record- and conflict-identical to applying
:func:`repro.logic.implication.propagate_gate` (the readable reference
the differential tests compare against) and writing back every changed
position: the output first, then the input positions in order,
duplicate fanins included.

:class:`PlaneEngine` applies the same rules as bitwise formulas over
every slot at once (see its docstring).  A slot whose two planes
overlap on some line has conflicted; it leaves :attr:`SlotPlanes.live`
and no later write touches it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.logic.gates import GateType
from repro.logic.implication import Conflict
from repro.logic.values import ONE, UNKNOWN, ZERO

Assignment = Tuple[int, int]

# Step kinds of the compiled gate table.
_AND_OR = 0
_XOR = 1
_NOT = 2
_BUF = 3
_CONST = 4

#: Gate type -> (kind, controlling value, output when controlled).  For
#: XOR/XNOR the last field is the output inversion; for the constants it
#: is the driven value.
_STEP = {
    GateType.AND: (_AND_OR, ZERO, ZERO),
    GateType.NAND: (_AND_OR, ZERO, ONE),
    GateType.OR: (_AND_OR, ONE, ONE),
    GateType.NOR: (_AND_OR, ONE, ZERO),
    GateType.XOR: (_XOR, 0, 0),
    GateType.XNOR: (_XOR, 0, 1),
    GateType.NOT: (_NOT, 0, 0),
    GateType.BUF: (_BUF, 0, 0),
    GateType.CONST0: (_CONST, 0, ZERO),
    GateType.CONST1: (_CONST, 0, ONE),
}

#: One compiled gate: (kind, output line, input lines, ctrl, cout).
_Op = Tuple[int, int, Tuple[int, ...], int, int]


def _compile(circuit: Circuit) -> Tuple[List[_Op], List[List[int]]]:
    """The compiled gate table of *circuit*, and per line the gates to
    revisit when its value changes: its driver (if the line is
    gate-driven) plus every gate reading it, once each (a gate reading
    a line twice is at its local fixpoint after one visit, so the repeat
    visit would be a no-op)."""
    ops: List[_Op] = []
    touched: List[List[int]] = [[] for _ in range(circuit.num_lines)]
    for gate_index, gate in enumerate(circuit.gates):
        kind, ctrl, cout = _STEP[gate.gate_type]
        ops.append((kind, gate.output, gate.inputs, ctrl, cout))
        for line in (gate.output, *gate.inputs):
            if not touched[line] or touched[line][-1] != gate_index:
                touched[line].append(gate_index)
    return ops, touched


class FrameEngine:
    """Reusable implication engine for one circuit.

    The engine precomputes, for every line, the driving gate and the
    consuming gates, so each :meth:`imply` call touches only the affected
    cone.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._ops, self._touched_gates = _compile(circuit)
        self._reverse_topo = list(reversed(circuit.topo_gates))

    # ------------------------------------------------------------------
    def _propagate(
        self,
        values: List[int],
        gates: Iterable[int],
        queue: Optional[List[int]],
        record: Optional[List[Assignment]],
    ) -> None:
        """Visit *gates* in order, applying each gate's forced values;
        with a *queue* (worklist mode), then visit the gates touched by
        each queued line in turn, while changed lines keep arriving.

        Each visit computes the gate's local fixpoint from one scan of
        its current values; a contradiction raises :class:`Conflict`
        before anything of that gate is written.  Every newly specified
        position is written, recorded and queued (when *queue* is
        given), in order.
        """
        ops = self._ops
        touched = self._touched_gates
        forced: Sequence[Assignment]
        head = 0
        while True:
            for gate_index in gates:
                kind, out, ins, ctrl, cout = ops[gate_index]
                o = values[out]
                if kind == _AND_OR:
                    x_count = 0
                    x_line = -1
                    fwd = 1 - cout
                    for line in ins:
                        v = values[line]
                        if v == ctrl:
                            fwd = cout
                            break
                        if v == UNKNOWN:
                            x_count += 1
                            x_line = line
                    else:
                        if x_count:
                            fwd = UNKNOWN
                    if fwd != UNKNOWN:
                        if o == fwd:
                            continue
                        if o != UNKNOWN:
                            raise self._contradiction(out)
                        forced = ((out, fwd),)
                    elif o == UNKNOWN:
                        continue
                    elif o == cout:
                        # Controlled output, no controlling input yet: a
                        # single X input must carry the controlling value.
                        if x_count != 1:
                            continue
                        forced = ((x_line, ctrl),)
                    else:
                        # Non-controlled output: every X input (position)
                        # takes the non-controlling value.
                        nonctrl = 1 - ctrl
                        forced = [
                            (line, nonctrl)
                            for line in ins
                            if values[line] == UNKNOWN
                        ]
                elif kind == _XOR:
                    x_count = 0
                    x_line = -1
                    parity = cout
                    for line in ins:
                        v = values[line]
                        if v == UNKNOWN:
                            x_count += 1
                            if x_count == 2:
                                break
                            x_line = line
                        else:
                            parity ^= v
                    if x_count == 0:
                        if o == parity:
                            continue
                        if o != UNKNOWN:
                            raise self._contradiction(out)
                        forced = ((out, parity),)
                    elif x_count == 1 and o != UNKNOWN:
                        forced = ((x_line, parity ^ o),)
                    else:
                        continue
                elif kind == _CONST:
                    if o == cout:
                        continue
                    if o != UNKNOWN:
                        raise self._contradiction(out)
                    forced = ((out, cout),)
                else:  # _NOT / _BUF
                    line = ins[0]
                    v = values[line]
                    if v == UNKNOWN:
                        if o == UNKNOWN:
                            continue
                        forced = ((line, o if kind == _BUF else 1 - o),)
                    else:
                        fwd = v if kind == _BUF else 1 - v
                        if o == fwd:
                            continue
                        if o != UNKNOWN:
                            raise self._contradiction(out)
                        forced = ((out, fwd),)
                for line, value in forced:
                    values[line] = value
                    if record is not None:
                        record.append((line, value))
                    if queue is not None:
                        queue.append(line)
            if queue is None or head == len(queue):
                return
            gates = touched[queue[head]]
            head += 1

    def _contradiction(self, line: int) -> Conflict:
        return Conflict(
            f"gate output {self.circuit.line_names[line]} contradicts its inputs"
        )

    def _seed(
        self,
        values: List[int],
        assignments: Iterable[Assignment],
        record: Optional[List[Assignment]],
    ) -> List[int]:
        seeded: List[int] = []
        for line, value in assignments:
            current = values[line]
            if current == UNKNOWN:
                values[line] = value
                seeded.append(line)
                if record is not None:
                    record.append((line, value))
            elif current != value:
                raise Conflict(
                    f"assignment {self.circuit.line_names[line]}={value} "
                    f"contradicts existing value {current}"
                )
        return seeded

    # ------------------------------------------------------------------
    def imply(
        self,
        values: List[int],
        assignments: Iterable[Assignment],
        record: Optional[List[Assignment]] = None,
    ) -> None:
        """Apply *assignments* to *values* and propagate to fixpoint.

        *values* is mutated in place (pass a copy if the original matters
        -- it may be partially mutated even when a Conflict is raised).
        Newly forced ``(line, value)`` pairs are appended to *record*.

        Raises
        ------
        Conflict
            When the assignments are inconsistent with *values* under the
            circuit's logic.
        """
        queue = self._seed(values, assignments, record)
        self._propagate(values, (), queue, record)

    def imply_two_pass(
        self,
        values: List[int],
        assignments: Iterable[Assignment],
        record: Optional[List[Assignment]] = None,
    ) -> None:
        """The paper's exact two-sweep implication schedule.

        One sweep from outputs to inputs (gates in reverse topological
        order), then one sweep from inputs to outputs.
        """
        self._seed(values, assignments, record)
        self._propagate(
            values,
            chain(self._reverse_topo, self.circuit.topo_gates),
            None,
            record,
        )


#: A seed of :class:`PlaneEngine`: ``(line, slots set to 0, slots set
#: to 1)``.
Seed = Tuple[int, int, int]

#: A pending plane write: ``(line, value, slots)``.
_Write = Tuple[int, int, int]


class SlotPlanes:
    """Line values of many independent implication slots, as planes.

    ``rails[v][line]`` has bit *k* set when *line* holds value *v* in
    slot *k*; neither bit set is ``X``.  Each slot starts from a stored
    frame: *blocks* lists ``(frame values, slot mask)`` pairs.  A line
    is packed from its frames on first use (:meth:`load`), so an
    implication that stays in a small cone packs only that cone;
    ``base`` keeps the packed start values, so :meth:`gain` tells what
    implication specified.  :attr:`live` holds the slots still
    implying: the engine clears a slot when it conflicts.
    """

    __slots__ = ("blocks", "rails", "base", "packed", "live")

    def __init__(
        self,
        num_lines: int,
        blocks: Sequence[Tuple[Sequence[int], int]],
        live: int,
    ) -> None:
        self.blocks = blocks
        self.rails = ([0] * num_lines, [0] * num_lines)
        self.base = ([0] * num_lines, [0] * num_lines)
        self.packed = bytearray(num_lines)
        self.live = live

    def load(self, line: int) -> None:
        """Pack *line*'s stored values into its planes, once."""
        if self.packed[line]:
            return
        self.packed[line] = 1
        zero = one = 0
        for frame, mask in self.blocks:
            value = frame[line]
            if value == ONE:
                one |= mask
            elif value == ZERO:
                zero |= mask
        self.rails[0][line] = self.base[0][line] = zero
        self.rails[1][line] = self.base[1][line] = one

    def gain(self, line: int, value: int) -> int:
        """The slots in which implication set *line* to *value*."""
        return self.rails[value][line] & ~self.base[value][line]


class PlaneEngine:
    """Implication over bit-slots: every probe of one circuit in one pass.

    The rules are :class:`FrameEngine`'s, as bitwise formulas over the
    planes of every slot at once.  For an AND-type gate (controlling
    input value 0 for AND/NAND, 1 for OR/NOR):

    * controlled output <= OR of the inputs' controlling planes;
    * non-controlled output <= AND of their non-controlling planes;
    * non-controlled output => every input non-controlling;
    * controlled output with every *other* input position
      non-controlling => controlling input.  The "others" are prefix and
      suffix ANDs by pin position, so a gate reading one line on two
      pins never forces it, as in :class:`FrameEngine`.

    XOR/XNOR keep dual-rail prefix and suffix parities (output <=
    parity of the inputs; input <= output xor parity of the others),
    NOT and BUF copy values both ways, and a constant's output already
    holds its value in every stored frame.  A visit computes every
    write from the gate's values before the visit; that is the gate's
    local fixpoint, and in each slot exactly what one
    :class:`FrameEngine` visit writes.  A write that makes a line's two
    planes overlap conflicts that slot: it leaves
    :attr:`SlotPlanes.live`, and no later write touches it.

    The gates to visit start as those touching a seeded line: a stored
    frame comes from forward simulation, so it is closed under every
    rule.  A gate waits for a visit at most once at a time, and waits
    again when one of its lines gains a bit in a live slot.
    :meth:`imply` visits waiting gates first come, first served until
    none waits.  The closure of monotone rules does not depend on the
    visiting order, so each slot ends where :meth:`FrameEngine.imply`
    ends.  :meth:`imply_two_pass` walks ``circuit.topo_gates`` reversed
    and then forward, visiting the gates that wait when the sweep
    reaches them; a gate that does not wait is at its local fixpoint,
    so each slot sees :meth:`FrameEngine.imply_two_pass`'s writes.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._ops, self._touched = _compile(circuit)
        self._sweeps = (list(reversed(circuit.topo_gates)), circuit.topo_gates)

    def imply(self, planes: SlotPlanes, seeds: Iterable[Seed]) -> None:
        """Write *seeds* into the live slots of *planes* and propagate
        to fixpoint."""
        waiting = bytearray(len(self._ops))
        queue: List[int] = []
        self._wake(planes, self._seed(planes, seeds), waiting, queue)
        head = 0
        while head < len(queue):
            gate = queue[head]
            head += 1
            waiting[gate] = 0
            self._wake(planes, self._visit(planes, gate), waiting, queue)

    def imply_two_pass(self, planes: SlotPlanes, seeds: Iterable[Seed]) -> None:
        """The paper's two sweeps over the live slots of *planes*: one
        from outputs to inputs, then one from inputs to outputs."""
        waiting = bytearray(len(self._ops))
        woken: List[int] = []
        self._wake(planes, self._seed(planes, seeds), waiting, woken)
        for sweep in self._sweeps:
            for gate in sweep:
                if waiting[gate]:
                    waiting[gate] = 0
                    self._wake(planes, self._visit(planes, gate), waiting, woken)

    # ------------------------------------------------------------------
    def _seed(self, planes: SlotPlanes, seeds: Iterable[Seed]) -> List[int]:
        writes: List[_Write] = []
        for line, zero, one in seeds:
            planes.load(line)
            writes.append((line, 0, zero))
            writes.append((line, 1, one))
        return self._apply(planes, writes)

    def _wake(
        self,
        planes: SlotPlanes,
        lines: List[int],
        waiting: bytearray,
        queue: List[int],
    ) -> None:
        """Queue every gate touching *lines* that is not waiting yet,
        packing the lines it reads and drives."""
        ops = self._ops
        touched = self._touched
        packed = planes.packed
        load = planes.load
        for line in lines:
            for gate in touched[line]:
                if waiting[gate]:
                    continue
                waiting[gate] = 1
                queue.append(gate)
                _kind, out, ins, _ctrl, _cout = ops[gate]
                if not packed[out]:
                    load(out)
                for source in ins:
                    if not packed[source]:
                        load(source)

    def _visit(self, planes: SlotPlanes, gate: int) -> List[int]:
        """Apply one gate's rules in every live slot; returns the lines
        that gained bits."""
        kind, out, ins, ctrl, cout = self._ops[gate]
        rails = planes.rails
        live = planes.live
        writes: List[_Write] = []
        if kind == _AND_OR:
            c_rail = rails[ctrl]
            n_rail = rails[1 - ctrl]
            any_c = 0
            all_n = live
            for line in ins:
                any_c |= c_rail[line]
                all_n &= n_rail[line]
            writes.append((out, cout, any_c))
            writes.append((out, 1 - cout, all_n))
            spread = rails[1 - cout][out] & live & ~all_n
            if spread:
                for line in ins:
                    writes.append((line, 1 - ctrl, spread))
            pick = rails[cout][out] & live & ~any_c
            if pick:
                # suffix[j]: every position after j non-controlling.
                suffix = [-1] * len(ins)
                rest = -1
                for j in range(len(ins) - 1, 0, -1):
                    rest &= n_rail[ins[j]]
                    suffix[j - 1] = rest
                prefix = pick
                for j, line in enumerate(ins):
                    writes.append((line, ctrl, prefix & suffix[j]))
                    prefix &= n_rail[line]
        elif kind == _XOR:
            zeros, ones = rails
            # Dual-rail parity (p0, p1) of the inputs before position j.
            p0, p1 = -1, 0
            prefix_parity: List[Tuple[int, int]] = []
            for line in ins:
                prefix_parity.append((p0, p1))
                a0 = zeros[line]
                a1 = ones[line]
                p0, p1 = p0 & a0 | p1 & a1, p0 & a1 | p1 & a0
            writes.append((out, cout, p0))
            writes.append((out, 1 - cout, p1))
            o0 = zeros[out]
            o1 = ones[out]
            pick = (o0 | o1) & live & ~(p0 | p1)
            if pick:
                # (t0, t1): the parity the inputs must have.
                if cout:
                    t0, t1 = o1 & pick, o0 & pick
                else:
                    t0, t1 = o0 & pick, o1 & pick
                s0, s1 = -1, 0  # parity of the positions after j
                for j in range(len(ins) - 1, -1, -1):
                    line = ins[j]
                    q0, q1 = prefix_parity[j]
                    q0, q1 = q0 & s0 | q1 & s1, q0 & s1 | q1 & s0
                    writes.append((line, 0, t0 & q0 | t1 & q1))
                    writes.append((line, 1, t0 & q1 | t1 & q0))
                    a0 = zeros[line]
                    a1 = ones[line]
                    s0, s1 = s0 & a0 | s1 & a1, s0 & a1 | s1 & a0
        elif kind == _CONST:
            return []
        else:  # _NOT / _BUF
            flip = 1 if kind == _NOT else 0
            line = ins[0]
            for value in (0, 1):
                writes.append((out, value ^ flip, rails[value][line]))
                writes.append((line, value ^ flip, rails[value][out]))
        return self._apply(planes, writes)

    @staticmethod
    def _apply(planes: SlotPlanes, writes: List[_Write]) -> List[int]:
        """Write each ``(line, value, slots)`` into the live slots that
        do not hold it yet; a slot whose planes then overlap leaves
        :attr:`SlotPlanes.live`.  Returns the lines that gained bits."""
        rails = planes.rails
        live = planes.live
        changed: List[int] = []
        for line, value, bits in writes:
            plane = rails[value]
            gain = bits & live & ~plane[line]
            if gain:
                plane[line] |= gain
                bad = gain & rails[1 - value][line]
                if bad:
                    live &= ~bad
                changed.append(line)
        planes.live = live
        return changed
