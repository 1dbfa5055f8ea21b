"""Frame implication engine: constraint propagation inside one time frame.

This engine powers backward implications (paper Section 2): after a
next-state line is assigned at time unit ``u-1``, values are propagated
through the frame in both directions -- "from outputs to inputs and then
from inputs to outputs" -- until either a :class:`~repro.logic.Conflict`
is found or no further values are forced.

Two propagation modes are provided:

* :meth:`FrameEngine.imply` -- event-driven worklist to fixpoint.  Finds a
  superset of the paper's two-pass implications (the paper itself notes
  "several passes over the circuit ... may be required to determine all
  the implications" and stops at two only to bound CPU time).
* :meth:`FrameEngine.imply_two_pass` -- exactly the paper's two sweeps
  (reverse-topological backward pass, then forward pass), for the
  fidelity ablation bench.

Both modes are sound: every value they assign holds in every complete
binary assignment consistent with the starting values, and a conflict is
raised only when no consistent completion exists.

The per-gate step is compiled: each engine flattens its circuit once
into ``(kind, output, inputs, controlling value, controlled output)``
tuples, and one inlined, opcode-specialized step computes the local
fixpoint of a gate from a single scan of its inputs -- counting
controlling and ``X`` inputs for AND/NAND/OR/NOR, parity plus an ``X``
count for XOR/XNOR, direct cases for NOT, BUF and the constants.  It is
value-, record- and conflict-identical to applying
:func:`repro.logic.implication.propagate_gate` (the readable reference
the differential tests compare against) and writing back every changed
position: the output first, then the input positions in order,
duplicate fanins included.
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


class FrameEngine:
    """Reusable implication engine for one circuit.

    The engine precomputes, for every line, the driving gate and the
    consuming gates, so each :meth:`imply` call touches only the affected
    cone.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._ops: List[_Op] = []
        for gate in circuit.gates:
            kind, ctrl, cout = _STEP[gate.gate_type]
            self._ops.append((kind, gate.output, gate.inputs, ctrl, cout))
        # Gates to revisit when a line's value changes: its driver (if the
        # line is gate-driven) plus every gate reading it, once each (a
        # gate reading a line twice is at its local fixpoint after one
        # visit, so the repeat visit would be a no-op).
        touched: List[List[int]] = [[] for _ in range(circuit.num_lines)]
        for gate_index, gate in enumerate(circuit.gates):
            for line in (gate.output, *gate.inputs):
                if not touched[line] or touched[line][-1] != gate_index:
                    touched[line].append(gate_index)
        self._touched_gates = touched
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
