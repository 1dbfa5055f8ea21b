"""Per-gate forward and backward implication rules.

These rules specify the local step of the frame implication engine
(:mod:`repro.mot.implication`).  Given the currently known three-valued
output and input values of a single gate, :func:`propagate_gate` computes
every value that is *forced* by three-valued reasoning:

* **forward**: if the inputs determine the output, the output is implied
  (e.g. any 0 input of an AND forces output 0);
* **backward**: if the output (plus some inputs) determines inputs, those
  inputs are implied.  For an AND gate with output 1 all inputs must be 1;
  for an AND gate with output 0 whose inputs are all 1 except a single
  ``X``, that ``X`` input must be 0.

A contradiction (a line that would need to be both 0 and 1) raises
:class:`Conflict`.  Conflicts are how backward implications prune
infeasible state-variable values in the paper (Figure 4): a conflict when
``Y_i`` is set to ``a`` at time ``u-1`` proves present-state variable
``y_i`` cannot be ``a`` at time ``u``.

The rules are *sound*: an implied value holds in every complete binary
assignment consistent with the given partial values, and a conflict is
raised only when no consistent complete assignment exists **locally** for
this gate.  Soundness is property-tested against brute-force enumeration
in ``tests/logic/test_implication_properties.py``.

:func:`propagate_gate` is the readable reference, not the hot path: the
engine runs a compiled, opcode-specialized step over per-engine int
tables that computes the same local fixpoint from one scan of the gate,
and ``tests/mot/test_implication_compiled.py`` holds the two equal --
values, written positions in order, and conflicts -- on every gate type
and value combination.  :class:`Conflict` is shared by both.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.logic.gates import GateType, eval_gate
from repro.logic.values import ONE, UNKNOWN, ZERO, inv


class Conflict(Exception):
    """Raised when implications force a line to both 0 and 1.

    The optional message describes the site of the contradiction; the MOT
    procedures only care *that* a conflict occurred (paper Section 3.1
    outcome (1)).
    """


#: (controlling input value, output inverted?) for the AND/OR families.
_AND_OR_FAMILY = {
    GateType.AND: (ZERO, False),
    GateType.NAND: (ZERO, True),
    GateType.OR: (ONE, False),
    GateType.NOR: (ONE, True),
}

_XOR_FAMILY = {GateType.XOR: False, GateType.XNOR: True}


def _backward_and_or(
    gate_type: GateType, out: int, ins: List[int]
) -> bool:
    """Apply backward rules for the AND/OR family in place.

    Returns True when any input value changed.
    """
    ctrl, inverted = _AND_OR_FAMILY[gate_type]
    nonctrl = inv(ctrl)
    underlying = inv(out) if inverted else out
    changed = False
    if underlying == nonctrl:
        # Non-controlled output: every input must carry the non-controlling
        # value.
        for i, v in enumerate(ins):
            if v == ctrl:
                raise Conflict(f"{gate_type.value} output forces input {i}")
            if v == UNKNOWN:
                ins[i] = nonctrl
                changed = True
    elif underlying == ctrl:
        # Controlled output: at least one input must be the controlling
        # value.  If exactly one candidate (X) remains, it is forced.
        if any(v == ctrl for v in ins):
            return changed
        unknown_positions = [i for i, v in enumerate(ins) if v == UNKNOWN]
        if not unknown_positions:
            raise Conflict(f"{gate_type.value} output unjustifiable")
        if len(unknown_positions) == 1:
            ins[unknown_positions[0]] = ctrl
            changed = True
    return changed


def _backward_xor(gate_type: GateType, out: int, ins: List[int]) -> bool:
    """Apply backward rules for the XOR family in place."""
    if out == UNKNOWN:
        return False
    inverted = _XOR_FAMILY[gate_type]
    unknown_positions = [i for i, v in enumerate(ins) if v == UNKNOWN]
    if len(unknown_positions) != 1:
        return False
    parity = ZERO
    for v in ins:
        if v != UNKNOWN:
            parity ^= v
    target = inv(out) if inverted else out
    ins[unknown_positions[0]] = parity ^ target
    return True


def propagate_gate(
    gate_type: GateType, out: int, ins: Sequence[int]
) -> Tuple[int, List[int]]:
    """Compute all locally forced values for one gate.

    Parameters
    ----------
    gate_type:
        The gate's primitive type.
    out:
        Currently known output value (possibly ``X``).
    ins:
        Currently known input values (possibly ``X``).

    Returns
    -------
    (new_out, new_ins):
        Values with every local implication applied.  Each returned value
        is either the original value or a newly specified one; specified
        values are never changed.

    Raises
    ------
    Conflict
        If the given values are locally inconsistent (no complete binary
        assignment of the ``X`` positions satisfies the gate function).
    """
    new_ins = list(ins)
    new_out = out
    while True:
        changed = False
        # Forward implication (also detects all output-side conflicts).
        forward = eval_gate(gate_type, new_ins)
        if forward != UNKNOWN:
            if new_out == UNKNOWN:
                new_out = forward
                changed = True
            elif new_out != forward:
                raise Conflict(f"{gate_type.value} output contradiction")
        # Backward implication.
        if new_out != UNKNOWN:
            if gate_type in _AND_OR_FAMILY:
                changed |= _backward_and_or(gate_type, new_out, new_ins)
            elif gate_type in _XOR_FAMILY:
                changed |= _backward_xor(gate_type, new_out, new_ins)
            elif gate_type is GateType.NOT:
                if new_ins[0] == UNKNOWN:
                    new_ins[0] = inv(new_out)
                    changed = True
            elif gate_type is GateType.BUF:
                if new_ins[0] == UNKNOWN:
                    new_ins[0] = new_out
                    changed = True
            # CONST0/CONST1: forward evaluation already checked the output.
        if not changed:
            return new_out, new_ins
