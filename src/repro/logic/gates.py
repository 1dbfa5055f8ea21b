"""Gate types and n-ary three-valued gate evaluation.

The gate alphabet matches the ISCAS-89 ``.bench`` format: AND, NAND, OR,
NOR, XOR, XNOR, NOT, BUF(F), plus the two constant drivers CONST0/CONST1
used internally by the fault injector (a stuck-at fault is modelled by
cutting a line and driving its consumer side with a constant; see
:mod:`repro.faults.injection`).

Evaluation follows standard three-valued semantics: a controlling value on
any input decides the output regardless of ``X`` inputs; otherwise any
``X`` input makes the output ``X``.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Sequence

from repro.logic.values import ONE, UNKNOWN, ZERO


class GateType(enum.Enum):
    """Primitive gate kinds understood by every simulator in the repo."""

    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GateType.{self.name}"


#: Minimum number of inputs for each gate type.
GATE_ARITY_MIN: Dict[GateType, int] = {
    GateType.AND: 1,
    GateType.NAND: 1,
    GateType.OR: 1,
    GateType.NOR: 1,
    GateType.XOR: 1,
    GateType.XNOR: 1,
    GateType.NOT: 1,
    GateType.BUF: 1,
    GateType.CONST0: 0,
    GateType.CONST1: 0,
}

#: Gate types that take exactly one input.
GATE_ARITY_EXACT_ONE: FrozenSet[GateType] = frozenset(
    {GateType.NOT, GateType.BUF}
)

_NAME_ALIASES = {
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "CONST0": GateType.CONST0,
    "CONST1": GateType.CONST1,
}


def gate_type_from_name(name: str) -> GateType:
    """Map a ``.bench`` operator name (case-insensitive) to a gate type.

    Accepts the aliases used in the wild: ``BUFF`` for BUF and ``INV`` for
    NOT.

    Raises
    ------
    ValueError
        If *name* does not name a supported gate.
    """
    try:
        return _NAME_ALIASES[name.upper()]
    except KeyError:
        raise ValueError(f"unknown gate type: {name!r}") from None


def _eval_and(inputs: Sequence[int]) -> int:
    saw_x = False
    for v in inputs:
        if v == ZERO:
            return ZERO
        if v == UNKNOWN:
            saw_x = True
    return UNKNOWN if saw_x else ONE


def _eval_or(inputs: Sequence[int]) -> int:
    saw_x = False
    for v in inputs:
        if v == ONE:
            return ONE
        if v == UNKNOWN:
            saw_x = True
    return UNKNOWN if saw_x else ZERO


def _eval_xor(inputs: Sequence[int]) -> int:
    parity = ZERO
    for v in inputs:
        if v == UNKNOWN:
            return UNKNOWN
        parity ^= v
    return parity


_NOT_TABLE = (ONE, ZERO, UNKNOWN)


def eval_gate(gate_type: GateType, inputs: Sequence[int]) -> int:
    """Evaluate *gate_type* on three-valued *inputs* and return the output.

    ``NOT`` and ``BUF`` require exactly one input; the constant gates take
    none; every other gate accepts one or more inputs (a one-input AND/OR
    behaves as a buffer, matching ``.bench`` semantics).
    """
    if gate_type is GateType.AND:
        return _eval_and(inputs)
    if gate_type is GateType.NAND:
        return _NOT_TABLE[_eval_and(inputs)]
    if gate_type is GateType.OR:
        return _eval_or(inputs)
    if gate_type is GateType.NOR:
        return _NOT_TABLE[_eval_or(inputs)]
    if gate_type is GateType.XOR:
        return _eval_xor(inputs)
    if gate_type is GateType.XNOR:
        return _NOT_TABLE[_eval_xor(inputs)]
    if gate_type is GateType.NOT:
        if len(inputs) != 1:
            raise ValueError("NOT takes exactly one input")
        return _NOT_TABLE[inputs[0]]
    if gate_type is GateType.BUF:
        if len(inputs) != 1:
            raise ValueError("BUF takes exactly one input")
        return inputs[0]
    if gate_type is GateType.CONST0:
        return ZERO
    if gate_type is GateType.CONST1:
        return ONE
    raise ValueError(f"unknown gate type: {gate_type!r}")  # pragma: no cover
