"""Three-valued (0/1/X) logic substrate.

This package provides the value algebra used by every simulator in the
repository:

* :mod:`repro.logic.values` -- the three logic values and conversions,
* :mod:`repro.logic.gates` -- gate types and n-ary three-valued evaluation,
* :mod:`repro.logic.implication` -- per-gate forward/backward implication
  rules with conflict detection, the building block of the frame
  implication engine used for backward implications (paper Section 2).
"""

from repro.logic.values import (
    ONE,
    UNKNOWN,
    ZERO,
    VALUE_CHARS,
    inv,
    is_specified,
    value_from_char,
    value_to_char,
    values_from_string,
    values_to_string,
)
from repro.logic.gates import (
    GATE_ARITY_EXACT_ONE,
    GATE_ARITY_MIN,
    GateType,
    eval_gate,
    gate_type_from_name,
)
from repro.logic.implication import Conflict, propagate_gate

__all__ = [
    "ZERO",
    "ONE",
    "UNKNOWN",
    "VALUE_CHARS",
    "inv",
    "is_specified",
    "value_from_char",
    "value_to_char",
    "values_from_string",
    "values_to_string",
    "GateType",
    "GATE_ARITY_MIN",
    "GATE_ARITY_EXACT_ONE",
    "eval_gate",
    "gate_type_from_name",
    "Conflict",
    "propagate_gate",
]
