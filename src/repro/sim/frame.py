"""Single-time-frame three-valued evaluation.

A *frame* is one clock cycle: primary-input values and present-state
values go in, all line values (hence primary outputs and next-state
values) come out.  This is the innermost loop of every fault simulator in
the repository, so the gate list is compiled once per circuit into a flat
integer plan and cached on the circuit object.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.logic.gates import GateType
from repro.logic.values import ONE, UNKNOWN, ZERO

# Opcodes of the compiled plan (dense ints for fast dispatch).
_OP_AND = 0
_OP_NAND = 1
_OP_OR = 2
_OP_NOR = 3
_OP_XOR = 4
_OP_XNOR = 5
_OP_NOT = 6
_OP_BUF = 7
_OP_CONST0 = 8
_OP_CONST1 = 9

_OPCODES = {
    GateType.AND: _OP_AND,
    GateType.NAND: _OP_NAND,
    GateType.OR: _OP_OR,
    GateType.NOR: _OP_NOR,
    GateType.XOR: _OP_XOR,
    GateType.XNOR: _OP_XNOR,
    GateType.NOT: _OP_NOT,
    GateType.BUF: _OP_BUF,
    GateType.CONST0: _OP_CONST0,
    GateType.CONST1: _OP_CONST1,
}

_PLAN_ATTR = "_repro_frame_plan"

Plan = List[Tuple[int, int, Tuple[int, ...]]]


def frame_plan(circuit: Circuit) -> Plan:
    """Return (and cache) the topologically ordered evaluation plan."""
    plan: Plan = getattr(circuit, _PLAN_ATTR, None)
    if plan is None:
        plan = []
        for gate_index in circuit.topo_gates:
            gate = circuit.gates[gate_index]
            plan.append((_OPCODES[gate.gate_type], gate.output, gate.inputs))
        setattr(circuit, _PLAN_ATTR, plan)
    return plan


def eval_frame(
    circuit: Circuit,
    pi_values: Sequence[int],
    ps_values: Sequence[int],
) -> List[int]:
    """Evaluate one time frame and return the values of every line.

    This is the per-gate interpreter.  Its value-identical counterpart on
    the compiled kernel is :func:`repro.sim.kernel.eval_frame_values`
    (one slot) or :func:`repro.sim.kernel.eval_frame_planes` (a batch
    of patterns, where the kernel's bit-parallelism pays).

    Parameters
    ----------
    circuit:
        The (fault-free or fault-injected) netlist.
    pi_values:
        One three-valued value per primary input, in ``circuit.inputs``
        order.
    ps_values:
        One three-valued value per flip-flop, in ``circuit.flops`` order.

    Returns
    -------
    list of int
        ``values[line]`` for every line id, including primary outputs and
        next-state lines.
    """
    if len(pi_values) != circuit.num_inputs:
        raise ValueError(
            f"expected {circuit.num_inputs} input values, got {len(pi_values)}"
        )
    if len(ps_values) != circuit.num_flops:
        raise ValueError(
            f"expected {circuit.num_flops} state values, got {len(ps_values)}"
        )
    values = [UNKNOWN] * circuit.num_lines
    for line, value in zip(circuit.inputs, pi_values):
        values[line] = value
    for flop, value in zip(circuit.flops, ps_values):
        values[flop.ps] = value
    evaluate_plan(frame_plan(circuit), values)
    return values


def evaluate_plan(plan: Plan, values: List[int]) -> None:
    """Evaluate a compiled *plan* over *values* in place.

    The body is deliberately inlined (no per-gate function calls): this is
    the hottest loop in the package.
    """
    for op, out, ins in plan:
        if op <= _OP_NOR:  # AND/NAND/OR/NOR family
            if op <= _OP_NAND:
                ctrl, ctrl_result = ZERO, ZERO
            else:
                ctrl, ctrl_result = ONE, ONE
            result = None
            saw_x = False
            for line in ins:
                v = values[line]
                if v == ctrl:
                    result = ctrl_result
                    break
                if v == UNKNOWN:
                    saw_x = True
            if result is None:
                result = UNKNOWN if saw_x else (ONE - ctrl_result)
            if op == _OP_NAND or op == _OP_NOR:
                if result != UNKNOWN:
                    result = 1 - result
            values[out] = result
        elif op <= _OP_XNOR:  # XOR/XNOR
            parity = ZERO
            for line in ins:
                v = values[line]
                if v == UNKNOWN:
                    parity = UNKNOWN
                    break
                parity ^= v
            if op == _OP_XNOR and parity != UNKNOWN:
                parity = 1 - parity
            values[out] = parity
        elif op == _OP_NOT:
            v = values[ins[0]]
            values[out] = v if v == UNKNOWN else 1 - v
        elif op == _OP_BUF:
            values[out] = values[ins[0]]
        elif op == _OP_CONST0:
            values[out] = ZERO
        else:  # _OP_CONST1
            values[out] = ONE
