"""Static netlist analysis: the rule set behind ``repro lint``.

The rules operate on the lenient :class:`~repro.circuit.raw.RawNetlist`
form, so structurally broken files are fully reported instead of dying
on the first defect.  The ``parse-error`` findings, and the
``unknown-gate-type`` findings of ``.isc`` files, are the problems the
reader recorded:

========================  ========  ==================================
rule                      severity  meaning
========================  ========  ==================================
``parse-error``           error     unparseable source line
``unknown-gate-type``     error     operator the simulator lacks
``bad-arity``             error     gate with too few/many inputs
``duplicate-driver``      error     net driven more than once
``undriven-net``          error     net consumed but never driven
``combinational-loop``    error     gate cycle not broken by a flop
``floating-net``          warning   net driven but never consumed
``fanout-mismatch``       warning   ``.isc`` declared fanout differs
                                    from the actual consumer count
``constant-net``          warning   net structurally tied to 0/1 by
                                    constant propagation
``constant-output``       warning   primary output tied to 0/1
``unreachable-gate``      warning   no primary input in the gate's
                                    transitive fanin (uncontrollable)
``unobservable-gate``     warning   no structural path from the gate
                                    to any primary output
========================  ========  ==================================

Error-severity rules mirror what :class:`~repro.circuit.netlist.Circuit`
would reject at build time; warning-severity rules describe netlists
that simulate fine but usually indicate authoring mistakes (for
``constant-net``: a tied net can never carry the opposite value, so a
stuck-at fault at its tied value is untestable).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.collapse import reachability_facts
from repro.analysis.findings import (
    ERROR,
    WARNING,
    Finding,
    FindingList,
    sort_findings,
)
from repro.circuit.netlist import Circuit
from repro.circuit.raw import (
    RawGate,
    RawNetlist,
    raw_from_bench,
    raw_from_circuit,
    raw_from_isc,
)
from repro.logic.gates import (
    GATE_ARITY_EXACT_ONE,
    GATE_ARITY_MIN,
    gate_type_from_name,
)
from repro.logic.values import ONE, UNKNOWN, ZERO

__all__ = [
    "ALL_RULES",
    "lint_netlist",
    "lint_text",
    "lint_path",
    "lint_circuit",
]

#: Every rule id this module can emit, in documentation order.
ALL_RULES: Tuple[str, ...] = (
    "parse-error",
    "unknown-gate-type",
    "bad-arity",
    "duplicate-driver",
    "undriven-net",
    "combinational-loop",
    "floating-net",
    "fanout-mismatch",
    "constant-net",
    "constant-output",
    "unreachable-gate",
    "unobservable-gate",
)

_CONST_OPS = {"CONST0": ZERO, "CONST1": ONE}


# ----------------------------------------------------------------------
# Structural rules
# ----------------------------------------------------------------------
def _check_gate_shapes(raw: RawNetlist, out: FindingList) -> None:
    # The loader's arity table, so the lint rejects exactly what
    # CircuitBuilder.add_gate rejects.
    for gate in raw.gates:
        try:
            gate_type = gate_type_from_name(gate.op)
        except ValueError:
            out.add(
                "unknown-gate-type", ERROR,
                f"gate {gate.output!r} uses unknown operator {gate.op!r}",
                raw.file, gate.line, gate.output,
            )
            continue
        minimum = GATE_ARITY_MIN[gate_type]
        if len(gate.inputs) < minimum:
            out.add(
                "bad-arity", ERROR,
                f"{gate.op} gate {gate.output!r} needs at least {minimum} "
                f"input(s), got {len(gate.inputs)}",
                raw.file, gate.line, gate.output,
            )
        elif gate_type in GATE_ARITY_EXACT_ONE and len(gate.inputs) != 1:
            out.add(
                "bad-arity", ERROR,
                f"{gate.op} gate {gate.output!r} takes exactly one input, "
                f"got {len(gate.inputs)}",
                raw.file, gate.line, gate.output,
            )


def _check_drivers(raw: RawNetlist, out: FindingList) -> None:
    drivers = raw.driver_sites()
    consumers = raw.consumer_sites()
    for net, sites in sorted(drivers.items()):
        if len(sites) > 1:
            positions = ", ".join(
                f"{kind} at line {line}" if line else kind
                for kind, line in sites
            )
            _kind, first_line = sites[1]
            out.add(
                "duplicate-driver", ERROR,
                f"net {net!r} driven {len(sites)} times ({positions})",
                raw.file, first_line, net,
            )
    for net, sites in sorted(consumers.items()):
        if net not in drivers:
            kind, line = sites[0]
            out.add(
                "undriven-net", ERROR,
                f"net {net!r} is consumed (first by a {kind}) but never "
                "driven by an input, gate or flip-flop",
                raw.file, line, net,
            )
    output_names = {name for name, _line in raw.outputs}
    for net, sites in sorted(drivers.items()):
        if net not in consumers and net not in output_names:
            kind, line = sites[0]
            out.add(
                "floating-net", WARNING,
                f"net {net!r} (driven by a {kind}) is never consumed and "
                "is not a primary output",
                raw.file, line, net,
            )


def _check_fanout_declarations(raw: RawNetlist, out: FindingList) -> None:
    if not raw.declared_fanout:
        return
    consumers = raw.consumer_sites()
    output_names = {name for name, _line in raw.outputs}
    for net, (declared, line) in sorted(raw.declared_fanout.items()):
        actual = len(consumers.get(net, []))
        if net in output_names:
            # The zero-fanout convention marks POs; the implicit
            # observation tap is not a declared consumer.
            actual = max(actual - 1, 0)
        if declared != actual:
            out.add(
                "fanout-mismatch", WARNING,
                f"entry {net!r} declares fanout {declared} but has "
                f"{actual} consumer(s)",
                raw.file, line, net,
            )


# ----------------------------------------------------------------------
# Graph rules
# ----------------------------------------------------------------------
def _gate_graph(raw: RawNetlist) -> Tuple[Dict[str, RawGate], Dict[str, List[str]]]:
    """Combinational dependency graph: edges driver-gate -> consumer-gate.

    Nodes are gate-output names; flip-flops break edges (their data pin
    is a frame boundary).  Duplicate gate outputs keep the first gate.
    """
    gate_of: Dict[str, RawGate] = {}
    for gate in raw.gates:
        gate_of.setdefault(gate.output, gate)
    successors: Dict[str, List[str]] = {name: [] for name in gate_of}
    for gate in gate_of.values():
        for net in gate.inputs:
            if net in gate_of:
                successors[net].append(gate.output)
    return gate_of, successors


def _sccs(nodes: Sequence[str], successors: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's algorithm, iteratively (netlists can be deep)."""
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0
    for root in nodes:
        if root in index_of:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recursed = False
            children = successors.get(node, [])
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index_of:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    recursed = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if recursed:
                continue
            if low[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent, _ = work[-1]
                low[parent] = min(low[parent], low[node])
        # root finished
    return sccs


def _check_loops(raw: RawNetlist, out: FindingList) -> None:
    gate_of, successors = _gate_graph(raw)
    self_loops = {
        gate.output for gate in gate_of.values()
        if gate.output in gate.inputs
    }
    for component in _sccs(sorted(gate_of), successors):
        members = sorted(component)
        if len(members) == 1 and members[0] not in self_loops:
            continue
        first = min(members, key=lambda name: gate_of[name].line or 1 << 30)
        shown = ", ".join(members[:6]) + (", ..." if len(members) > 6 else "")
        out.add(
            "combinational-loop", ERROR,
            f"combinational cycle through {len(members)} gate(s) "
            f"not broken by a flip-flop: {shown}",
            raw.file, gate_of[first].line, first,
        )


def _check_reachability(raw: RawNetlist, out: FindingList) -> None:
    """Controllability / observability sweeps over the full graph.

    For controllability, flip-flops pass influence from their data net
    to their output net (across frames); a gate with no primary input
    anywhere in its transitive fanin computes a value no tester can
    ever change.  For observability, a gate none of whose transitive
    fanouts (again through flops) reaches a primary output can never
    affect a response.
    """
    gate_of = {}
    for gate in raw.gates:
        gate_of.setdefault(gate.output, gate)
    # net -> nets it feeds (gates + flop ps hops).  The traversal itself
    # is the shared one from repro.analysis.collapse, so this rule and
    # the fault-collapsing partition agree on what "reachable" means.
    forward: Dict[str, List[str]] = {}
    for gate in gate_of.values():
        for net in gate.inputs:
            forward.setdefault(net, []).append(gate.output)
    for flop in raw.flops:
        forward.setdefault(flop.ns, []).append(flop.ps)

    facts = reachability_facts(
        forward,
        sources=[name for name, _line in raw.inputs],
        sinks=[name for name, _line in raw.outputs],
    )
    controllable = facts.controllable
    observable = facts.observable

    const_outputs = {gate.output for gate in gate_of.values()
                     if gate.op in _CONST_OPS}
    for name in sorted(gate_of):
        gate = gate_of[name]
        if name not in controllable and name not in const_outputs:
            out.add(
                "unreachable-gate", WARNING,
                f"gate {name!r} has no primary input in its transitive "
                "fanin (uncontrollable logic)",
                raw.file, gate.line, name,
            )
        if name not in observable:
            out.add(
                "unobservable-gate", WARNING,
                f"gate {name!r} has no structural path to any primary "
                "output (unobservable logic)",
                raw.file, gate.line, name,
            )


# ----------------------------------------------------------------------
# Constant propagation
# ----------------------------------------------------------------------
def _eval_const(op: str, values: List[int]) -> int:
    """Three-valued evaluation of *op* over constant/unknown inputs."""
    if op in ("AND", "NAND"):
        ctrl, out_ctrl = ZERO, ZERO
    elif op in ("OR", "NOR"):
        ctrl, out_ctrl = ONE, ONE
    elif op in ("XOR", "XNOR"):
        parity = ZERO
        for value in values:
            if value == UNKNOWN:
                return UNKNOWN
            parity ^= value
        return (1 - parity) if op == "XNOR" else parity
    elif op in ("NOT", "INV"):
        value = values[0] if values else UNKNOWN
        return UNKNOWN if value == UNKNOWN else 1 - value
    elif op in ("BUF", "BUFF"):
        return values[0] if values else UNKNOWN
    elif op in _CONST_OPS:
        return _CONST_OPS[op]
    else:
        return UNKNOWN
    result: Optional[int] = None
    saw_x = False
    for value in values:
        if value == ctrl:
            result = out_ctrl
            break
        if value == UNKNOWN:
            saw_x = True
    if result is None:
        result = UNKNOWN if saw_x else 1 - out_ctrl
    if op in ("NAND", "NOR") and result != UNKNOWN:
        result = 1 - result
    return result


def _check_constants(raw: RawNetlist, out: FindingList) -> None:
    """Propagate tied values forward to a fixpoint and report tied nets.

    Sources are ``CONST0``/``CONST1`` gates.  Flip-flops do *not*
    propagate (their initial state is unknown), matching the simulation
    semantics: a constant here is constant in every frame from an
    unknown initial state.
    """
    gate_of: Dict[str, RawGate] = {}
    for gate in raw.gates:
        gate_of.setdefault(gate.output, gate)
    values: Dict[str, int] = {}
    changed = True
    while changed:
        changed = False
        for name, gate in gate_of.items():
            if name in values:
                continue
            ins = [values.get(net, UNKNOWN) for net in gate.inputs]
            result = _eval_const(gate.op, ins)
            if result != UNKNOWN:
                values[name] = result
                changed = True
    output_names = {name for name, _line in raw.outputs}
    for name in sorted(values):
        gate = gate_of[name]
        if gate.op in _CONST_OPS:
            continue  # being constant is the whole point
        out.add(
            "constant-net", WARNING,
            f"net {name!r} is structurally tied to {values[name]} "
            "(constant propagation from tied inputs)",
            raw.file, gate.line, name,
        )
    for name in sorted(output_names & set(values)):
        line = raw.first_line_of(name)
        out.add(
            "constant-output", WARNING,
            f"primary output {name!r} is tied to {values[name]}: it can "
            "never expose a fault effect",
            raw.file, line, name,
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_netlist(
    raw: RawNetlist, rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run every rule (or the *rules* subset) over *raw*.

    Returns the deterministically sorted findings, the problems the
    reader recorded included.
    """
    out = FindingList()
    for problem in raw.problems:
        out.add(problem.rule, ERROR, problem.message, raw.file,
                problem.line, problem.subject)
    _check_gate_shapes(raw, out)
    _check_drivers(raw, out)
    _check_fanout_declarations(raw, out)
    _check_loops(raw, out)
    _check_reachability(raw, out)
    _check_constants(raw, out)
    selected = list(out)
    if rules is not None:
        wanted = set(rules)
        unknown = wanted - set(ALL_RULES)
        if unknown:
            raise ValueError(
                f"unknown lint rule(s): {', '.join(sorted(unknown))}"
            )
        selected = [f for f in selected if f.rule in wanted]
    return sort_findings(selected)


def lint_text(
    text: str,
    name: str,
    fmt: str = "bench",
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint netlist *text* in the given format (``bench`` or ``isc``)."""
    if fmt == "isc":
        raw = raw_from_isc(text, name)
    elif fmt == "bench":
        raw = raw_from_bench(text, name)
    else:
        raise ValueError(f"unknown netlist format {fmt!r}")
    return lint_netlist(raw, rules=rules)


def lint_path(
    path: str, rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint the netlist file at *path* (format from the extension)."""
    fmt = "isc" if os.path.splitext(path)[1].lower() == ".isc" else "bench"
    with open(path) as handle:
        text = handle.read()
    return lint_text(text, path, fmt=fmt, rules=rules)


def lint_circuit(
    circuit: Circuit, rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint an already-built circuit (no source positions)."""
    return lint_netlist(raw_from_circuit(circuit), rules=rules)
