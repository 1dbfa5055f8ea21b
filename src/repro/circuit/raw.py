"""The one reader of ``.bench`` and ``.isc`` netlist text.

:func:`raw_from_bench` and :func:`raw_from_isc` read netlist text into a
:class:`RawNetlist` -- a name-based, unvalidated form that tolerates
duplicate drivers, dangling references, combinational loops and unknown
gate types, and records a source line for every entity.  Lines they
cannot read become :class:`RawProblem` records instead of exceptions.

Both consumers of netlist text start here:

* the loaders (:func:`repro.circuit.bench.parse_bench`,
  :func:`repro.circuit.isc.parse_isc`) replay the netlist into a
  :class:`~repro.circuit.netlist.CircuitBuilder` with
  :meth:`RawNetlist.build`, which raises the first defect as a
  :class:`~repro.circuit.netlist.CircuitError` with its file and line;
* ``repro lint`` (:mod:`repro.analysis.netlist_lint`) reports every
  problem and runs its rules over the whole netlist, so a malformed file
  is fully reported instead of dying on the first defect.

A :class:`RawNetlist` can also be derived from an already-built
:class:`~repro.circuit.netlist.Circuit` (:func:`raw_from_circuit`), so
the same rule set lints registered benchmark circuits; source positions
are then unknown (0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.circuit.netlist import Circuit, CircuitBuilder, CircuitError

__all__ = [
    "RawGate",
    "RawFlop",
    "RawProblem",
    "RawNetlist",
    "raw_from_bench",
    "raw_from_isc",
    "raw_from_circuit",
]

_DECL_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^()\s]+)\s*\)$", re.IGNORECASE)
_GATE_RE = re.compile(r"^([^()=\s]+)\s*=\s*([A-Za-z0-9_]+)\s*\(([^()]*)\)$")


@dataclass(frozen=True)
class RawGate:
    """One combinational gate definition, by net name."""

    output: str
    op: str  # normalized upper-case operator, e.g. "AND"
    inputs: Tuple[str, ...]
    line: int = 0


@dataclass(frozen=True)
class RawFlop:
    """One D flip-flop definition: ``ps = DFF(ns)``."""

    ps: str
    ns: str
    line: int = 0


@dataclass(frozen=True)
class RawProblem:
    """A source line the reader could not take as written.

    ``rule`` is the lint rule that reports it (``"parse-error"`` or
    ``"unknown-gate-type"``); ``subject`` names the entry, when known.
    """

    rule: str
    message: str
    line: int
    subject: str = ""


@dataclass
class RawNetlist:
    """Unvalidated name-based netlist with source positions.

    ``inputs`` / ``outputs`` keep declaration order (with duplicates, if
    the source has them); ``problems`` holds what the reader could not
    take.  The ``.isc`` reader alone fills ``declared_fanout`` (entry
    name -> (declared fanout count, source line)) and
    ``annotated_faults`` (entry name, stuck value) for every
    ``>sa0``/``>sa1`` annotation, in source order.
    """

    name: str
    file: str
    inputs: List[Tuple[str, int]] = field(default_factory=list)
    outputs: List[Tuple[str, int]] = field(default_factory=list)
    flops: List[RawFlop] = field(default_factory=list)
    gates: List[RawGate] = field(default_factory=list)
    problems: List[RawProblem] = field(default_factory=list)
    declared_fanout: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    annotated_faults: List[Tuple[str, int]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def driver_sites(self) -> Dict[str, List[Tuple[str, int]]]:
        """Map net name -> [(driver kind, source line), ...].

        Driver kinds are ``"input"``, ``"flop"`` and ``"gate"``.
        """
        drivers: Dict[str, List[Tuple[str, int]]] = {}
        for name, line in self.inputs:
            drivers.setdefault(name, []).append(("input", line))
        for flop in self.flops:
            drivers.setdefault(flop.ps, []).append(("flop", flop.line))
        for gate in self.gates:
            drivers.setdefault(gate.output, []).append(("gate", gate.line))
        return drivers

    def consumer_sites(self) -> Dict[str, List[Tuple[str, int]]]:
        """Map net name -> [(consumer kind, source line), ...].

        Consumer kinds are ``"gate"``, ``"flop"`` and ``"output"``.
        """
        consumers: Dict[str, List[Tuple[str, int]]] = {}
        for gate in self.gates:
            for net in gate.inputs:
                consumers.setdefault(net, []).append(("gate", gate.line))
        for flop in self.flops:
            consumers.setdefault(flop.ns, []).append(("flop", flop.line))
        for name, line in self.outputs:
            consumers.setdefault(name, []).append(("output", line))
        return consumers

    def first_line_of(self, net: str) -> int:
        """The first source line mentioning *net* (0 when unknown)."""
        best = 0
        for sites in (self.driver_sites().get(net, []),
                      self.consumer_sites().get(net, [])):
            for _kind, line in sites:
                if line and (best == 0 or line < best):
                    best = line
        return best

    def build(self, duplicate: str, unresolved: str) -> Circuit:
        """Replay the netlist into a :class:`CircuitBuilder` in source-line
        order and build the circuit.

        The first defect raises :class:`CircuitError` as ``<file>: line
        <n>: <message>``: reader problems, redefinitions and builder
        rejections (unknown operator, arity) in line order, then the
        first reference to a net nothing defines, then the builder's
        structural checks (combinational cycles) as ``<file>:
        <message>``.  *duplicate* formats a redefinition from ``net``
        and ``first`` (the line of its first definition); *unresolved*
        formats a dangling reference from ``net`` and ``user`` (the
        entry that references it).
        """

        def fail(line: int, message: str) -> CircuitError:
            return CircuitError(f"{self.file}: line {line}: {message}")

        drivers = self.driver_sites()
        problems = [(p.line, p.message) for p in self.problems]
        for net, sites in drivers.items():
            lines = sorted(line for _kind, line in sites)
            problems += [
                (line, duplicate.format(net=net, first=lines[0]))
                for line in lines[1:]
            ]
        problems.sort(key=lambda problem: problem[0])
        builder = CircuitBuilder(self.name)
        steps: List[Tuple[int, Callable[[], object]]] = [
            (line, partial(builder.add_input, name))
            for name, line in self.inputs
        ]
        steps += [(f.line, partial(builder.add_flop, f.ps, f.ns))
                  for f in self.flops]
        steps += [(g.line, partial(builder.add_gate, g.op, g.output, g.inputs))
                  for g in self.gates]
        # An .isc output shares its entry's line and is added after it.
        steps += [(line, partial(builder.add_output, name))
                  for name, line in self.outputs]
        steps.sort(key=lambda step: step[0])
        for line, step in steps:
            if problems and problems[0][0] <= line:
                break
            try:
                step()
            except (ValueError, CircuitError) as exc:
                raise fail(line, str(exc)) from None
        if problems:
            raise fail(*problems[0])
        references = [(g.line, g.output, net) for g in self.gates
                      for net in g.inputs]
        references += [(f.line, f.ps, f.ns) for f in self.flops]
        references += [(line, name, name) for name, line in self.outputs]
        references.sort(key=lambda reference: reference[0])
        for line, user, net in references:
            if net not in drivers:
                raise fail(line, unresolved.format(net=net, user=user))
        try:
            return builder.build()
        except CircuitError as exc:
            raise CircuitError(f"{self.file}: {exc}") from None


# ----------------------------------------------------------------------
# .bench reader
# ----------------------------------------------------------------------
def raw_from_bench(text: str, name: str = "bench") -> RawNetlist:
    """Leniently read ``.bench`` *text* (see :mod:`repro.circuit.bench`).

    Lines that do not match any production are recorded as
    ``parse-error`` problems and skipped; everything recognizable is
    kept, however structurally broken.
    """
    raw = RawNetlist(name=name, file=name)
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        decl = _DECL_RE.match(line)
        if decl:
            keyword, signal = decl.group(1).upper(), decl.group(2)
            if keyword == "INPUT":
                raw.inputs.append((signal, line_number))
            else:
                raw.outputs.append((signal, line_number))
            continue
        gate = _GATE_RE.match(line)
        if gate:
            output, op, args = (
                gate.group(1), gate.group(2).upper(), gate.group(3),
            )
            input_names = tuple(
                a.strip() for a in args.split(",") if a.strip()
            )
            if op != "DFF":
                raw.gates.append(RawGate(output, op, input_names, line_number))
            elif len(input_names) == 1:
                raw.flops.append(RawFlop(output, input_names[0], line_number))
            else:
                raw.problems.append(RawProblem(
                    "parse-error",
                    f"DFF {output!r} takes exactly one input, "
                    f"got {len(input_names)}",
                    line_number, output,
                ))
            continue
        raw.problems.append(RawProblem(
            "parse-error", f"cannot parse {raw_line.strip()!r}", line_number,
        ))
    return raw


# ----------------------------------------------------------------------
# .isc reader
# ----------------------------------------------------------------------
_ISC_GATE_OPS = {
    "and": "AND",
    "nand": "NAND",
    "or": "OR",
    "nor": "NOR",
    "xor": "XOR",
    "xnor": "XNOR",
    "not": "NOT",
    "inv": "NOT",
    "buf": "BUF",
    "buff": "BUF",
}

_SA_RE = re.compile(r">sa([01])")


def raw_from_isc(text: str, name: str = "isc") -> RawNetlist:
    """Leniently read ``.isc`` *text* (see :mod:`repro.circuit.isc`).

    Fanin *addresses* are resolved to entry names where possible;
    unresolved addresses are kept verbatim, so they show up as
    references to nets nothing drives.  A second entry with an address
    already taken is a ``parse-error`` problem.  The declared fanout
    count of every entry is recorded for the fanout-consistency rule.
    """
    raw = RawNetlist(name=name, file=name)

    def problem(message: str, line: int, subject: str = "",
                rule: str = "parse-error") -> None:
        raw.problems.append(RawProblem(rule, message, line, subject))

    rows: List[Tuple[int, List[str]]] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("*"):
            continue
        rows.append((line_number, line.split()))

    # First pass: collect entries (name, kind, fanout, fanins, stuck
    # values) and their addresses.
    entries: List[Tuple[int, str, str, int, List[str], List[int]]] = []
    by_address: Dict[str, Tuple[str, int]] = {}
    index = 0
    while index < len(rows):
        line_number, tokens = rows[index]
        index += 1
        if len(tokens) < 3:
            problem(f"malformed .isc entry: {' '.join(tokens)!r}", line_number)
            continue
        address, entry_name, kind = tokens[0], tokens[1], tokens[2].lower()
        stuck = [int(m) for m in _SA_RE.findall(" ".join(tokens))]
        if kind == "from":
            if len(tokens) < 4:
                problem(f"'from' entry {entry_name!r} needs a stem",
                        line_number, entry_name)
                continue
            fanout, fanins = 1, [tokens[3]]
        elif len(tokens) < 5:
            problem(f"malformed .isc entry: {' '.join(tokens)!r}",
                    line_number, entry_name)
            continue
        else:
            try:
                fanout, fanin = int(tokens[3]), int(tokens[4])
            except ValueError:
                problem("fanout/fanin counts must be integers: "
                        f"{' '.join(tokens)!r}", line_number, entry_name)
                continue
            fanins = []
            if kind != "inpt" and fanin > 0:
                if index < len(rows):
                    fanin_line_number, fanin_tokens = rows[index]
                    fanins = fanin_tokens[:fanin]
                    if len(fanins) != fanin:
                        problem(f"{entry_name!r}: expected {fanin} fanins, "
                                f"got {len(fanins)}",
                                fanin_line_number, entry_name)
                    index += 1
                else:
                    problem(f"missing fanin list for {entry_name!r}",
                            line_number, entry_name)
        first = by_address.setdefault(address, (entry_name, line_number))
        if first[1] != line_number:
            problem(f"duplicate entry {address!r} (first defined at line "
                    f"{first[1]})", line_number, entry_name)
        entries.append((line_number, entry_name, kind, fanout, fanins, stuck))

    def resolve(addr: str) -> str:
        # An address, else an entry name or a dangling reference.
        return by_address[addr][0] if addr in by_address else addr

    for line_number, entry_name, kind, fanout, fanins, stuck in entries:
        raw.declared_fanout[entry_name] = (fanout, line_number)
        raw.annotated_faults += [(entry_name, value) for value in stuck]
        if kind == "inpt":
            raw.inputs.append((entry_name, line_number))
        elif kind == "from":
            raw.gates.append(
                RawGate(entry_name, "BUF", (resolve(fanins[0]),), line_number)
            )
        elif kind == "dff":
            if len(fanins) == 1:
                raw.flops.append(
                    RawFlop(entry_name, resolve(fanins[0]), line_number)
                )
            else:
                problem(f"dff {entry_name!r} needs exactly one fanin",
                        line_number, entry_name)
        elif kind in _ISC_GATE_OPS:
            raw.gates.append(RawGate(
                entry_name, _ISC_GATE_OPS[kind],
                tuple(resolve(a) for a in fanins), line_number,
            ))
        else:
            problem(f"unknown .isc entry type {kind!r} for {entry_name!r}",
                    line_number, entry_name, rule="unknown-gate-type")
        # ISCAS convention: zero-fanout entries are primary outputs.
        if kind != "from" and fanout == 0:
            raw.outputs.append((entry_name, line_number))
    return raw


# ----------------------------------------------------------------------
# Built-circuit front-end
# ----------------------------------------------------------------------
def raw_from_circuit(circuit: Circuit) -> RawNetlist:
    """Derive a :class:`RawNetlist` from a validated circuit.

    Source positions are unknown (0); the structural rules still apply
    (a built circuit can legitimately carry floating nets, constant
    cones or unobservable gates).
    """
    names = circuit.line_names
    raw = RawNetlist(name=circuit.name, file=circuit.name)
    raw.inputs = [(names[line], 0) for line in circuit.inputs]
    raw.outputs = [(names[line], 0) for line in circuit.outputs]
    raw.flops = [RawFlop(names[f.ps], names[f.ns], 0) for f in circuit.flops]
    raw.gates = [
        RawGate(
            names[g.output],
            g.gate_type.value,
            tuple(names[line] for line in g.inputs),
            0,
        )
        for g in circuit.gates
    ]
    return raw
