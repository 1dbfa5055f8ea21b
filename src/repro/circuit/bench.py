"""ISCAS-89 ``.bench`` format parser and writer.

The ``.bench`` dialect accepted here is the common one:

* ``INPUT(name)`` / ``OUTPUT(name)`` declarations,
* ``name = OP(arg, arg, ...)`` gate definitions with OP one of AND, NAND,
  OR, NOR, XOR, XNOR, NOT (or INV), BUF (or BUFF), DFF,
* ``#`` comments and blank lines.

``name = DFF(d)`` declares a D flip-flop whose output (present state) is
``name`` and whose data input (next state) is ``d``.

The text is read by :func:`repro.circuit.raw.raw_from_bench`, the same
lenient reader ``repro lint`` uses; :func:`parse_bench` then builds the
circuit and raises the first defect.
"""

from __future__ import annotations

from typing import List

from repro.circuit.netlist import Circuit
from repro.circuit.raw import raw_from_bench


def parse_bench(text: str, name: str = "bench") -> Circuit:
    """Parse ``.bench`` *text* into a :class:`Circuit`.

    Every diagnostic carries *name* (conventionally the file path) plus
    the offending line number.  Beyond syntax, the parser rejects
    duplicate definitions (a signal declared ``INPUT`` or defined by a
    gate/DFF twice) and dangling fanin references (a gate input or
    declared ``OUTPUT`` that no line ever defines), so malformed
    netlists fail here with a precise message instead of as a later
    structural error or ``KeyError``.

    Raises
    ------
    CircuitError
        On syntax errors or structural problems (duplicate definitions,
        dangling references, unknown operators, bad arity, cycles), in
        the order of :meth:`repro.circuit.raw.RawNetlist.build`.
    """
    return raw_from_bench(text, name).build(
        duplicate="duplicate definition of {net!r} "
                  "(first defined at line {first})",
        unresolved="reference to {net!r}, which is never defined",
    )


def load_bench(path: str, name: str = "") -> Circuit:
    """Parse a ``.bench`` file from *path*."""
    with open(path) as handle:
        text = handle.read()
    return parse_bench(text, name or path)


def write_bench(circuit: Circuit) -> str:
    """Render *circuit* back to ``.bench`` text.

    The output round-trips through :func:`parse_bench` to an equivalent
    circuit (same lines, gates, flip-flops and port order).
    """
    parts: List[str] = [f"# {circuit.name}"]
    for line in circuit.inputs:
        parts.append(f"INPUT({circuit.line_names[line]})")
    for line in circuit.outputs:
        parts.append(f"OUTPUT({circuit.line_names[line]})")
    parts.append("")
    for flop in circuit.flops:
        parts.append(
            f"{circuit.line_names[flop.ps]} = DFF({circuit.line_names[flop.ns]})"
        )
    for gate in circuit.gates:
        args = ", ".join(circuit.line_names[line] for line in gate.inputs)
        op = "BUFF" if gate.gate_type.value == "BUF" else gate.gate_type.value
        parts.append(f"{circuit.line_names[gate.output]} = {op}({args})")
    return "\n".join(parts) + "\n"


def save_bench(circuit: Circuit, path: str) -> None:
    """Write *circuit* to *path* in ``.bench`` format."""
    with open(path, "w") as handle:
        handle.write(write_bench(circuit))
