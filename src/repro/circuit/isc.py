"""Parser for the original ISCAS ``.isc`` netlist format.

The ISCAS-85/89 circuits were first distributed in a line-addressed
format in which every signal -- including each fanout branch -- has its
own numbered entry::

    *> comment
    1   G0    inpt  1  0          >sa1
    8   G14   not   2  1          >sa0 >sa1
    1
    9   G14a  from  G14           >sa1
    ...
    12  G7    dff   1  1
    11

* ``inpt`` declares a primary input (no fanins);
* gate types (``and``, ``nand``, ``or``, ``nor``, ``xor``, ``xnor``,
  ``not``, ``buf``) are followed by a line listing their fanin
  *addresses*;
* ``from <name>`` declares a fanout branch of a stem -- materialized
  here as a BUFF gate, matching how the paper's figures number branch
  lines (e.g. s27's lines 21-23 for the branches of line 24);
* ``dff`` declares a D flip-flop (the entry is the present state, the
  single fanin the next state);
* entries with a fanout count of 0 are primary outputs (ISCAS
  convention);
* ``>sa0`` / ``>sa1`` annotations name the faults of the distributed
  fault list; they are returned as :class:`~repro.faults.model.Fault`
  objects (stem faults -- branches are explicit lines here).

The text is read by :func:`repro.circuit.raw.raw_from_isc`, the same
lenient reader ``repro lint`` uses; :func:`parse_isc` then builds the
circuit and raises the first defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.circuit.netlist import Circuit, CircuitError
from repro.circuit.raw import raw_from_isc
from repro.faults.model import Fault


@dataclass
class IscCircuit:
    """A parsed ``.isc`` netlist plus its annotated fault list."""

    circuit: Circuit
    faults: List[Fault]


def parse_isc(text: str, name: str = "isc") -> IscCircuit:
    """Parse ``.isc`` *text* into a circuit and its fault list.

    Diagnostics carry *name* (conventionally the file path) and the
    offending line number; duplicate entry addresses/names and dangling
    fanin references are rejected here with a precise message instead
    of surfacing as a later structural error or ``KeyError``.
    """
    raw = raw_from_isc(text, name)
    circuit = raw.build(
        duplicate="duplicate entry {net!r} (first defined at line {first})",
        unresolved="{user}: fanin reference {net!r} does not match any entry",
    )
    faults = [
        Fault(circuit.line_id(entry), value, None)
        for entry, value in raw.annotated_faults
    ]
    return IscCircuit(circuit=circuit, faults=faults)


def load_isc(path: str, name: str = "") -> IscCircuit:
    """Parse a ``.isc`` file from *path*."""
    with open(path) as handle:
        text = handle.read()
    return parse_isc(text, name or path)


_TYPE_NAMES = {
    "AND": "and",
    "NAND": "nand",
    "OR": "or",
    "NOR": "nor",
    "XOR": "xor",
    "XNOR": "xnor",
    "NOT": "not",
    "BUF": "buf",
}


def write_isc(circuit: Circuit) -> str:
    """Render *circuit* in ``.isc`` style.

    Lines are addressed 1..N in (inputs, flip-flops, gates) order; fanout
    branches are *not* materialized (modern netlists reference stems
    directly, which the parser accepts).  Constant gates (fault-injection
    artifacts) are not representable and raise.

    Every primary output is emitted as an explicit zero-fanout
    observation buffer (``<name>_po``), so outputs that are duplicated
    or also consumed internally survive the fanout-0 PO convention and
    port order is preserved exactly.

    Round-trips through :func:`parse_isc` to a frame-equivalent circuit
    (property-tested in ``tests/circuit/test_isc_roundtrip.py``); the
    reparsed netlist has one extra BUF per primary output.
    """
    address = {}
    next_address = 1

    def assign(line: int) -> None:
        nonlocal next_address
        address[line] = str(next_address)
        next_address += 1

    for line in circuit.inputs:
        assign(line)
    for flop in circuit.flops:
        assign(flop.ps)
    for gate in circuit.gates:
        assign(gate.output)

    rows: List[str] = [f"*> {circuit.name} (.isc export)"]

    def fanout(line: int) -> int:
        # Internal entries never carry fanout 0 (that would mark them as
        # primary outputs); observation buffers appended below are the
        # only zero-fanout entries.
        return max(len(circuit.fanout_pins[line]), 1)

    for line in circuit.inputs:
        rows.append(
            f"{address[line]:>4} {circuit.line_names[line]:12s} inpt "
            f"{fanout(line)} 0"
        )
    for flop in circuit.flops:
        rows.append(
            f"{address[flop.ps]:>4} {circuit.line_names[flop.ps]:12s} dff "
            f"{fanout(flop.ps)} 1"
        )
        rows.append(address[flop.ns])
    for gate in circuit.gates:
        type_name = _TYPE_NAMES.get(gate.gate_type.value)
        if type_name is None:
            raise CircuitError(
                f"gate type {gate.gate_type.value} not representable in .isc"
            )
        rows.append(
            f"{address[gate.output]:>4} "
            f"{circuit.line_names[gate.output]:12s} {type_name} "
            f"{fanout(gate.output)} {len(gate.inputs)}"
        )
        rows.append(" ".join(address[line] for line in gate.inputs))
    used_names = set(circuit.line_names)
    for position, line in enumerate(circuit.outputs):
        po_name = f"{circuit.line_names[line]}_po"
        while po_name in used_names:
            po_name += "_"
        used_names.add(po_name)
        rows.append(f"{next_address:>4} {po_name:12s} buf 0 1")
        rows.append(address[line])
        next_address += 1
    return "\n".join(rows) + "\n"


def save_isc(circuit: Circuit, path: str) -> None:
    """Write *circuit* to *path* in ``.isc`` format."""
    with open(path, "w") as handle:
        handle.write(write_isc(circuit))
