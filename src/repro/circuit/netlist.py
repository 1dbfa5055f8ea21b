"""Gate-level netlist model for synchronous sequential circuits.

A :class:`Circuit` is the static structure shared by every simulator:

* **lines** -- named signals, identified by dense integer ids;
* **primary inputs / outputs** -- line ids driven / observed externally;
* **flip-flops** -- D flip-flops, each pairing a *present-state* line
  (the FF output, written ``y_i`` in the paper) with a *next-state* line
  (the FF data input, written ``Y_i``);
* **gates** -- combinational primitives from :class:`repro.logic.GateType`.

The model matches ISCAS-89 ``.bench`` semantics: one clock, D flip-flops
with no set/reset (hence the unknown initial state that motivates the
multiple observation time approach), combinational logic between state
elements.

Construction goes through :class:`CircuitBuilder`, which maps names to ids
and checks structural sanity; :class:`Circuit` instances are immutable in
practice (nothing mutates them after :meth:`CircuitBuilder.build`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CircuitError
from repro.logic.gates import GATE_ARITY_EXACT_ONE, GATE_ARITY_MIN, GateType

__all__ = [
    "CircuitError",  # re-exported from repro.errors (the taxonomy root)
    "Gate",
    "Flop",
    "Pin",
    "Circuit",
    "CircuitBuilder",
]


@dataclass(frozen=True)
class Gate:
    """A combinational gate: ``output = gate_type(*inputs)``."""

    gate_type: GateType
    output: int
    inputs: Tuple[int, ...]


@dataclass(frozen=True)
class Flop:
    """A D flip-flop.

    ``ps`` is the flip-flop output line (present-state variable ``y_i``);
    ``ns`` is the flip-flop data input line (next-state variable ``Y_i``).
    At every clock edge the value on ``ns`` becomes the next value of
    ``ps``.
    """

    ps: int
    ns: int


@dataclass(frozen=True)
class Pin:
    """A consumer of a line: a gate input, a flip-flop data input, or a
    primary-output tap.

    ``kind`` is ``"gate"``, ``"flop"`` or ``"output"``; ``index`` is the
    gate / flop / output position; ``pos`` is the gate input position (0
    for flops and outputs).
    """

    kind: str
    index: int
    pos: int


class Circuit:
    """Immutable gate-level netlist with derived lookup structures.

    Do not construct directly; use :class:`CircuitBuilder` or the parsers
    in :mod:`repro.circuit.bench`.
    """

    def __init__(
        self,
        name: str,
        line_names: List[str],
        inputs: List[int],
        outputs: List[int],
        flops: List[Flop],
        gates: List[Gate],
    ) -> None:
        self.name = name
        self.line_names = line_names
        self.inputs = inputs
        self.outputs = outputs
        self.flops = flops
        self.gates = gates
        self.num_lines = len(line_names)
        self.line_ids: Dict[str, int] = {
            line_name: i for i, line_name in enumerate(line_names)
        }
        if len(self.line_ids) != len(line_names):
            raise CircuitError("duplicate line names")
        self.ps_lines: List[int] = [f.ps for f in flops]
        self.ns_lines: List[int] = [f.ns for f in flops]
        self._check_drivers()
        self.fanout_pins: List[List[Pin]] = self._build_fanout()
        self.topo_gates: List[int] = self._levelize()
        self.level_of_line: List[int] = self._line_levels()

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def _check_drivers(self) -> None:
        """Record the driver of every line and reject double drivers."""
        driver: List[Optional[int]] = [None] * self.num_lines
        source_kind: List[Optional[str]] = [None] * self.num_lines
        for line in self.inputs:
            if source_kind[line] is not None:
                raise CircuitError(
                    f"line {self.line_names[line]!r} driven more than once"
                )
            source_kind[line] = "input"
        for flop_index, flop in enumerate(self.flops):
            if source_kind[flop.ps] is not None:
                raise CircuitError(
                    f"line {self.line_names[flop.ps]!r} driven more than once"
                )
            source_kind[flop.ps] = "flop"
            driver[flop.ps] = flop_index
        for gate_index, gate in enumerate(self.gates):
            if source_kind[gate.output] is not None:
                raise CircuitError(
                    f"line {self.line_names[gate.output]!r} driven more than once"
                )
            source_kind[gate.output] = "gate"
            driver[gate.output] = gate_index
        for line, kind in enumerate(source_kind):
            if kind is None:
                raise CircuitError(f"line {self.line_names[line]!r} is undriven")
        #: index of the driving gate for gate-driven lines, else None
        self.driving_gate: List[Optional[int]] = [
            driver[line] if source_kind[line] == "gate" else None
            for line in range(self.num_lines)
        ]
        #: "input" / "flop" / "gate" per line
        self.source_kind: List[str] = [k for k in source_kind if k is not None]

    def _build_fanout(self) -> List[List[Pin]]:
        fanout: List[List[Pin]] = [[] for _ in range(self.num_lines)]
        for gate_index, gate in enumerate(self.gates):
            for pos, line in enumerate(gate.inputs):
                fanout[line].append(Pin("gate", gate_index, pos))
        for flop_index, flop in enumerate(self.flops):
            fanout[flop.ns].append(Pin("flop", flop_index, 0))
        for out_index, line in enumerate(self.outputs):
            fanout[line].append(Pin("output", out_index, 0))
        return fanout

    def _levelize(self) -> List[int]:
        """Topologically order gates over the combinational core.

        Sources are primary inputs and flip-flop outputs.  A cycle through
        combinational logic (a gate loop not broken by a flip-flop) is an
        error: the frame simulators assume an acyclic core.
        """
        ready = [False] * self.num_lines
        for line in self.inputs:
            ready[line] = True
        for flop in self.flops:
            ready[flop.ps] = True
        remaining_inputs = [0] * len(self.gates)
        waiters: List[List[int]] = [[] for _ in range(self.num_lines)]
        queue: List[int] = []
        for gate_index, gate in enumerate(self.gates):
            missing = 0
            for line in gate.inputs:
                if not ready[line]:
                    missing += 1
                    waiters[line].append(gate_index)
            remaining_inputs[gate_index] = missing
            if missing == 0:
                queue.append(gate_index)
        order: List[int] = []
        head = 0
        while head < len(queue):
            gate_index = queue[head]
            head += 1
            order.append(gate_index)
            out_line = self.gates[gate_index].output
            if not ready[out_line]:
                ready[out_line] = True
                for waiter in waiters[out_line]:
                    remaining_inputs[waiter] -= 1
                    if remaining_inputs[waiter] == 0:
                        queue.append(waiter)
        if len(order) != len(self.gates):
            unplaced = [
                self.line_names[g.output]
                for i, g in enumerate(self.gates)
                if i not in set(order)
            ]
            raise CircuitError(
                f"combinational cycle through gates driving {unplaced[:5]}"
            )
        return order

    def _line_levels(self) -> List[int]:
        """Distance (in gates) of every line from the frame sources."""
        level = [0] * self.num_lines
        for gate_index in self.topo_gates:
            gate = self.gates[gate_index]
            level[gate.output] = 1 + max(
                (level[line] for line in gate.inputs), default=0
            )
        return level

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    @property
    def num_flops(self) -> int:
        return len(self.flops)

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def line_id(self, name: str) -> int:
        """Return the id of the line called *name*."""
        try:
            return self.line_ids[name]
        except KeyError:
            raise CircuitError(f"no line named {name!r}") from None

    def line_name(self, line: int) -> str:
        return self.line_names[line]

    def is_frame_source(self, line: int) -> bool:
        """True for lines with no in-frame driver (PIs and FF outputs)."""
        return self.source_kind[line] in ("input", "flop")

    def depth(self) -> int:
        """Maximum combinational depth (gates) of the frame."""
        return max(self.level_of_line, default=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({self.name!r}: {self.num_inputs} PI, "
            f"{self.num_outputs} PO, {self.num_flops} FF, "
            f"{self.num_gates} gates)"
        )


class CircuitBuilder:
    """Incremental construction of a :class:`Circuit` by line name.

    Lines are created on first mention, so gates may reference signals
    defined later (as ``.bench`` files do).

    Example
    -------
    >>> b = CircuitBuilder("toy")
    >>> b.add_input("a"); b.add_input("b")
    >>> b.add_gate("AND", "y", ["a", "b"])
    >>> b.add_output("y")
    >>> circuit = b.build()
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._line_names: List[str] = []
        self._line_ids: Dict[str, int] = {}
        self._inputs: List[int] = []
        self._outputs: List[int] = []
        self._flops: List[Tuple[int, int]] = []
        self._gates: List[Tuple[GateType, int, Tuple[int, ...]]] = []

    def line(self, name: str) -> int:
        """Return the id of line *name*, creating it if needed."""
        line = self._line_ids.get(name)
        if line is None:
            line = len(self._line_names)
            self._line_ids[name] = line
            self._line_names.append(name)
        return line

    def add_input(self, name: str) -> int:
        line = self.line(name)
        self._inputs.append(line)
        return line

    def add_output(self, name: str) -> int:
        line = self.line(name)
        self._outputs.append(line)
        return line

    def add_flop(self, ps_name: str, ns_name: str) -> None:
        """Add a D flip-flop: present-state *ps_name* = DFF(*ns_name*)."""
        self._flops.append((self.line(ps_name), self.line(ns_name)))

    def add_gate(
        self,
        gate_type: "GateType | str",
        output_name: str,
        input_names: Sequence[str],
    ) -> None:
        if isinstance(gate_type, str):
            from repro.logic.gates import gate_type_from_name

            gate_type = gate_type_from_name(gate_type)
        if len(input_names) < GATE_ARITY_MIN[gate_type]:
            raise CircuitError(
                f"{gate_type.value} gate {output_name!r} needs at least "
                f"{GATE_ARITY_MIN[gate_type]} inputs"
            )
        if gate_type in GATE_ARITY_EXACT_ONE and len(input_names) != 1:
            raise CircuitError(
                f"{gate_type.value} gate {output_name!r} takes exactly one input"
            )
        output = self.line(output_name)
        inputs = tuple(self.line(n) for n in input_names)
        self._gates.append((gate_type, output, inputs))

    def build(self) -> Circuit:
        """Finalize and structurally validate the circuit."""
        return Circuit(
            name=self.name,
            line_names=list(self._line_names),
            inputs=list(self._inputs),
            outputs=list(self._outputs),
            flops=[Flop(ps, ns) for ps, ns in self._flops],
            gates=[Gate(t, o, i) for t, o, i in self._gates],
        )

