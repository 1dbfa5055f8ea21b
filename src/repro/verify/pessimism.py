"""Quantifying the pessimism of three-valued simulation.

Three-valued simulation is sound but *pessimistic*: it can report ``X``
at positions where every binary completion of the unknown state agrees
(the classic example is reconvergent state fan-out -- ``XOR(q, q)`` is
always 0 but simulates to ``X``).  This precision loss is the exact
phenomenon the paper's machinery attacks: the opaque cells in the
benchmark stand-ins are engineered maximal-pessimism structures, and
backward implications/state expansion recover the lost values.

:func:`measure_pessimism` quantifies it by enumeration: for each
(time, output) position reported ``X``, check whether all initial states
actually produce the same value.

* ``specified``    -- positions three-valued simulation resolves;
* ``pessimistic``  -- reported ``X``, but all initial states agree (the
  recoverable loss);
* ``genuine``      -- reported ``X`` and initial states disagree (true
  unknowns; only the *multiple observation time* view can use these).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuit.netlist import Circuit
from repro.logic.values import UNKNOWN
from repro.sim.sequential import simulate_sequence
from repro.verify.states import response_set


@dataclass
class PessimismReport:
    """Per-position classification of a circuit's output response."""

    circuit: str
    length: int
    specified: int
    pessimistic: int
    genuine: int

    @property
    def total(self) -> int:
        return self.specified + self.pessimistic + self.genuine

    @property
    def pessimism_ratio(self) -> float:
        """Fraction of X positions that are recoverable."""
        unknown = self.pessimistic + self.genuine
        return self.pessimistic / unknown if unknown else 0.0

    def render(self) -> str:
        return (
            f"three-valued pessimism on {self.circuit} "
            f"({self.length} patterns):\n"
            f"  specified positions   : {self.specified}\n"
            f"  pessimistic X         : {self.pessimistic} "
            f"(all initial states agree -- recoverable)\n"
            f"  genuinely unknown X   : {self.genuine} "
            f"(initial states disagree -- MOT territory)\n"
        )


def measure_pessimism(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
) -> PessimismReport:
    """Classify every output position by enumerating initial states.

    Raises
    ------
    ValueError
        If the circuit has more than 25 flip-flops.
    """
    three_valued = simulate_sequence(circuit, patterns)
    responses = response_set(circuit, patterns)
    specified = pessimistic = genuine = 0
    for time in range(len(patterns)):
        for position in range(circuit.num_outputs):
            if three_valued.outputs[time][position] != UNKNOWN:
                specified += 1
                continue
            values = {response[time][position] for response in responses}
            if len(values) == 1:
                pessimistic += 1
            else:
                genuine += 1
    return PessimismReport(
        circuit=circuit.name,
        length=len(patterns),
        specified=specified,
        pessimistic=pessimistic,
        genuine=genuine,
    )
