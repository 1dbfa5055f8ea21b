"""Detection-hardness scoring for collapsed fault campaigns.

Static, deterministic estimates of how expensive each fault will be to
detect, used to order class representatives **hardest-first** before
dispatch: hard faults go out in the first leases so stragglers surface
early and the lease book's work stealing has cheap tail work left to
rebalance, instead of one slow chunk arriving last.

The estimate is pure SCOAP (:func:`repro.circuit.scoap.compute_scoap`):
a stuck-at-v fault must be *activated* by driving its site to ``not v``
(controllability ``cc(1-v)``) and its effect *propagated* to an output
(observability ``co``), so ``hardness = activation + observation``.
Branch faults use the pin-accurate observability -- the cost through
their specific gate input (output observability + non-controlling side
inputs + 1), through the flip-flop they feed (present-state
observability + 1 latch level), or 0 for a primary-output tap --
rather than the stem's best branch.

Scores are heuristics for *ordering only*: campaign verdicts never
depend on them, so a bad estimate costs wall-clock balance, not
correctness.  Everything here is a pure function of circuit structure,
keeping dispatch order reproducible across runs and hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.circuit.scoap import INFINITY, ScoapMeasures, compute_scoap
from repro.faults.model import Fault
from repro.logic.gates import GateType
from repro.logic.values import ONE, ZERO

__all__ = [
    "FaultScore",
    "score_faults",
    "hardest_first",
    "order_by_hardness",
    "pin_observability",
]


@dataclass(frozen=True)
class FaultScore:
    """Static detection-hardness estimate for one fault.

    ``activation`` and ``observation`` are SCOAP costs (may be
    :data:`~repro.circuit.scoap.INFINITY` for structurally untestable
    faults -- those sort hardest).
    """

    fault: Fault
    activation: float
    observation: float

    @property
    def hardness(self) -> float:
        """Combined cost; higher = harder to detect, ``INFINITY`` when
        either part is."""
        return self.activation + self.observation


def pin_observability(
    circuit: Circuit, scoap: ScoapMeasures, fault: Fault
) -> float:
    """Observability of *fault*'s exact site.

    Stem faults use the line's own (best-branch) SCOAP observability.
    Branch faults pay the cost of their one consumer: the specific gate
    pin (output observability + side-input non-controlling costs + 1),
    the fed flip-flop (present-state observability + 1 latch level), or
    0 for a primary-output tap.
    """
    pin = fault.pin
    if pin is None:
        return scoap.co[fault.line]
    if pin.kind == "output":
        return 0.0
    if pin.kind == "flop":
        ps = circuit.flops[pin.index].ps
        co = scoap.co[ps]
        return INFINITY if co == INFINITY else co + 1.0
    gate = circuit.gates[pin.index]
    out_co = scoap.co[gate.output]
    if out_co == INFINITY:
        return INFINITY
    gate_type = gate.gate_type
    if gate_type in (GateType.AND, GateType.NAND):
        side = sum(
            scoap.cc1[other]
            for k, other in enumerate(gate.inputs)
            if k != pin.pos
        )
    elif gate_type in (GateType.OR, GateType.NOR):
        side = sum(
            scoap.cc0[other]
            for k, other in enumerate(gate.inputs)
            if k != pin.pos
        )
    elif gate_type in (GateType.XOR, GateType.XNOR):
        side = sum(
            min(scoap.cc0[other], scoap.cc1[other])
            for k, other in enumerate(gate.inputs)
            if k != pin.pos
        )
    else:  # NOT / BUF
        side = 0.0
    return out_co + side + 1.0


def score_faults(
    circuit: Circuit,
    faults: Sequence[Fault],
    scoap: Optional[ScoapMeasures] = None,
) -> List[FaultScore]:
    """Score *faults* (any iterable of sites in *circuit*), in order."""
    if scoap is None:
        scoap = compute_scoap(circuit, observe_state=True)
    return [
        FaultScore(
            fault=fault,
            activation=scoap.controllability(
                fault.line, ONE if fault.stuck_at == ZERO else ZERO
            ),
            observation=pin_observability(circuit, scoap, fault),
        )
        for fault in faults
    ]


def order_by_hardness(scores: Sequence[FaultScore]) -> List[int]:
    """Indices of *scores* ordered hardest-first (deterministic).

    Ties (including untestable-vs-untestable, both ``INFINITY``) break
    on the original index, so the order is a pure function of circuit
    structure.
    """
    return sorted(
        range(len(scores)),
        key=lambda index: (-scores[index].hardness, index),
    )


def hardest_first(
    circuit: Circuit,
    faults: Sequence[Fault],
    scoap: Optional[ScoapMeasures] = None,
) -> List[int]:
    """Indices of *faults* ordered hardest-first (deterministic)."""
    return order_by_hardness(score_faults(circuit, faults, scoap=scoap))
