"""Rendering for ``repro analyze``: class partitions and testability.

Pure formatting over the :class:`repro.analysis.collapse.CollapsePartition`
and :class:`repro.analysis.testability.FaultScore` data -- no printing
(the CLI owns stdout) and no simulation.  Both renderers are pure
functions of their inputs, so two runs over the same circuit produce
byte-identical output; the JSON payload maps SCOAP infinities to the
string ``"inf"`` to stay strict-JSON parseable.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Union

from repro.analysis.collapse import CollapsePartition
from repro.analysis.testability import FaultScore
from repro.circuit.netlist import Circuit
from repro.circuit.scoap import INFINITY

__all__ = ["analysis_payload", "render_analysis_report", "analysis_json"]


def _cost(value: float) -> Union[float, str]:
    """JSON-safe SCOAP cost (``inf`` has no strict-JSON encoding)."""
    return "inf" if value == INFINITY else value


def analysis_payload(
    circuit: Circuit,
    partition: CollapsePartition,
    scores: Sequence[FaultScore],
    order: Sequence[int],
    top: int = 10,
    list_classes: bool = False,
) -> Dict[str, Any]:
    """JSON-ready report of one circuit's pre-campaign analysis.

    *scores* are aligned with ``partition.classes`` (one per
    representative) and *order* is the hardest-first permutation of
    those indices.
    """
    facts = partition.facts
    num_lines = circuit.num_lines
    payload: Dict[str, Any] = {
        "circuit": circuit.name,
        "lines": num_lines,
        "gates": len(circuit.gates),
        "flops": len(circuit.flops),
        "universe_faults": partition.universe_size,
        "classes": partition.num_classes,
        "reduction_percent": round(partition.reduction_percent, 2),
        "fanout_free_regions": partition.num_ffrs,
        "dominance_edges": len(partition.dominance),
        "dominated_classes": len(partition.dominated_classes()),
        "uncontrollable_lines": num_lines - len(facts.controllable),
        "unobservable_lines": num_lines - len(facts.observable),
        "untestable_representatives": sum(
            1 for score in scores if score.hardness == INFINITY
        ),
        "hardest": [
            {
                "fault": scores[index].fault.describe(circuit),
                "class_size": partition.classes[index].size,
                "activation": _cost(scores[index].activation),
                "observation": _cost(scores[index].observation),
                "hardness": _cost(scores[index].hardness),
            }
            for index in list(order)[:top]
        ],
    }
    if list_classes:
        payload["class_list"] = [
            {
                "representative": cls.representative.describe(circuit),
                "members": [
                    member.describe(circuit) for member in cls.members
                ],
            }
            for cls in partition.classes
        ]
    return payload


def render_analysis_report(
    circuit: Circuit,
    partition: CollapsePartition,
    scores: Sequence[FaultScore],
    order: Sequence[int],
    top: int = 10,
    list_classes: bool = False,
) -> str:
    """Human-readable form of :func:`analysis_payload`."""
    payload = analysis_payload(
        circuit, partition, scores, order, top=top,
        list_classes=list_classes,
    )
    lines: List[str] = [
        f"static analysis report: {payload['circuit']}",
        f"  lines / gates / flops  : {payload['lines']} / "
        f"{payload['gates']} / {payload['flops']}",
        f"  stuck-at universe      : {payload['universe_faults']} faults",
        f"  equivalence classes    : {payload['classes']} "
        f"({payload['reduction_percent']:.2f}% pruned)",
        f"  fanout-free regions    : {payload['fanout_free_regions']}",
        f"  dominance edges        : {payload['dominance_edges']} "
        f"(advisory; {payload['dominated_classes']} classes dominated)",
        f"  uncontrollable lines   : {payload['uncontrollable_lines']}",
        f"  unobservable lines     : {payload['unobservable_lines']}",
        f"  untestable class reps  : "
        f"{payload['untestable_representatives']}",
    ]
    if payload["hardest"]:
        lines.append(
            f"  hardest representatives (top {len(payload['hardest'])}, "
            "dispatch order):"
        )
        for entry in payload["hardest"]:
            lines.append(
                f"    {entry['fault']:26s} hardness "
                f"{entry['hardness']:>6} (activation {entry['activation']}"
                f", observation {entry['observation']}"
                f", class size {entry['class_size']})"
            )
    if list_classes:
        lines.append("  equivalence classes:")
        for entry in payload["class_list"]:
            members = ", ".join(entry["members"])
            lines.append(
                f"    {entry['representative']:26s} <- {members}"
            )
    return "\n".join(lines) + "\n"


def analysis_json(payload: Dict[str, Any]) -> str:
    """Canonical JSON rendering (sorted keys, trailing newline)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
