"""Static analysis for netlists and circuits.

Three tools live here:

* the **netlist linter** (:mod:`repro.analysis.netlist_lint`) -- rule-based
  structural checks (combinational loops, floating/undriven nets, fanout
  consistency, constant cones, unreachable/unobservable logic) over the
  lenient raw-netlist form of :mod:`repro.circuit.raw`, which survives
  malformed input, surfaced as ``repro lint``;
* **fault collapsing** (:mod:`repro.analysis.collapse`) -- structural
  equivalence classes, fanout-free regions and an advisory dominance
  graph over the compiled IR, feeding class-collapsed campaigns;
* **testability scoring** (:mod:`repro.analysis.testability`) --
  SCOAP-based detection-hardness estimates that order dispatch
  hardest-first.
"""

from repro.analysis.collapse import (
    CollapsePartition,
    DominanceEdge,
    FaultClass,
    ReachabilityFacts,
    fault_classes,
    reach_closure,
    reachability_facts,
    reverse_edges,
)
from repro.analysis.findings import (
    ERROR,
    SEVERITIES,
    WARNING,
    Finding,
    FindingList,
    sort_findings,
)
from repro.analysis.netlist_lint import (
    ALL_RULES,
    lint_circuit,
    lint_netlist,
    lint_path,
    lint_text,
)
from repro.analysis.testability import (
    FaultScore,
    hardest_first,
    pin_observability,
    score_faults,
)

__all__ = [
    "CollapsePartition",
    "DominanceEdge",
    "FaultClass",
    "ReachabilityFacts",
    "fault_classes",
    "reach_closure",
    "reachability_facts",
    "reverse_edges",
    "FaultScore",
    "hardest_first",
    "pin_observability",
    "score_faults",
    "ERROR",
    "WARNING",
    "SEVERITIES",
    "Finding",
    "FindingList",
    "sort_findings",
    "ALL_RULES",
    "lint_circuit",
    "lint_netlist",
    "lint_path",
    "lint_text",
]
