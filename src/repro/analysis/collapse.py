"""Structural fault collapsing over the compiled circuit IR.

This module is the static half of the pre-campaign analysis pipeline:
it partitions the uncollapsed stuck-at universe of a circuit into
**equivalence classes** (:class:`FaultClass`), computes the circuit's
**fanout-free regions** and **reachability facts** in the same pass,
and derives the advisory **dominance graph** between classes.  All of
it is read off the levelized :class:`~repro.sim.ir.CircuitIR` arrays
(CSR fanin table, opcode/output vectors), so the analysis shares the
exact structure the bit-parallel kernel simulates.

Equivalence (gate-local rules, chained by union-find):

* AND:  any input s-a-0  ==  output s-a-0
* NAND: any input s-a-0  ==  output s-a-1
* OR:   any input s-a-1  ==  output s-a-1
* NOR:  any input s-a-1  ==  output s-a-0
* NOT:  input s-a-v      ==  output s-a-(not v)
* BUF:  input s-a-v      ==  output s-a-v

Single-input AND/OR/XOR behave as buffers and single-input
NAND/NOR/XNOR as inverters.  Faults are never merged across flip-flops
(their detection *times* differ, which matters to a sequential fault
simulator) and XOR/XNOR inputs are not equivalent to the output.  Two
equivalent faults produce the *same faulty function on every line* --
the merged gate output is forced by a controlling value in two- and
three-valued logic alike -- so equivalence classes may legally share a
campaign verdict (this is what lets :mod:`repro.runner.campaign`
simulate one representative per class and expand).

Dominance (``A`` dominates ``B`` when every test detecting ``A``
detects ``B``, so ``B`` can be dropped from a test-generation target
list) is **not** verdict-preserving: a dominated fault may be detected
by tests that miss its dominator and the two faults carry different
verdicts.  The dominance graph computed here is therefore *advisory* --
rendered by ``repro analyze`` as an upper bound on test-generation
targets -- and is never used to expand verdicts.  For sequential
circuits it is doubly advisory: the gate-local relations only hold for
combinational propagation, and two fault effects may race through
different state paths.

The representative choice and class order reproduce the legacy
:func:`repro.faults.collapse.collapse_faults` list exactly (stems are
preferred as representatives; classes appear in the order the universe
first touches them), so existing campaigns, journals and CSV diffs are
unchanged byte for byte.

The module also hosts the **shared reachability traversal**
(:func:`reach_closure` / :func:`reachability_facts`) used both here and
by the netlist linter's controllability/observability sweeps, so the
two analyses cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.circuit.netlist import Circuit, Pin
from repro.faults.model import Fault
from repro.faults.sites import all_faults
from repro.logic.values import ONE, ZERO
from repro.obs.metrics import get_metrics
from repro.sim.ir import (
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    CircuitIR,
    compile_circuit,
)

__all__ = [
    "FaultClass",
    "DominanceEdge",
    "CollapsePartition",
    "ReachabilityFacts",
    "fault_classes",
    "reach_closure",
    "reverse_edges",
    "reachability_facts",
]

_PARTITION_ATTR = "_repro_fault_partition"

_NodeT = TypeVar("_NodeT", bound=Hashable)

#: opcode -> (controlling input value, forced output value) for the
#: multi-input equivalence rules.
_EQUIV_RULES: Dict[int, Tuple[int, int]] = {
    OP_AND: (ZERO, ZERO),
    OP_NAND: (ZERO, ONE),
    OP_OR: (ONE, ONE),
    OP_NOR: (ONE, ZERO),
}

#: opcode -> (dominated output stuck value, dominating input value).
_DOMINANCE_RULES: Dict[int, Tuple[int, int]] = {
    OP_AND: (ONE, ONE),
    OP_NAND: (ZERO, ONE),
    OP_OR: (ZERO, ZERO),
    OP_NOR: (ONE, ZERO),
}


# ----------------------------------------------------------------------
# Shared reachability traversal (also used by the netlist linter)
# ----------------------------------------------------------------------
def reach_closure(
    seeds: Iterable[_NodeT], edges: Mapping[_NodeT, Sequence[_NodeT]]
) -> Set[_NodeT]:
    """Transitive closure of *seeds* under the *edges* adjacency map."""
    seen: Set[_NodeT] = set(seeds)
    frontier: List[_NodeT] = list(seen)
    while frontier:
        node = frontier.pop()
        for nxt in edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def reverse_edges(
    forward: Mapping[_NodeT, Sequence[_NodeT]]
) -> Dict[_NodeT, List[_NodeT]]:
    """Invert an adjacency map (edge ``a -> b`` becomes ``b -> a``)."""
    backward: Dict[_NodeT, List[_NodeT]] = {}
    for node, nexts in forward.items():
        for nxt in nexts:
            backward.setdefault(nxt, []).append(node)
    return backward


@dataclass(frozen=True)
class ReachabilityFacts(Generic[_NodeT]):
    """Controllability / observability closures of one signal graph.

    ``controllable`` holds every node with a source (primary input) in
    its transitive fanin; ``observable`` every node with a structural
    path to some sink (primary output).  Both closures follow the same
    edge map -- one traversal forward from the sources, one backward
    from the sinks -- so the linter and the collapse analysis report
    identical facts.
    """

    controllable: FrozenSet[_NodeT]
    observable: FrozenSet[_NodeT]


def reachability_facts(
    forward: Mapping[_NodeT, Sequence[_NodeT]],
    sources: Iterable[_NodeT],
    sinks: Iterable[_NodeT],
) -> ReachabilityFacts[_NodeT]:
    """Compute both closures of one graph with one shared traversal."""
    controllable = reach_closure(sources, forward)
    observable = reach_closure(sinks, reverse_edges(forward))
    return ReachabilityFacts(
        controllable=frozenset(controllable),
        observable=frozenset(observable),
    )


# ----------------------------------------------------------------------
# Partition data model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultClass:
    """One equivalence class of the stuck-at universe.

    ``members`` lists every universe fault of the class in universe
    enumeration order; ``representative`` is the fault the campaign
    simulates for the whole class (a member, stem-preferred).
    """

    index: int
    representative: Fault
    members: Tuple[Fault, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class DominanceEdge:
    """Class *dominator* dominates class *dominated* (both indices).

    Every test detecting the dominator class's faults also detects the
    dominated class's, so the dominated class could be dropped from a
    test-generation target list.  Advisory only: verdicts are **not**
    shared along dominance edges.
    """

    dominator: int
    dominated: int


class CollapsePartition:
    """Fault-equivalence partition + structural facts of one circuit.

    Built once per circuit by :func:`fault_classes` (cached on the
    circuit object like the compiled IR).  Everything exposed here is
    deterministic: class order, member order, representative choice,
    fanout-free-region heads and dominance edges depend only on the
    circuit structure.  The partition keeps the circuit's name, not the
    circuit: a back-reference would make a reference cycle through the
    cache, and a dropped circuit would then wait for the cyclic garbage
    collector instead of being freed at once.
    """

    def __init__(
        self,
        circuit_name: str,
        ir: CircuitIR,
        universe: Tuple[Fault, ...],
        classes: Tuple[FaultClass, ...],
        class_index_of: Dict[Fault, int],
        ffr_head: Tuple[int, ...],
        facts: ReachabilityFacts[int],
        dominance: Tuple[DominanceEdge, ...],
    ) -> None:
        self.circuit_name = circuit_name
        self.ir = ir
        self.universe = universe
        self.classes = classes
        self.ffr_head = ffr_head
        self.facts = facts
        self.dominance = dominance
        self._class_index_of = class_index_of

    # -- classes -------------------------------------------------------
    @property
    def universe_size(self) -> int:
        return len(self.universe)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def reduction_percent(self) -> float:
        """How much of the universe the representatives prune away."""
        if not self.universe:
            return 0.0
        return 100.0 * (1.0 - self.num_classes / len(self.universe))

    def representatives(self) -> List[Fault]:
        """The collapsed fault list, in legacy ``collapse_faults`` order."""
        return [cls.representative for cls in self.classes]

    def class_of(self, fault: Fault) -> FaultClass:
        """The class containing *fault* (any universe fault)."""
        try:
            return self.classes[self._class_index_of[fault]]
        except KeyError:
            raise KeyError(
                f"fault {fault!r} is not in the stuck-at universe of "
                f"circuit {self.circuit_name!r}"
            ) from None

    # -- fanout-free regions -------------------------------------------
    @property
    def num_ffrs(self) -> int:
        """Number of distinct fanout-free regions (by head line)."""
        return len(set(self.ffr_head))

    def ffr_members(self) -> Dict[int, List[int]]:
        """Head line -> lines of its fanout-free region (sorted)."""
        regions: Dict[int, List[int]] = {}
        for line, head in enumerate(self.ffr_head):
            regions.setdefault(head, []).append(line)
        return regions

    # -- dominance -----------------------------------------------------
    def dominated_classes(self) -> FrozenSet[int]:
        """Class indices some other class dominates (droppable targets)."""
        return frozenset(edge.dominated for edge in self.dominance)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CollapsePartition({self.circuit_name!r}: "
            f"{self.universe_size} faults -> {self.num_classes} classes, "
            f"{self.num_ffrs} FFRs, {len(self.dominance)} dominance edges)"
        )


# ----------------------------------------------------------------------
# Union-find (legacy-compatible representative selection)
# ----------------------------------------------------------------------
class _UnionFind:
    """Union-find over universe indices, preferring stem-fault roots.

    The union bias reproduces the legacy collapser exactly: when one
    root is a stem fault and the other is not, the stem wins; otherwise
    the *second* operand's root absorbs the first.  Keeping this
    tie-break (not first-in-universe order) keeps every existing
    collapsed fault list byte-identical.
    """

    def __init__(self, universe: Sequence[Fault]) -> None:
        self._parent = list(range(len(universe)))
        self._is_stem = [fault.is_stem for fault in universe]

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        if self._is_stem[root_a] and not self._is_stem[root_b]:
            self._parent[root_b] = root_a
        else:
            self._parent[root_a] = root_b


# ----------------------------------------------------------------------
# IR-derived structure
# ----------------------------------------------------------------------
def _fanout_counts(ir: CircuitIR) -> List[int]:
    """Consumer count per line, read off the IR (gate pins + flop data
    pins + primary-output taps) -- matches ``Circuit.fanout_pins``."""
    counts = [0] * ir.num_lines
    for line in ir.fanin_lines:
        counts[line] += 1
    for line in ir.ns_lines:
        counts[line] += 1
    for line in ir.outputs:
        counts[line] += 1
    return counts


def _line_edges(ir: CircuitIR) -> Dict[int, List[int]]:
    """Forward signal-flow edges over line ids (flops hop ns -> ps)."""
    forward: Dict[int, List[int]] = {}
    for slot in range(ir.num_gates):
        out = ir.outs[slot]
        start, end = ir.fanin_offsets[slot], ir.fanin_offsets[slot + 1]
        for index in range(start, end):
            forward.setdefault(ir.fanin_lines[index], []).append(out)
    for ns, ps in zip(ir.ns_lines, ir.ps_lines):
        forward.setdefault(ns, []).append(ps)
    return forward


def _ffr_heads(ir: CircuitIR, fanout_counts: Sequence[int]) -> Tuple[int, ...]:
    """Fanout-free-region head per line.

    A line with exactly one consumer, and that consumer a gate pin,
    belongs to the region of the consuming gate's output; every other
    line (fanout stems, flop data nets, primary outputs, dead ends)
    heads its own region.  Slots are walked deepest-first so a head is
    final before any of its fanins reads it.
    """
    sole_gate_consumer = [-1] * ir.num_lines
    seen_gate_pins = [0] * ir.num_lines
    for slot in range(ir.num_gates):
        start, end = ir.fanin_offsets[slot], ir.fanin_offsets[slot + 1]
        for index in range(start, end):
            line = ir.fanin_lines[index]
            seen_gate_pins[line] += 1
            sole_gate_consumer[line] = slot
    heads = list(range(ir.num_lines))
    for slot in range(ir.num_gates - 1, -1, -1):
        out_head = heads[ir.outs[slot]]
        start, end = ir.fanin_offsets[slot], ir.fanin_offsets[slot + 1]
        for index in range(start, end):
            line = ir.fanin_lines[index]
            if (
                fanout_counts[line] == 1
                and seen_gate_pins[line] == 1
                and sole_gate_consumer[line] == slot
            ):
                heads[line] = out_head
    return tuple(heads)


def _slot_fanins(ir: CircuitIR, slot: int) -> Tuple[int, ...]:
    start, end = ir.fanin_offsets[slot], ir.fanin_offsets[slot + 1]
    return ir.fanin_lines[start:end]


def _input_fault(
    ir: CircuitIR,
    fanout_counts: Sequence[int],
    gate_index: int,
    fanins: Sequence[int],
    pos: int,
    value: int,
) -> Fault:
    """The fault on gate input *pos*: a branch fault on fanout stems,
    otherwise the stem fault of the feeding line."""
    line = fanins[pos]
    if fanout_counts[line] >= 2:
        return Fault(line, value, Pin("gate", gate_index, pos))
    return Fault(line, value, None)


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------
def _compute_partition(circuit: Circuit) -> CollapsePartition:
    ir = compile_circuit(circuit)
    universe = tuple(all_faults(circuit))
    index_of: Dict[Fault, int] = {
        fault: index for index, fault in enumerate(universe)
    }
    counts = _fanout_counts(ir)
    uf = _UnionFind(universe)

    # Gate-local equivalence rules, applied in original gate order so
    # the union sequence (and hence the stem-preferred roots) matches
    # the legacy collapser.  All structure is read from the IR arrays.
    for gate_index in range(len(ir.slot_of_gate)):
        slot = ir.slot_of_gate[gate_index]
        op = ir.ops[slot]
        if op in (OP_CONST0, OP_CONST1):
            continue
        fanins = _slot_fanins(ir, slot)
        arity = len(fanins)
        out = ir.outs[slot]
        out_sa0 = index_of[Fault(out, ZERO, None)]
        out_sa1 = index_of[Fault(out, ONE, None)]

        def in_fault(pos: int, value: int) -> int:
            return index_of[
                _input_fault(ir, counts, gate_index, fanins, pos, value)
            ]

        buffer_like = op == OP_BUF or (
            arity == 1 and op in (OP_AND, OP_OR, OP_XOR)
        )
        inverter_like = op == OP_NOT or (
            arity == 1 and op in (OP_NAND, OP_NOR, OP_XNOR)
        )
        if buffer_like:
            uf.union(in_fault(0, ZERO), out_sa0)
            uf.union(in_fault(0, ONE), out_sa1)
            continue
        if inverter_like:
            uf.union(in_fault(0, ZERO), out_sa1)
            uf.union(in_fault(0, ONE), out_sa0)
            continue
        rule = _EQUIV_RULES.get(op)
        if rule is None:
            continue  # XOR/XNOR with 2+ inputs: no equivalences
        controlling, forced = rule
        out_class = out_sa1 if forced == ONE else out_sa0
        for pos in range(arity):
            uf.union(in_fault(pos, controlling), out_class)

    # Classes in first-member order; members in universe order.
    members_of_root: Dict[int, List[Fault]] = {}
    root_order: List[int] = []
    for index, fault in enumerate(universe):
        root = uf.find(index)
        if root not in members_of_root:
            members_of_root[root] = []
            root_order.append(root)
        members_of_root[root].append(fault)
    classes: List[FaultClass] = []
    class_index_of: Dict[Fault, int] = {}
    for class_index, root in enumerate(root_order):
        members = tuple(members_of_root[root])
        cls = FaultClass(
            index=class_index,
            representative=universe[root],
            members=members,
        )
        classes.append(cls)
        for member in members:
            class_index_of[member] = class_index

    ffr_head = _ffr_heads(ir, counts)
    facts = reachability_facts(
        _line_edges(ir), ir.inputs, ir.outputs
    )

    # Advisory dominance graph between classes (see module docstring).
    edges: Set[Tuple[int, int]] = set()
    for gate_index in range(len(ir.slot_of_gate)):
        slot = ir.slot_of_gate[gate_index]
        rule = _DOMINANCE_RULES.get(ir.ops[slot])
        fanins = _slot_fanins(ir, slot)
        if rule is None or len(fanins) < 2:
            continue
        output_value, input_value = rule
        dominated = class_index_of[Fault(ir.outs[slot], output_value, None)]
        for pos in range(len(fanins)):
            dominator = class_index_of[
                _input_fault(ir, counts, gate_index, fanins, pos, input_value)
            ]
            if dominator != dominated:
                edges.add((dominator, dominated))
    dominance = tuple(
        DominanceEdge(dominator=a, dominated=b)
        for a, b in sorted(edges, key=lambda e: (e[1], e[0]))
    )

    return CollapsePartition(
        circuit_name=circuit.name,
        ir=ir,
        universe=universe,
        classes=tuple(classes),
        class_index_of=class_index_of,
        ffr_head=ffr_head,
        facts=facts,
        dominance=dominance,
    )


def fault_classes(circuit: Circuit) -> CollapsePartition:
    """The :class:`CollapsePartition` of *circuit* (cached per circuit).

    Like :func:`repro.sim.ir.compile_circuit`, the cache key is the
    circuit object itself: circuits are immutable after build, so one
    analysis serves every consumer for the object's lifetime.
    """
    cached: Optional[CollapsePartition] = getattr(
        circuit, _PARTITION_ATTR, None
    )
    if cached is not None:
        return cached
    get_metrics().counter("analysis.collapse.compute")
    partition = _compute_partition(circuit)
    setattr(circuit, _PARTITION_ATTR, partition)
    return partition
