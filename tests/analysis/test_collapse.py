"""Structural fault collapsing (repro.analysis.collapse)."""

import itertools
import weakref

import pytest

from repro.analysis.collapse import (
    fault_classes,
    reach_closure,
    reachability_facts,
    reverse_edges,
)
from repro.circuit.bench import parse_bench
from repro.circuits.library import s27
from repro.faults.injection import inject_fault
from repro.faults.model import Fault
from repro.faults.sites import all_faults
from repro.logic.values import ONE, ZERO
from repro.sim.sequential import (
    outputs_conflict,
    simulate_injected,
    simulate_sequence,
)

#: Fanout-free AND/NOT chain with hand-computable classes.
CHAIN_BENCH = """
INPUT(A)
INPUT(B)
OUTPUT(O)
Q = DFF(O)
W = AND(A, B)
O = NOT(W)
"""

#: Inverter stem fanning out to two buffers (branch faults appear).
FANOUT_BENCH = """
INPUT(A)
OUTPUT(O1)
OUTPUT(O2)
Q = DFF(O1)
X = NOT(A)
O1 = BUFF(X)
O2 = BUFF(X)
"""


def _names(circuit, faults):
    return {fault.describe(circuit) for fault in faults}


# ----------------------------------------------------------------------
# Generic reachability helpers
# ----------------------------------------------------------------------
def test_reach_closure_follows_edges():
    edges = {"a": ["b"], "b": ["c"], "d": ["e"]}
    assert reach_closure(["a"], edges) == {"a", "b", "c"}
    assert reach_closure(["d"], edges) == {"d", "e"}
    assert reach_closure([], edges) == set()


def test_reverse_edges_inverts_every_edge():
    forward = {"a": ["b", "c"], "b": ["c"]}
    backward = reverse_edges(forward)
    assert set(backward["c"]) == {"a", "b"}
    assert backward["b"] == ["a"]


def test_reachability_facts_controllable_and_observable():
    # a -> b -> c, with orphan o feeding the sink.
    forward = {"a": ["b"], "b": ["c"], "o": ["c"]}
    facts = reachability_facts(forward, sources=["a"], sinks=["c"])
    assert facts.controllable == frozenset({"a", "b", "c"})
    assert facts.observable == frozenset({"a", "b", "c", "o"})


# ----------------------------------------------------------------------
# Partition structure
# ----------------------------------------------------------------------
def test_partition_covers_universe_disjointly():
    circuit = s27()
    partition = fault_classes(circuit)
    universe = all_faults(circuit)
    assert list(partition.universe) == universe
    seen = []
    for cls in partition.classes:
        assert cls.representative in cls.members
        seen.extend(cls.members)
    assert sorted(seen, key=universe.index) == universe
    assert len(seen) == len(set(seen)) == len(universe)


def test_representatives_match_legacy_collapse():
    from repro.faults.collapse import collapse_faults

    circuit = s27()
    assert fault_classes(circuit).representatives() == collapse_faults(circuit)
    assert fault_classes(circuit).num_classes == 32
    assert fault_classes(circuit).universe_size == 52


def test_partition_is_cached_per_circuit():
    circuit = s27()
    assert fault_classes(circuit) is fault_classes(circuit)
    assert fault_classes(circuit) is not fault_classes(s27())


def test_cached_partition_leaves_the_circuit_to_reference_counting(
    gc_disabled,
):
    """The cache points from the circuit to its partition only, so a
    dropped circuit is freed at once, not by a later cyclic collection."""
    circuit = s27()
    partition = fault_classes(circuit)
    alive = weakref.ref(circuit)
    del circuit
    assert alive() is None
    assert partition.circuit_name == "s27"


def test_class_of_every_universe_fault():
    circuit = s27()
    partition = fault_classes(circuit)
    for fault in partition.universe:
        assert fault in partition.class_of(fault).members


def test_class_of_foreign_fault_raises():
    partition = fault_classes(s27())
    with pytest.raises(KeyError, match="not in the stuck-at universe"):
        partition.class_of(Fault(line=9999, stuck_at=ZERO))


# ----------------------------------------------------------------------
# Hand-checked equivalence rules
# ----------------------------------------------------------------------
def test_chain_classes_match_textbook_rules():
    circuit = parse_bench(CHAIN_BENCH, "chain")
    partition = fault_classes(circuit)
    class_names = sorted(
        sorted(_names(circuit, cls.members)) for cls in partition.classes
    )
    # AND: any input s-a-0 == output s-a-0; NOT: W/0 == O/1, W/1 == O/0.
    assert ["A/0", "B/0", "O/1", "W/0"] in class_names
    assert ["O/0", "W/1"] in class_names
    assert ["A/1"] in class_names
    assert ["B/1"] in class_names


def test_fanout_branches_collapse_into_buffer_outputs():
    circuit = parse_bench(FANOUT_BENCH, "fanout")
    partition = fault_classes(circuit)
    by_member = {}
    for cls in partition.classes:
        for name in _names(circuit, cls.members):
            by_member[name] = sorted(_names(circuit, cls.members))
    # The stem fault X/0 stays its own class (fanout blocks merging),
    # while each branch fault joins its buffer's output fault.
    assert "X->O1.0/0" in by_member
    assert by_member["X->O1.0/0"] == ["O1/0", "X->O1.0/0"]
    assert by_member["X->O2.0/0"] == ["O2/0", "X->O2.0/0"]
    assert by_member["X/0"] == ["A/1", "X/0"]  # NOT: A/1 == X/0


def test_stem_preferred_as_representative():
    circuit = parse_bench(FANOUT_BENCH, "fanout")
    partition = fault_classes(circuit)
    for cls in partition.classes:
        if cls.size > 1 and any(f.pin is None for f in cls.members):
            assert cls.representative.pin is None


# ----------------------------------------------------------------------
# Fanout-free regions and dominance
# ----------------------------------------------------------------------
def test_ffr_members_partition_the_lines():
    circuit = s27()
    partition = fault_classes(circuit)
    lines = sorted(
        line for members in partition.ffr_members().values()
        for line in members
    )
    assert lines == list(range(len(partition.ffr_head)))
    assert partition.num_ffrs == len(partition.ffr_members())


def test_dominance_is_advisory_and_well_formed():
    circuit = parse_bench(CHAIN_BENCH, "chain")
    partition = fault_classes(circuit)
    num = partition.num_classes
    for edge in partition.dominance:
        assert 0 <= edge.dominator < num
        assert 0 <= edge.dominated < num
        assert edge.dominator != edge.dominated
    # AND non-controlling rule: A s-a-1 dominates W s-a-1's class.
    a_sa1 = partition.class_of(Fault(line=circuit.line_id("A"), stuck_at=ONE))
    w_sa1 = partition.class_of(Fault(line=circuit.line_id("W"), stuck_at=ONE))
    pairs = {(e.dominator, e.dominated) for e in partition.dominance}
    assert (a_sa1.index, w_sa1.index) in pairs
    assert w_sa1.index in partition.dominated_classes()


def test_dominance_semantics_exhaustive():
    """Brute force on a combinational circuit: on every edge, each test
    that detects a fault of the dominator class also detects every fault
    of the dominated class -- which is what lets the dominated class be
    dropped from a test-generation target list."""
    circuit = parse_bench(
        """
        INPUT(a)
        INPUT(b)
        INPUT(c)
        OUTPUT(y)
        n1 = AND(a, b)
        y = OR(n1, c)
        """,
        "c",
    )
    partition = fault_classes(circuit)

    def detecting_tests(fault):
        tests = set()
        for bits in itertools.product((0, 1), repeat=3):
            reference = simulate_sequence(circuit, [list(bits)])
            response = simulate_injected(
                inject_fault(circuit, fault), [list(bits)]
            )
            if outputs_conflict(reference.outputs, response.outputs):
                tests.add(bits)
        return tests

    def describe(edge):
        return tuple(
            partition.classes[index].representative.describe(circuit)
            for index in (edge.dominator, edge.dominated)
        )

    assert {describe(edge) for edge in partition.dominance} == {
        ("a/1", "y/1"), ("b/1", "y/1"), ("n1/0", "y/0"), ("c/0", "y/0"),
    }
    for edge in partition.dominance:
        dominated_tests = [
            detecting_tests(fault)
            for fault in partition.classes[edge.dominated].members
        ]
        for fault in partition.classes[edge.dominator].members:
            tests = detecting_tests(fault)
            assert tests, fault.describe(circuit)
            for dominated in dominated_tests:
                assert tests <= dominated, describe(edge)


def test_reduction_percent_matches_counts():
    partition = fault_classes(s27())
    expected = 100.0 * (1 - partition.num_classes / partition.universe_size)
    assert partition.reduction_percent == pytest.approx(expected)
