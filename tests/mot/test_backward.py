"""Tests for the backward-implication collector (Sections 3.1-3.2)."""

from repro.circuits.library import fig4, s27
from repro.faults.injection import inject_fault
from repro.faults.model import Fault
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.backward import BackwardCollector, PairInfo, detection_from_info
from repro.mot.conditions import mot_profile
from repro.sim.sequential import simulate_injected, simulate_sequence

from tests.helpers import toggle_circuit


def _collector(circuit, fault, patterns, depth=1, mode="fixpoint"):
    injected = inject_fault(circuit, fault)
    faulty = simulate_injected(injected, patterns, keep_frames=True)
    reference = simulate_sequence(circuit, patterns)
    profile = mot_profile(faulty.states, reference.outputs, faulty.outputs)
    return (
        BackwardCollector(
            injected, faulty, reference.outputs, profile, mode=mode, depth=depth
        ),
        profile,
    )


def test_probe_conflict_fig4():
    """Figure 4 as a probe: Y = 1 at time 0 conflicts under input 0.

    The fault (L1's branch into L3 stuck at 0) leaves the state X at
    time 1 while the fault-free output at time 1 is 1 and the faulty one
    X, so collection probes pair (1, 0)."""
    circuit = fig4()
    l1 = circuit.line_id("L1")
    pin = next(
        p for p in circuit.fanout_pins[l1]
        if p.kind == "gate"
        and circuit.gates[p.index].output == circuit.line_id("L3")
    )
    collector, _profile = _collector(
        circuit, Fault(l1, ZERO, pin), [[0], [1], [0]]
    )
    pair = collector.collect()[(1, 0)]
    assert pair.conf == [False, True]
    assert not pair.detect[0]
    assert (0, 0) in pair.extra[0]


def test_probe_detection_toggle():
    """On the toggle circuit with Z/1, setting Y = 0 at u-1 implies
    Q = 1 at u-1 (backward through the XOR), so the output becomes 1
    against a reference of 0: a detect branch.  The other branch has no
    detection at u-1 (Q = 0 gives output 0 = reference) and records its
    extra value instead."""
    circuit = toggle_circuit()
    collector, _profile = _collector(
        circuit, Fault(circuit.line_id("Z"), ONE), [[1]] * 4
    )
    pair = collector.collect()[(1, 0)]
    assert pair.detect == [True, False]
    assert pair.detect_site[0] == (0, 0)
    assert not pair.conf[1]
    assert pair.extra[1] == [(0, 1)]


def test_probe_detection_both_branches():
    """Observing both polarities (BOTH_BENCH) closes both branches by
    detection at u-1."""
    from tests.helpers import both_circuit

    circuit = both_circuit()
    collector, _profile = _collector(
        circuit, Fault(circuit.line_id("Z"), ONE), [[1]] * 4
    )
    pair = collector.collect()[(1, 0)]
    assert pair.detect == [True, True]
    assert pair.detect_site[0] is not None


def test_collect_includes_time_zero_entries():
    circuit = toggle_circuit()
    collector, _profile = _collector(
        circuit, Fault(circuit.line_id("Z"), ONE), [[1]] * 3
    )
    info = collector.collect()
    assert (0, 0) in info
    pair = info[(0, 0)]
    assert pair.extra[0] == [(0, 0)]
    assert pair.extra[1] == [(0, 1)]
    assert not pair.conf[0] and not pair.detect[0]


def test_detection_from_info_both_branches():
    from tests.helpers import both_circuit

    circuit = both_circuit()
    collector, _profile = _collector(
        circuit, Fault(circuit.line_id("Z"), ONE), [[1]] * 3
    )
    info = collector.collect()
    witness = detection_from_info(info)
    assert witness is not None
    assert info[witness].establishes_detection


def test_detection_from_info_absent_for_single_branch():
    circuit = toggle_circuit()
    collector, _profile = _collector(
        circuit, Fault(circuit.line_id("Z"), ONE), [[1]] * 3
    )
    assert detection_from_info(collector.collect()) is None


def test_pair_info_resolved_alpha():
    pair = PairInfo(2, 1)
    assert not pair.both_branches_closed
    pair.conf[0] = True
    assert not pair.both_branches_closed
    pair.detect[1] = True
    assert pair.both_branches_closed
    assert pair.establishes_detection


def test_collect_skips_specified_variables():
    circuit = s27()
    fault = Fault(circuit.line_id("G8"), ONE)
    injected = inject_fault(circuit, fault)
    patterns = [[1, 0, 1, 1]] * 6
    faulty = simulate_injected(injected, patterns, keep_frames=True)
    reference = simulate_sequence(circuit, patterns)
    profile = mot_profile(faulty.states, reference.outputs, faulty.outputs)
    collector = BackwardCollector(
        injected, faulty, reference.outputs, profile
    )
    info = collector.collect()
    for (u, i) in info:
        assert faulty.states[u][i] == UNKNOWN


def test_extra_counts_include_selected_pair():
    circuit = s27()
    fault = Fault(circuit.line_id("G8"), ONE)
    collector, _profile = _collector(circuit, fault, [[1, 0, 1, 1]] * 6)
    info = collector.collect()
    for pair in info.values():
        for alpha in (0, 1):
            if pair.extra[alpha]:
                assert (pair.i, alpha) in pair.extra[alpha]
                assert pair.n_extra(alpha) == len(pair.extra[alpha])


def test_two_pass_mode_finds_subset():
    circuit = s27()
    fault = Fault(circuit.line_id("G8"), ONE)
    fast, _ = _collector(circuit, fault, [[1, 0, 1, 1]] * 6, mode="two_pass")
    full, _ = _collector(circuit, fault, [[1, 0, 1, 1]] * 6, mode="fixpoint")
    info_fast = fast.collect()
    info_full = full.collect()
    assert set(info_fast) == set(info_full)
    for key, pair_fast in info_fast.items():
        pair_full = info_full[key]
        for alpha in (0, 1):
            # Two-pass extras are a subset of fixpoint extras unless a
            # branch got closed (conflict/detect) by the deeper search.
            if not (
                pair_full.conf[alpha]
                or pair_full.detect[alpha]
                or pair_fast.conf[alpha]
                or pair_fast.detect[alpha]
            ):
                assert set(pair_fast.extra[alpha]) <= set(pair_full.extra[alpha])


def test_depth_two_collects_at_least_as_much():
    circuit = s27()
    fault = Fault(circuit.line_id("G8"), ONE)
    shallow, _ = _collector(circuit, fault, [[1, 0, 1, 1]] * 6, depth=1)
    deep, _ = _collector(circuit, fault, [[1, 0, 1, 1]] * 6, depth=2)
    info_shallow = shallow.collect()
    info_deep = deep.collect()
    closed = lambda info: sum(
        pair.conf[a] or pair.detect[a]
        for pair in info.values()
        for a in (0, 1)
    )
    assert closed(info_deep) >= closed(info_shallow)


#: A gate reads next-state line N2 on two pins.  With Z stuck at 1 the
#: output follows Q1, so every pair is probed; Y1 = N1 = 1 makes the
#: AND's output non-controlled, which forces N2 = 1 on both pins.
TWICE_READ_BENCH = """
INPUT(A)
OUTPUT(O)
Q1 = DFF(N1)
Q2 = DFF(N2)
NA = NOT(A)
Z = AND(A, NA)
N2 = XOR(Q2, A)
N1 = AND(N2, N2)
O = AND(Q1, Z)
"""


def test_extra_lists_each_state_variable_once():
    """``extra`` is a set: a state variable forced through two pins of
    one gate counts once in ``N_extra``."""
    from repro.circuit.bench import parse_bench

    circuit = parse_bench(TWICE_READ_BENCH, "twice_read")
    for mode in ("fixpoint", "two_pass"):
        collector, _profile = _collector(
            circuit, Fault(circuit.line_id("Z"), ONE), [[1]] * 4, mode=mode
        )
        pair = collector.collect()[(1, 0)]
        assert pair.extra[1] == [(0, 1), (1, 1)], mode
        assert pair.n_extra(1) == 2, mode
