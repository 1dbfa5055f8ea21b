"""Tests for Procedure 2 (state expansion)."""

from hypothesis import given, settings, strategies as st

from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.backward import PairInfo
from repro.mot.conditions import MotProfile
from repro.mot.expansion import SequenceSet, StateSequence, expand


def _pair(u, i, extra0, extra1, conf=(False, False), detect=(False, False)):
    pair = PairInfo(u, i)
    pair.extra[0] = extra0
    pair.extra[1] = extra1
    pair.conf = list(conf)
    pair.detect = list(detect)
    return pair


def _states(length, flops):
    return [[UNKNOWN] * flops for _ in range(length + 1)]


def test_state_sequence_assign_and_mark():
    seq = StateSequence(states=_states(3, 2))
    assert seq.assign(1, 0, ONE)
    assert seq.states[1][0] == ONE
    assert seq.marked == {1}
    # Re-assigning the same value is fine and does not re-mark.
    seq.marked.clear()
    assert seq.assign(1, 0, ONE)
    assert seq.marked == set()
    # Opposite value is reported as a clash.
    assert not seq.assign(1, 0, ZERO)


def test_state_sequence_copy_is_deep():
    seq = StateSequence(states=_states(2, 1))
    twin = seq.copy()
    seq.assign(0, 0, ONE)
    assert twin.states[0][0] == UNKNOWN
    assert twin.marked == set()


def test_phase1_applies_closed_branches_without_duplication():
    # conf on alpha=1 -> survivor is 0, extras applied to the base seq.
    info = {
        (1, 0): _pair(1, 0, [(0, 0), (1, 1)], [], conf=(False, True)),
    }
    profile = MotProfile(n_sv=[2, 2, 2], n_out=[2, 1, 0])
    outcome = expand(_states(2, 2), info, profile, n_states=8)
    assert len(outcome.sequences) == 1
    base = outcome.sequences.states(0)
    assert base[1][0] == ZERO
    assert base[1][1] == ONE
    assert outcome.phase1_pairs == [((1, 0), 1)]
    assert not outcome.detected_in_phase1


def test_phase1_mutual_conflict_is_detection():
    info = {
        (1, 0): _pair(1, 0, [(1, ONE)], [], detect=(False, True)),
        (1, 1): _pair(1, 1, [], [(1, ZERO)], conf=(True, False)),
    }
    profile = MotProfile(n_sv=[2, 2, 2], n_out=[2, 1, 0])
    outcome = expand(_states(2, 2), info, profile, n_states=8)
    assert outcome.detected_in_phase1
    assert len(outcome.sequences) == 0


def test_phase2_doubles_until_limit():
    info = {
        (0, 0): _pair(0, 0, [(0, 0)], [(0, 1)]),
        (0, 1): _pair(0, 1, [(1, 0)], [(1, 1)]),
        (1, 0): _pair(1, 0, [(0, 0)], [(0, 1)]),
    }
    profile = MotProfile(n_sv=[2, 2, 2], n_out=[3, 1, 0])
    outcome = expand(_states(2, 2), info, profile, n_states=4)
    assert len(outcome.sequences) == 4
    assert len(outcome.phase2_pairs) == 2
    # Each selected pair splits the set: both values appear among the
    # sequences at the expanded position.
    sequences = outcome.sequences
    for (u, i) in outcome.phase2_pairs:
        values = {sequences.row(k, u)[i] for k in range(len(sequences))}
        assert values == {ZERO, ONE}


def test_phase2_selection_prefers_max_n_out():
    info = {
        (0, 0): _pair(0, 0, [(0, 0)], [(0, 1)]),
        (1, 1): _pair(1, 1, [(1, 0)], [(1, 1)]),
    }
    # Time 0 has more resolvable outputs.
    profile = MotProfile(n_sv=[2, 2, 2], n_out=[5, 1, 0])
    outcome = expand(_states(2, 2), info, profile, n_states=2)
    assert outcome.phase2_pairs == [(0, 0)]


def test_phase2_selection_prefers_min_n_sv_on_tie():
    info = {
        (0, 0): _pair(0, 0, [(0, 0)], [(0, 1)]),
        (1, 1): _pair(1, 1, [(1, 0)], [(1, 1)]),
    }
    profile = MotProfile(n_sv=[4, 2, 2], n_out=[3, 3, 0])
    outcome = expand(_states(2, 2), info, profile, n_states=2)
    assert outcome.phase2_pairs == [(1, 1)]


def test_phase2_selection_prefers_larger_extra_sets():
    rich = _pair(0, 0, [(0, 0), (1, 0)], [(0, 1), (1, 1)])
    poor = _pair(0, 1, [(1, 0)], [(1, 1)])
    info = {(0, 0): rich, (0, 1): poor}
    profile = MotProfile(n_sv=[2, 2], n_out=[3, 0])
    outcome = expand(_states(1, 2), info, profile, n_states=2)
    assert outcome.phase2_pairs == [(0, 0)]


def test_sv_constraint_blocks_overlapping_pairs():
    # Both pairs assign flop 1; after the first expansion the second no
    # longer satisfies the all-unspecified constraint.
    first = _pair(0, 0, [(0, 0), (1, 0)], [(0, 1), (1, 1)])
    second = _pair(0, 1, [(1, 0)], [(1, 1)])
    info = {(0, 0): first, (0, 1): second}
    profile = MotProfile(n_sv=[2, 2], n_out=[3, 0])
    outcome = expand(_states(1, 2), info, profile, n_states=8)
    assert outcome.phase2_pairs == [(0, 0)]
    assert len(outcome.sequences) == 2


def test_no_candidates_stops_early():
    info = {}
    profile = MotProfile(n_sv=[1, 1], n_out=[1, 0])
    outcome = expand(_states(1, 1), info, profile, n_states=16)
    assert len(outcome.sequences) == 1
    assert outcome.phase2_pairs == []


# ----------------------------------------------------------------------
# Phase 2's static order against the four filters of Procedure 2
# ----------------------------------------------------------------------
def _sv(pair):
    return {j for extra in pair.extra for j, _value in extra}


def _four_filter_pairs(info, profile, free, n_states):
    """Steps 4-7 of Procedure 2 as written: each round filters the
    remaining candidates by the four criteria in turn, takes the lowest
    ``(u, i)`` of the survivors, and drops the candidates whose ``sv``
    set meets the choice's at its time unit."""
    candidates = [
        key
        for key in sorted(info)
        if not any(info[key].conf[a] or info[key].detect[a] for a in (0, 1))
        and profile.n_out[key[0]] > 0
        and profile.n_sv[key[0]] > 0
        and _sv(info[key])
        and _sv(info[key]) <= set(free[key[0]])
    ]
    criteria = [
        lambda key: profile.n_out[key[0]],
        lambda key: -profile.n_sv[key[0]],
        lambda key: min(info[key].n_extra(0), info[key].n_extra(1)),
        lambda key: max(info[key].n_extra(0), info[key].n_extra(1)),
    ]
    chosen = []
    width = 1
    while width < n_states and candidates:
        tied = candidates
        for criterion in criteria:
            best = max(criterion(key) for key in tied)
            tied = [key for key in tied if criterion(key) == best]
        pick = min(tied)
        chosen.append(pick)
        candidates = [
            key
            for key in candidates
            if key[0] != pick[0] or _sv(info[key]).isdisjoint(_sv(info[pick]))
        ]
        width *= 2
    return chosen


_EXTRA = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 1)),
    max_size=3,
    unique_by=lambda entry: entry[0],
)


@settings(max_examples=300, deadline=None)
@given(
    n_out=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    n_sv=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    pairs=st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 3)),
        st.tuples(
            _EXTRA,
            _EXTRA,
            st.sampled_from(["open"] * 6 + ["conf0", "detect1", "both"]),
        ),
        min_size=2,
        max_size=12,
    ),
    fixed=st.lists(st.integers(0, 7), min_size=16, max_size=16),
    n_states=st.sampled_from([1, 2, 4, 8, 64]),
)
def test_phase2_static_order_matches_the_four_filters(
    n_out, n_sv, pairs, fixed, n_states
):
    """One sort by ``(-N_out, N_sv, -min N_extra, -max N_extra, (u, i))``
    and a walk that skips blocked pairs choose the pairs that filtering
    the candidates by the four criteria every round does.  Small value
    ranges give ties at every criterion and overlapping ``sv`` sets at
    one time unit; a few base positions are specified, and some pairs
    close a branch."""
    # Mostly X, sometimes a specified base value.
    values = [ZERO, ONE] + [UNKNOWN] * 6
    states = [[values[fixed[4 * u + i]] for i in range(4)] for u in range(4)]
    profile = MotProfile(n_sv=n_sv + [0], n_out=n_out + [0])
    info = {}
    for (u, i), (extra0, extra1, closed) in pairs.items():
        info[(u, i)] = _pair(
            u, i, list(extra0), list(extra1),
            conf=(closed in ("conf0", "both"), False),
            detect=(False, closed in ("detect1", "both")),
        )
    after_phase1 = expand(states, info, profile, n_states=1)
    outcome = expand(states, info, profile, n_states=n_states)
    if after_phase1.detected_in_phase1:
        assert outcome.phase2_pairs == []
        return
    free = {u: after_phase1.sequences.free(u) for u in range(4)}
    assert outcome.phase2_pairs == _four_filter_pairs(
        info, profile, free, n_states
    )
    assert len(outcome.sequences) == 2 ** len(outcome.phase2_pairs)


def test_expansion_marks_time_units():
    info = {(1, 0): _pair(1, 0, [(0, 0)], [(0, 1)])}
    profile = MotProfile(n_sv=[1, 1, 1], n_out=[2, 1, 0])
    outcome = expand(_states(2, 1), info, profile, n_states=2)
    assert len(outcome.sequences) == 2
    for k in range(len(outcome.sequences)):
        assert outcome.sequences.marked(k) == {1}


# ----------------------------------------------------------------------
# The bit-sliced sequence set against a list of sequences
# ----------------------------------------------------------------------
def test_sequence_set_assign_reports_clashes_per_slot():
    base = _states(2, 2)
    base[0][1] = ONE  # specified by the base: same value in every slot
    sequences = SequenceSet(base)
    sequences.double(1, [(0, ZERO)], [(0, ONE)])
    assert len(sequences) == 2
    assert sequences.marked(0) == sequences.marked(1) == {1}
    # Slot 0 holds 0 at (1, 0), slot 1 holds 1: assigning 1 clashes in 0.
    assert sequences.assign(1, 0, ONE, 0b11) == 0b01
    assert sequences.assign(0, 1, ONE, 0b11) == 0
    assert sequences.assign(0, 1, ZERO, 0b10) == 0b10
    assert sequences.marked(0) == {1}
    assert sequences.free(1) == [1]
    assert sequences.free(0) == [0]
    assert sequences.assignments(1) == {(1, 0): ONE}


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["assign", "double", "compact"]),
        st.integers(0, 3),  # time unit
        st.integers(0, 2),  # flop
        st.integers(0, 1),  # value
        st.integers(0, 2**16 - 1),  # slot mask
    ),
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(ops=_OPS, fixed=st.lists(st.integers(0, 2), min_size=12, max_size=12))
def test_sequence_set_matches_a_list_of_sequences(ops, fixed):
    """Assignment, doubling (twin k + width appended after every
    original) and compaction act slot by slot like the list code."""
    values = (ZERO, ONE, UNKNOWN)
    base = [[values[fixed[3 * u + i]] for i in range(3)] for u in range(4)]
    sequences = SequenceSet(base)
    listed = [StateSequence(states=[list(row) for row in base])]
    for op, u, i, value, mask in ops:
        if op == "assign":
            mask &= (1 << len(sequences)) - 1
            clash = sequences.assign(u, i, value, mask)
            for k, seq in enumerate(listed):
                if mask >> k & 1:
                    assert seq.assign(u, i, value) == (not clash >> k & 1)
        elif op == "double" and len(listed) < 16:
            extra0 = [(i, value)]
            extra1 = [((i + 1) % 3, 1 - value), (i, value)]
            sequences.double(u, extra0, extra1)
            twins = []
            for seq in listed:
                twin = seq.copy()
                for flop, val in extra0:
                    seq.assign(u, flop, val)
                for flop, val in extra1:
                    twin.assign(u, flop, val)
                twins.append(twin)
            listed.extend(twins)
        elif op == "compact":
            mask &= (1 << len(sequences)) - 1
            sequences.compact(mask)
            listed = [seq for k, seq in enumerate(listed) if mask >> k & 1]
        assert len(sequences) == len(listed)
        for k, seq in enumerate(listed):
            assert sequences.states(k) == seq.states
            assert sequences.marked(k) == seq.marked
            assert sequences.assignments(k) == {
                (t, j): value
                for t, row in enumerate(seq.states)
                for j, value in enumerate(row)
                if value != UNKNOWN and base[t][j] == UNKNOWN
            }
