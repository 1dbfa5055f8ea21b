"""Tests for the [4] baseline simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.generators import random_moore
from repro.circuits.library import s27
from repro.faults.collapse import collapse_faults
from repro.faults.injection import inject_fault
from repro.faults.model import Fault
from repro.faults.sites import all_faults
from repro.logic.values import ONE, UNKNOWN
from repro.mot.baseline import BaselineConfig, BaselineSimulator, trial_gains
from repro.mot.expansion import SequenceSet
from repro.mot.resimulate import SequenceStatus
from repro.patterns.random_gen import random_patterns
from repro.sim.frame import eval_frame
from repro.sim.sequential import simulate_injected

from tests.helpers import s27_faults, s27_patterns, toggle_circuit


def test_toggle_fault_detected_by_expansion():
    circuit = toggle_circuit()
    verdict = BaselineSimulator(circuit, [[1]] * 6).simulate_fault(
        Fault(circuit.line_id("Z"), ONE)
    )
    assert verdict.status == "mot"
    assert verdict.how == "expansion"
    assert verdict.num_expansions >= 1


def test_conventional_short_circuit():
    circuit = s27()
    verdict = BaselineSimulator(
        circuit, s27_patterns(seed=0)
    ).simulate_fault(Fault(circuit.line_id("G17"), 0))
    assert verdict.status == "conv"


def test_condition_c_drop():
    circuit = toggle_circuit()
    verdict = BaselineSimulator(circuit, [[1]] * 4).simulate_fault(
        Fault(circuit.line_id("Z"), 0)
    )
    assert verdict.status == "dropped"


def test_abort_flag_when_limit_hit():
    """With a sequence limit of 2 the toggle fault still resolves (one
    variable suffices), but with limit 1 nothing can be expanded."""
    circuit = toggle_circuit()
    config = BaselineConfig(n_states=1)
    verdict = BaselineSimulator(circuit, [[1]] * 6, config).simulate_fault(
        Fault(circuit.line_id("Z"), ONE)
    )
    assert verdict.status == "undetected"


def test_iterative_schedule_also_detects():
    circuit = toggle_circuit()
    config = BaselineConfig(schedule="iterative")
    verdict = BaselineSimulator(circuit, [[1]] * 6, config).simulate_fault(
        Fault(circuit.line_id("Z"), ONE)
    )
    assert verdict.status == "mot"


def test_unknown_schedule_rejected():
    with pytest.raises(ValueError):
        BaselineSimulator(
            toggle_circuit(), [[1]], BaselineConfig(schedule="magic")
        )


def test_campaign_statuses():
    circuit = s27()
    faults = s27_faults()
    campaign = BaselineSimulator(circuit, s27_patterns(24, seed=1)).run(
        faults
    )
    assert campaign.total == len(faults)
    assert {v.status for v in campaign.verdicts} <= {
        "conv",
        "mot",
        "dropped",
        "undetected",
    }


def test_no_counters_for_baseline():
    """The baseline has no backward implications, so its Table-3 counters
    stay zero -- the paper's point about the N_extra ceiling."""
    circuit = toggle_circuit()
    campaign = BaselineSimulator(circuit, [[1]] * 6).run(
        collapse_faults(circuit)
    )
    for verdict in campaign.verdicts:
        assert verdict.counters.n_det == 0
        assert verdict.counters.n_conf == 0
        assert verdict.counters.n_extra == 0


# ----------------------------------------------------------------------
# Batched trial gains against per-candidate frame evaluations
# ----------------------------------------------------------------------
def _reference_gain(circuit, patterns, base_row, u, flop_index, interesting):
    """The trial gain frame by frame: positions of *interesting* (with
    multiplicity) unspecified in the base frame at *u* (state row
    *base_row*) and specified once ``y_i`` is set, summed over both
    values."""
    base = eval_frame(circuit, patterns[u], base_row)
    gain = 0
    for alpha in (0, 1):
        trial_row = list(base_row)
        trial_row[flop_index] = alpha
        trial = eval_frame(circuit, patterns[u], trial_row)
        gain += sum(
            1
            for line in interesting
            if base[line] == UNKNOWN and trial[line] != UNKNOWN
        )
    return gain


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_batched_trial_gains_match_frame_evaluations(seed, data):
    circuit = random_moore(seed, num_inputs=2, num_flops=4, num_gates=16)
    length = data.draw(st.integers(2, 8))
    patterns = random_patterns(circuit.num_inputs, length, seed=seed)
    faults = all_faults(circuit)
    fault = faults[data.draw(st.integers(0, len(faults) - 1))]
    injected = inject_fault(circuit, fault)
    states = simulate_injected(injected, patterns).states
    # Specify a few extra state values, as earlier expansions would;
    # the gains read one slot, so give the other slot other values.
    sequences = SequenceSet(states)
    for _ in range(data.draw(st.integers(0, 4))):
        sequences.assign(
            data.draw(st.integers(0, length - 1)),
            data.draw(st.integers(0, circuit.num_flops - 1)),
            data.draw(st.integers(0, 1)),
            1,
        )
    if data.draw(st.booleans()):
        u = data.draw(st.integers(0, length - 1))
        i = data.draw(st.integers(0, circuit.num_flops - 1))
        sequences.double(u, [], [(i, data.draw(st.integers(0, 1)))])
    slot = data.draw(st.integers(0, len(sequences) - 1))
    pairs = [
        (u, i)
        for u in range(length)
        for i in range(circuit.num_flops)
        if i not in injected.forced_ps
        and sequences.row(slot, u)[i] == UNKNOWN
    ]
    if not pairs:
        return
    pairs = data.draw(st.permutations(pairs))
    faulty = injected.circuit
    outputs = list(faulty.outputs)
    # The [4] baseline counts PO and NS lines, the reference expansion
    # PO lines only.
    for lines in (outputs + [f.ns for f in faulty.flops], outputs):
        gains = trial_gains(faulty, patterns, sequences, slot, pairs, lines)
        assert gains == [
            _reference_gain(
                faulty, patterns, sequences.row(slot, u), u, i, lines
            )
            for u, i in pairs
        ]


def test_oneshot_resimulation_stops_at_the_first_unresolved_sequence(
    monkeypatch,
):
    """One unresolved sequence settles the one-shot verdict, so the
    resolution returns (and the meter is charged for) the sequences up
    to and including the first unresolved one only; the reported
    sequence count is still the expanded one."""
    import repro.mot.baseline as baseline
    from repro.runner.budget import UNLIMITED, BudgetMeter

    resolutions = []
    real = baseline.resolve_sequences

    def recording(*args, **kwargs):
        resolutions.append(real(*args, **kwargs))
        return resolutions[-1]

    monkeypatch.setattr(baseline, "resolve_sequences", recording)
    circuit = s27()
    simulator = BaselineSimulator(circuit, s27_patterns(seed=3))
    fault = Fault(circuit.line_id("G16"), ONE)
    simulator.prefilter([fault])
    meter = BudgetMeter(UNLIMITED)
    verdict = simulator.simulate_fault(fault, meter)
    assert (verdict.status, verdict.num_sequences) == ("undetected", 64)
    (resolution,) = resolutions
    statuses = resolution.statuses
    assert statuses[-1] is SequenceStatus.UNRESOLVED
    assert SequenceStatus.UNRESOLVED not in statuses[:-1]
    assert len(statuses) < 64
    # The conventional step, the 63 sequences the doublings created and
    # one event per resimulated sequence.
    assert meter.events == 1 + 63 + len(statuses)


def test_iterative_schedule_keeps_only_unresolved_sequences(monkeypatch):
    """Each iterative round compacts the set to its unresolved slots,
    in slot order, before the next doubling."""
    import repro.mot.baseline as baseline

    rounds = []
    real = baseline.resolve_sequences

    def recording(circuit, frames, reference, sequences, first_only=False):
        before = len(sequences)
        resolution = real(circuit, frames, reference, sequences, first_only)
        rounds.append((before, resolution.statuses))
        return resolution

    monkeypatch.setattr(baseline, "resolve_sequences", recording)
    circuit = s27()
    simulator = BaselineSimulator(
        circuit, s27_patterns(seed=3), BaselineConfig(schedule="iterative")
    )
    multi_round = 0
    for fault in s27_faults():
        rounds.clear()
        verdict = simulator.simulate_fault(fault)
        for (width, statuses), (next_width, _) in zip(rounds, rounds[1:]):
            assert len(statuses) == width
            assert next_width == 2 * statuses.count(SequenceStatus.UNRESOLVED)
        if rounds and verdict.status == "undetected":
            assert verdict.num_sequences == rounds[-1][1].count(
                SequenceStatus.UNRESOLVED
            )
        multi_round += len(rounds) > 1
    assert multi_round
