"""Differential tests: the plane collection against its serial reference.

:class:`~repro.mot.backward.BackwardCollector` runs every probe
``(u, i, a)`` of a fault as one bit-slot of a plane implication per
backward frame.  :class:`tests.helpers.SerialBackwardCollector` runs
the probes one at a time on :class:`~repro.mot.implication.FrameEngine`.
Per probe the outcome, the detection site and the ``extra`` set must
agree, and so must the number of implication runs:

* on every survivor (not conventionally detected, condition (C) holds)
  of the golden verdict-fixture workloads, s298_like x96 and s641_like
  x48, under both schedules at depths 1-3;
* on random Moore machines (hypothesis) with ``X`` inputs, faults on
  every stem and branch -- flop outputs (forced flops), flop data pins
  and primary-output taps included -- duplicate fanins, XOR/XNOR gates
  of up to four inputs and shift registers, where a deeper frame is
  seeded on a present-state line.

One collection's ``implication`` trace events and ``mot.backward`` /
``mot.implication.runs`` counters are checked against the reference's
probes too.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.bench import parse_bench
from repro.circuit.netlist import CircuitBuilder
from repro.circuits.registry import build_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.injection import inject_fault
from repro.faults.model import Fault
from repro.faults.sites import all_faults
from repro.logic.values import ONE, UNKNOWN
from repro.mot.backward import BackwardCollector
from repro.mot.conditions import mot_profile
from repro.obs import ListTracer, RecordingMetrics, set_metrics, set_tracer
from repro.patterns.random_gen import random_patterns
from repro.sim.sequential import (
    outputs_conflict,
    simulate_injected,
    simulate_sequence,
)

from tests.helpers import SerialBackwardCollector
from tests.mot.test_verdict_fixtures import tool

MODES = ("fixpoint", "two_pass")
DEPTHS = (1, 2, 3)

#: Workload -> (circuit, fault list, pattern length, pattern seed): the
#: golden fixtures' circuits on their full fault lists, and the two MOT
#: benchmark workloads on their collapsed lists.
WORKLOADS = {
    **{
        name: (source, all_faults, length, seed)
        for name, (source, length, seed) in tool.WORKLOADS.items()
    },
    "s298_like": ("s298_like", collapse_faults, 96, 0),
    "s641_like": ("s641_like", collapse_faults, 48, 0),
}


def _setup(circuit, fault, patterns, reference_outputs):
    injected = inject_fault(circuit, fault)
    faulty = simulate_injected(injected, patterns, keep_frames=True)
    profile = mot_profile(faulty.states, reference_outputs, faulty.outputs)
    return injected, faulty, profile


@functools.lru_cache(maxsize=None)
def _survivors(name):
    """Every fault of workload *name* that reaches backward implication."""
    source, fault_list, length, seed = WORKLOADS[name]
    circuit = tool.build(source) if name in tool.WORKLOADS else build_circuit(
        source
    )
    patterns = random_patterns(circuit.num_inputs, length, seed=seed)
    reference = simulate_sequence(circuit, patterns).outputs
    survivors = []
    for fault in fault_list(circuit):
        injected, faulty, profile = _setup(circuit, fault, patterns, reference)
        if outputs_conflict(reference, faulty.outputs) is not None:
            continue
        if profile.condition_c():
            survivors.append((injected, faulty, reference, profile))
    return survivors


def _plane_probes(info):
    """``(u, i, a) -> (outcome, sorted extra, site)`` of a collection."""
    probes = {}
    for (u, i), pair in info.items():
        if u == 0:
            continue
        for alpha in (0, 1):
            if pair.conf[alpha]:
                outcome = "conf"
            elif pair.detect[alpha]:
                outcome = "detect"
            else:
                outcome = "extra"
            probes[(u, i, alpha)] = (
                outcome, sorted(pair.extra[alpha]), pair.detect_site[alpha]
            )
    return probes


def _assert_same(injected, faulty, reference, profile, mode, depth):
    plane = BackwardCollector(
        injected, faulty, reference, profile, mode=mode, depth=depth
    )
    serial = SerialBackwardCollector(
        injected, faulty, reference, profile, mode=mode, depth=depth
    )
    info = plane.collect()
    expected = {
        key: (outcome, sorted(extra), site)
        for key, (outcome, extra, site) in serial.collect().items()
    }
    label = (injected.circuit.name, mode, depth)
    assert _plane_probes(info) == expected, label
    assert plane.runs == serial.runs, label
    for key, pair in info.items():
        for alpha in (0, 1):
            # One entry per state variable.
            flops = [flop for flop, _value in pair.extra[alpha]]
            assert len(flops) == len(set(flops)), (label, key)
    return info


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_probe_of_every_survivor_matches_serial(name, mode, depth):
    for case in _survivors(name):
        _assert_same(*case, mode, depth)


def test_benchmark_workloads_have_survivors():
    """The two stand-ins exercise the collection (30 and 5 faults)."""
    assert len(_survivors("s298_like")) == 30
    assert len(_survivors("s641_like")) == 5


#: Two flops in a shift register (Q2 = DFF(Q1)).  With Z stuck at 1 the
#: output shows Q1; Y2 = Q1 = 0 at u-1 says nothing there, but the round
#: at u-2 receives Q1's value on Q1's next-state line and detects.
SHIFT_BENCH = """
INPUT(A)
OUTPUT(O)
Q1 = DFF(D1)
Q2 = DFF(Q1)
NA = NOT(A)
Z = AND(A, NA)
D1 = XOR(Q1, A)
O = AND(Q1, Z)
"""


@pytest.mark.parametrize("mode", MODES)
def test_shift_register_round_seeds_a_present_state_line(mode):
    circuit = parse_bench(SHIFT_BENCH, "shift")
    patterns = [[1]] * 4
    reference = simulate_sequence(circuit, patterns).outputs
    case = _setup(circuit, Fault(circuit.line_id("Z"), ONE), patterns, reference)
    injected, faulty, profile = case
    shallow = _assert_same(injected, faulty, reference, profile, mode, 1)
    deep = _assert_same(injected, faulty, reference, profile, mode, 2)
    assert shallow[(2, 1)].detect == [False, True]
    assert deep[(2, 1)].detect == [True, True]
    assert deep[(2, 1)].detect_site[0] == (0, 0)


def test_trace_events_and_counters_follow_the_probes():
    injected, faulty, reference, profile = _survivors("s27")[0]
    tracer = ListTracer()
    metrics = RecordingMetrics()
    previous_tracer = set_tracer(tracer)
    previous_metrics = set_metrics(metrics)
    try:
        tracer.begin_fault("probe-order")
        collector = BackwardCollector(injected, faulty, reference, profile)
        collector.collect()
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)
    serial = SerialBackwardCollector(injected, faulty, reference, profile)
    names = {"conf": "conflict", "detect": "detection", "extra": "no_info"}
    expected = [
        {
            "ev": "implication", "u": u, "i": i, "alpha": alpha,
            "outcome": names[outcome], "extra": len(extra),
        }
        for (u, i, alpha), (outcome, extra, _site) in serial.collect().items()
    ]
    assert [e for e in tracer.events if e["ev"] == "implication"] == expected
    counters = metrics.snapshot().counters
    totals = {
        name: sum(1 for e in expected if e["outcome"] == name)
        for name in names.values()
    }
    for name, total in totals.items():
        assert counters.get(f"mot.backward.{name}", 0) == total
    assert counters["mot.implication.runs"] == serial.runs


# ----------------------------------------------------------------------
# Random Moore machines
# ----------------------------------------------------------------------
_GATES = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF")


def _random_machine(rng):
    """A small random Moore machine.  Gate inputs are drawn with
    replacement (and sometimes forced to repeat), so gates read a line
    on two pins; a flop's data line may be a primary input or another
    flop's output, so shift registers occur."""
    builder = CircuitBuilder("random_machine")
    pool = []
    for k in range(rng.randint(1, 3)):
        pool.append(f"pi{k}")
        builder.add_input(f"pi{k}")
    num_flops = rng.randint(1, 4)
    pool.extend(f"ps{k}" for k in range(num_flops))
    for g in range(rng.randint(3, 14)):
        kind = rng.choice(_GATES)
        fanin = 1 if kind in ("NOT", "BUFF") else rng.randint(2, 4)
        sources = [rng.choice(pool[-8:] if rng.random() < 0.5 else pool)
                   for _ in range(fanin)]
        if fanin > 1 and rng.random() < 0.25:
            sources[-1] = sources[0]
        builder.add_gate(kind, f"g{g}", sources)
        pool.append(f"g{g}")
    for k in range(num_flops):
        builder.add_flop(f"ps{k}", rng.choice(pool))
    for _ in range(rng.randint(1, 3)):
        builder.add_output(rng.choice(pool))
    return builder.build()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_machines_match_serial(seed):
    rng = random.Random(seed)
    circuit = _random_machine(rng)
    length = rng.randint(2, 8)
    patterns = [
        [rng.choice((0, 1, 1, 0, UNKNOWN)) for _ in circuit.inputs]
        for _ in range(length)
    ]
    reference = simulate_sequence(circuit, patterns).outputs
    faults = all_faults(circuit)
    for fault in rng.sample(faults, min(len(faults), 6)):
        injected, faulty, profile = _setup(circuit, fault, patterns, reference)
        for mode in MODES:
            for depth in DEPTHS:
                _assert_same(injected, faulty, reference, profile, mode, depth)
