"""Differential tests of the two masks of a kernel fault batch.

:func:`repro.sim.kernel.simulate_fault_batch` answers, for every fault
of a batch, the two questions Procedure 1 asks before any per-fault
work: is the fault conventionally detected, and does it pass the
necessary condition (C)?  Both answers must equal those of the
interpreted path the batched front replaces -- ``inject_fault`` plus
``simulate_injected``, then ``outputs_conflict`` and
``mot_profile(...).condition_c()`` -- for every fault, at every batch
size, against the good machine and against references more specified
than it (the unrestricted simulator's expanded responses).  On
registry circuits the whole collapsed fault list is one batch, at the
width campaigns run.
"""

import functools
import importlib.util
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.generators import random_moore
from repro.circuits.registry import build_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.injection import inject_fault
from repro.faults.model import Fault
from repro.faults.sites import all_faults
from repro.fsim.conventional import run_conventional
from repro.fsim.parallel import DEFAULT_BATCH, run_parallel_conventional
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.conditions import mot_profile
from repro.patterns.random_gen import random_patterns
from repro.sim.kernel import compile_fault_batch, simulate_fault_batch
from repro.sim.sequential import (
    outputs_conflict,
    simulate_injected,
    simulate_sequence,
)

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def _load_fixture_tool():
    path = os.path.join(ROOT, "tools", "make_verdict_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_verdict_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_fixture_tool()


def interpreted(circuit, fault, patterns, reference):
    """(detected, condition (C)) from the injected circuit's simulation."""
    injected = inject_fault(circuit, fault)
    faulty = simulate_injected(injected, patterns)
    detected = outputs_conflict(reference, faulty.outputs) is not None
    profile = mot_profile(faulty.states, reference, faulty.outputs)
    return detected, profile.condition_c()


def batched(circuit, faults, patterns, reference, batch):
    """(detected, condition (C)) of every fault, in kernel batches; with
    *reference* ``None``, against each batch's fault-free slot 0."""
    answers = []
    for start in range(0, len(faults), batch):
        chunk = faults[start:start + batch]
        masks = simulate_fault_batch(
            circuit, compile_fault_batch(circuit, chunk), patterns, reference
        )
        answers += [
            (bool(masks.detected >> j & 1), bool(masks.condition_c >> j & 1))
            for j in range(len(chunk))
        ]
    return answers


def assert_masks_agree(circuit, faults, patterns, reference, batch, expected):
    got = batched(circuit, faults, patterns, reference, batch)
    for fault, (detected, condition), (want_detected, want_condition) in zip(
        faults, got, expected
    ):
        label = fault.describe(circuit)
        assert detected == want_detected, f"{label}: detected"
        if not want_detected:
            assert condition == want_condition, f"{label}: condition (C)"


def assert_slot0_is_the_good_machine(circuit, faults, patterns, batch):
    """Without a reference, a batch compares every fault with its slot
    0: the same masks, on every fault, as against the good machine's
    response, and slot 0's trajectory is that good machine's."""
    good = simulate_sequence(circuit, patterns)
    assert batched(circuit, faults, patterns, None, batch) == batched(
        circuit, faults, patterns, good.outputs, batch
    )
    slot0 = simulate_fault_batch(
        circuit, compile_fault_batch(circuit, faults[:batch]), patterns
    ).good
    assert slot0.states == good.states
    assert slot0.outputs == good.outputs


# ----------------------------------------------------------------------
# The golden-fixture circuits, every fault
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def golden_workload(name):
    source, length, seed = tool.WORKLOADS[name]
    circuit = tool.build(source)
    patterns = random_patterns(circuit.num_inputs, length, seed=seed)
    reference = simulate_sequence(circuit, patterns).outputs
    faults = all_faults(circuit)
    expected = [interpreted(circuit, f, patterns, reference) for f in faults]
    return circuit, patterns, reference, faults, expected


@pytest.mark.parametrize("batch", [1, 11, 62])
@pytest.mark.parametrize("name", sorted(tool.WORKLOADS))
def test_masks_match_interpreted_path_on_golden_circuits(name, batch):
    circuit, patterns, reference, faults, expected = golden_workload(name)
    assert_masks_agree(circuit, faults, patterns, reference, batch, expected)
    assert_slot0_is_the_good_machine(circuit, faults, patterns, batch)


def test_golden_circuits_exercise_both_masks():
    """The corpus is not vacuous: it has detected faults, faults (C)
    drops and faults that survive both checks."""
    kinds = set()
    for name in tool.WORKLOADS:
        for detected, condition in golden_workload(name)[4]:
            kinds.add("conv" if detected else ("survivor" if condition else "dropped"))
    assert kinds == {"conv", "dropped", "survivor"}


# ----------------------------------------------------------------------
# Registry circuits: the whole collapsed fault list as one batch
# ----------------------------------------------------------------------
#: Circuit -> pattern length; each case runs in a few seconds.
FULL_WIDTH = {"s298_like": 32, "s641_like": 16}


@pytest.mark.parametrize("name", sorted(FULL_WIDTH))
def test_one_full_width_batch_matches_the_serial_paths(name):
    circuit = build_circuit(name)
    faults = collapse_faults(circuit)
    assert len(faults) <= DEFAULT_BATCH
    patterns = random_patterns(circuit.num_inputs, FULL_WIDTH[name], seed=0)
    serial = run_conventional(circuit, faults, patterns)
    campaign = run_parallel_conventional(circuit, faults, patterns)
    assert [v.detected for v in campaign.verdicts] == [
        v.detected for v in serial.verdicts
    ]
    reference = serial.reference.outputs
    got = batched(circuit, faults, patterns, reference, len(faults))
    for fault, (_, condition) in zip(faults, got):
        _, want = interpreted(circuit, fault, patterns, reference)
        assert condition == want, fault.describe(circuit)
    assert batched(circuit, faults, patterns, None, len(faults)) == got


# ----------------------------------------------------------------------
# Random Moore machines against more specified references
# ----------------------------------------------------------------------
def fault_universe(circuit):
    """Every fault of the universe plus a branch fault on every flop
    data pin and primary-output tap, whatever the line's fanout: stuck
    present-state stems (``forced_ps``), data-pin branches and output
    taps all take their own paths through the kernel."""
    faults = all_faults(circuit)
    for line, pins in enumerate(circuit.fanout_pins):
        for pin in pins:
            if pin.kind in ("flop", "output"):
                faults += [Fault(line, ZERO, pin), Fault(line, ONE, pin)]
    return list(dict.fromkeys(faults))


def more_specified(outputs, seed):
    """*outputs* with some X positions set to 0 or 1."""
    rng = random.Random(seed)
    return [
        [rng.choice((UNKNOWN, ZERO, ONE)) if v == UNKNOWN else v for v in row]
        for row in outputs
    ]


def with_unknown_inputs(patterns, seed):
    """*patterns* with about one input value in four set to X.

    With binary inputs every X output has an X present-state bit in the
    same frame, so condition (C)'s "at ``u`` or later" never matters;
    X inputs make it matter."""
    rng = random.Random(seed)
    return [
        [UNKNOWN if rng.random() < 0.25 else v for v in row]
        for row in patterns
    ]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50_000),
    pattern_seed=st.integers(0, 500),
    fill_seed=st.integers(0, 500),
    batch=st.integers(1, 70),
    unknown_inputs=st.booleans(),
)
def test_masks_match_interpreted_path_on_random_machines(
    seed, pattern_seed, fill_seed, batch, unknown_inputs
):
    circuit = random_moore(seed, num_inputs=2, num_flops=3, num_gates=14)
    patterns = random_patterns(circuit.num_inputs, 8, seed=pattern_seed)
    if unknown_inputs:
        patterns = with_unknown_inputs(patterns, fill_seed)
    good = simulate_sequence(circuit, patterns).outputs
    faults = fault_universe(circuit)
    for reference in (good, more_specified(good, fill_seed)):
        expected = [interpreted(circuit, f, patterns, reference) for f in faults]
        assert_masks_agree(
            circuit, faults, patterns, reference, batch, expected
        )
    assert_slot0_is_the_good_machine(circuit, faults, patterns, batch)


def test_random_machines_cover_every_pin_kind():
    """Every place the kernel forces a fault: a stem at a primary input
    (at the source), a present-state line (the state alone) and a gate
    output (at the gate), each also on a line with two or more
    consumers; a branch on a gate pin, a flop data pin and an output
    tap."""
    stem_kind = {"input": "pi_stem", "flop": "ps_stem", "gate": "gate_stem"}
    kinds = set()
    for seed in range(5):
        circuit = random_moore(seed, num_inputs=2, num_flops=3, num_gates=14)
        for fault in fault_universe(circuit):
            if fault.pin is None:
                kind = stem_kind[circuit.source_kind[fault.line]]
                kinds.add(kind)
                if len(circuit.fanout_pins[fault.line]) >= 2:
                    kinds.add(kind + "_fanout")
            else:
                kinds.add(fault.pin.kind)
    assert kinds == {
        "pi_stem", "pi_stem_fanout", "ps_stem", "ps_stem_fanout",
        "gate_stem", "gate_stem_fanout", "gate", "flop", "output",
    }


def test_reference_length_must_match_patterns():
    circuit = random_moore(0, num_inputs=2, num_flops=3, num_gates=14)
    patterns = random_patterns(circuit.num_inputs, 4, seed=0)
    reference = simulate_sequence(circuit, patterns).outputs
    batch = compile_fault_batch(circuit, all_faults(circuit)[:4])
    with pytest.raises(ValueError, match="length mismatch"):
        simulate_fault_batch(circuit, batch, patterns, reference[:-1])
