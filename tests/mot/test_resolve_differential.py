"""The batched resolver against the serial resimulation oracle.

:func:`repro.mot.resimulate.resolve_sequences` resolves every slot of a
:class:`~repro.mot.expansion.SequenceSet` in one walk over the time
units, evaluating only the fanout cone of the newly specified state
lines.  :func:`~repro.mot.resimulate.resimulate_sequence` resimulates
one sequence at a time on the interpreter.  For every slot the two must
agree on the status, on the detection site of a DETECTED slot, and on
the rows an UNRESOLVED slot is left with -- with ``first_only`` on
(statuses up to and including the first unresolved slot) and off.

The sets come from the real procedures on every survivor of the golden
verdict-fixture circuits (Procedure 2, and the [4] baseline's doubling)
and from random assignments on random Moore machines, with X inputs,
stuck flip-flop outputs and marks at time unit ``L``.
"""

import importlib.util
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.generators import random_moore
from repro.faults.injection import inject_fault
from repro.faults.model import Fault
from repro.faults.sites import all_faults
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.backward import BackwardCollector
from repro.mot.baseline import BaselineSimulator
from repro.mot.conditions import mot_profile
from repro.mot.expansion import SequenceSet, StateSequence, expand
from repro.mot.resimulate import (
    SequenceStatus,
    resimulate_sequence,
    resolve_sequences,
)
from repro.patterns.random_gen import random_patterns
from repro.sim.sequential import (
    outputs_conflict,
    simulate_injected,
    simulate_sequence,
)

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def _load_tool():
    path = os.path.join(ROOT, "tools", "make_verdict_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_verdict_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def assert_matches_serial(injected, patterns, reference, faulty, build):
    """Resolve ``build()`` both ways, with and without ``first_only``,
    and compare slot by slot with the serial oracle."""
    for first_only in (False, True):
        sequences = build()
        serial = [
            StateSequence(
                states=sequences.states(k), marked=sequences.marked(k)
            )
            for k in range(len(sequences))
        ]
        resolution = resolve_sequences(
            injected.circuit, faulty.frames, reference, sequences, first_only
        )
        expected = []
        sites = {}
        for k, sequence in enumerate(serial):
            detail = {}
            status = resimulate_sequence(
                injected.circuit,
                patterns,
                reference,
                sequence,
                injected.forced_ps,
                detail=detail,
            )
            expected.append(status)
            if status is SequenceStatus.DETECTED:
                sites[k] = detail["site"]
            if first_only and status is SequenceStatus.UNRESOLVED:
                break
        assert resolution.statuses == expected, first_only
        assert resolution.sites == sites, first_only
        for k, status in enumerate(expected):
            if status is SequenceStatus.UNRESOLVED:
                assert sequences.states(k) == serial[k].states, (first_only, k)
                assert sequences.marked(k) == set()


def _survivors(circuit, patterns, reference):
    """Faults past the front: not conventionally detected, and (C)."""
    for fault in all_faults(circuit):
        injected = inject_fault(circuit, fault)
        faulty = simulate_injected(injected, patterns, keep_frames=True)
        if outputs_conflict(reference, faulty.outputs) is not None:
            continue
        profile = mot_profile(faulty.states, reference, faulty.outputs)
        if profile.condition_c():
            yield injected, faulty, profile


def _baseline_set(simulator, injected, faulty, profile):
    """The [4] one-shot expansion of one fault, before resolution."""
    sequences = SequenceSet(faulty.states)
    while len(sequences) < simulator.config.n_states:
        pair = simulator._choose_pair(injected, sequences, profile)
        if pair is None:
            break
        simulator._expand_all(sequences, *pair)
    return sequences


@pytest.mark.parametrize("name", sorted(tool.WORKLOADS))
def test_resolver_matches_serial_on_golden_survivors(name):
    source, length, seed = tool.WORKLOADS[name]
    circuit = tool.build(source)
    patterns = random_patterns(circuit.num_inputs, length, seed=seed)
    reference = simulate_sequence(circuit, patterns).outputs
    baseline = BaselineSimulator(circuit, patterns)
    checked = 0
    for injected, faulty, profile in _survivors(circuit, patterns, reference):
        info = BackwardCollector(injected, faulty, reference, profile).collect()

        def proposed():
            return expand(faulty.states, info, profile).sequences

        assert_matches_serial(injected, patterns, reference, faulty, proposed)
        assert_matches_serial(
            injected, patterns, reference, faulty,
            lambda: _baseline_set(baseline, injected, faulty, profile),
        )
        checked += 1
    if not checked:
        pytest.skip(f"no fault of {name} passes the front")


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(seed=st.integers(0, 50_000), data=st.data())
def test_resolver_matches_serial_on_random_sets(seed, data):
    num_flops = data.draw(st.integers(1, 4))
    circuit = random_moore(
        seed,
        num_inputs=2,
        num_flops=num_flops,
        num_gates=data.draw(st.integers(4, 16)),
    )
    length = data.draw(st.integers(1, 6))
    patterns = data.draw(
        st.lists(
            st.lists(
                st.sampled_from((ZERO, ONE, UNKNOWN)), min_size=2, max_size=2
            ),
            min_size=length,
            max_size=length,
        )
    )
    if data.draw(st.booleans()):
        # A stuck flip-flop output: the state variable is pinned.
        flop_index = data.draw(st.integers(0, num_flops - 1))
        fault = Fault(circuit.flops[flop_index].ps, data.draw(st.integers(0, 1)))
    else:
        faults = all_faults(circuit)
        fault = faults[data.draw(st.integers(0, len(faults) - 1))]
    injected = inject_fault(circuit, fault)
    reference = simulate_sequence(circuit, patterns).outputs
    faulty = simulate_injected(injected, patterns, keep_frames=True)
    ops = data.draw(
        st.lists(
            st.tuples(
                st.booleans(),  # double, else assign
                st.integers(0, length),  # time unit, L included
                st.integers(0, num_flops - 1),
                st.integers(0, num_flops - 1),
                st.integers(0, 3),  # values
                st.integers(0, 2**16 - 1),  # slot mask
            ),
            max_size=10,
        )
    )

    def build():
        sequences = SequenceSet(faulty.states)
        for double, u, i, j, values, mask in ops:
            if double and len(sequences) < 16:
                sequences.double(u, [(i, values & 1)], [(j, values >> 1)])
            else:
                slots = mask & ((1 << len(sequences)) - 1)
                sequences.assign(u, i, values & 1, slots)
        return sequences

    assert_matches_serial(injected, patterns, reference, faulty, build)
