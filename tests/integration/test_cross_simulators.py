"""Cross-simulator coherence theorems.

The conventional simulators and the MOT layer must agree wherever
their semantics overlap:

* serial == kernel fault batches, fault by fault (also covered in
  tests/fsim);
* three-valued conventional detection implies *every-initial-state*
  two-valued detection (the abstraction theorem): a conventionally
  detected fault must appear in the two-valued serial detection set of
  **every** initial state;
* MOT detection implies, for every initial state, a two-valued conflict
  against the three-valued reference (the oracle's definition) -- the
  oracle tests cover this; here we add the converse sanity: a fault in
  *no* per-state detection set anywhere is undetectable by everything.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.generators import random_moore
from repro.circuits.library import s27
from repro.faults.sites import all_faults
from repro.fsim.conventional import run_conventional
from repro.fsim.parallel import run_parallel_conventional
from repro.mot.simulator import ProposedSimulator
from repro.patterns.random_gen import random_patterns

from tests.helpers import serial_detected


def _per_state_sets(circuit, faults, patterns):
    """Two-valued detection set of *faults* for every initial state."""
    return [
        serial_detected(circuit, faults, patterns, list(bits))
        for bits in itertools.product((0, 1), repeat=circuit.num_flops)
    ]


def test_conventional_detection_holds_for_every_state_s27():
    circuit = s27()
    patterns = random_patterns(4, 16, seed=2)
    faults = all_faults(circuit)
    conventional = run_conventional(circuit, faults, patterns)
    per_state = _per_state_sets(circuit, faults, patterns)
    for verdict in conventional.verdicts:
        if verdict.detected:
            for state_index, detected in enumerate(per_state):
                assert verdict.fault in detected, (
                    verdict.fault.describe(circuit),
                    state_index,
                )


def test_nowhere_detected_faults_are_globally_undetected_s27():
    """A fault absent from every per-state detection set cannot be
    detected by conventional, parallel, or MOT simulation."""
    circuit = s27()
    patterns = random_patterns(4, 16, seed=2)
    faults = all_faults(circuit)
    per_state = _per_state_sets(circuit, faults, patterns)
    anywhere = set().union(*per_state)
    conventional = run_conventional(circuit, faults, patterns)
    parallel = run_parallel_conventional(circuit, faults, patterns)
    proposed = ProposedSimulator(circuit, patterns).run(faults)
    for conv_v, par_v, mot_v in zip(
        conventional.verdicts, parallel.verdicts, proposed.verdicts
    ):
        if conv_v.fault not in anywhere:
            assert not conv_v.detected
            assert not par_v.detected
            assert not mot_v.detected, conv_v.fault.describe(circuit)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 50_000), pattern_seed=st.integers(0, 500))
def test_abstraction_theorem_random_circuits(seed, pattern_seed):
    """Property form: 3v conventional detection implies membership in
    every per-state two-valued detection set."""
    circuit = random_moore(seed, num_inputs=2, num_flops=3, num_gates=14)
    patterns = random_patterns(2, 6, seed=pattern_seed)
    faults = all_faults(circuit)[:24]
    conventional = run_conventional(circuit, faults, patterns)
    detected_conventionally = [
        v.fault for v in conventional.verdicts if v.detected
    ]
    if not detected_conventionally:
        return
    per_state = _per_state_sets(circuit, detected_conventionally, patterns)
    for fault in detected_conventionally:
        for detected in per_state:
            assert fault in detected
