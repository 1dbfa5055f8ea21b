"""End-to-end soundness: no simulator may ever over-report detection.

The exhaustive oracle (:mod:`repro.verify.exhaustive`) decides
restricted-MOT detectability exactly on circuits with up to 25 free
flip-flops.  Soundness of
conventional simulation, of the [4] baseline and of the proposed
procedure then means: every fault they declare detected is detected
according to the oracle.  (The converse -- completeness -- does not hold
in general because of the ``N_STATES`` limit and one-frame backward
implications; it is checked separately on the tiny circuits where the
procedures should be exact.)
"""

import pytest

from repro.circuits.library import fig4, s27
from repro.circuits.registry import get_entry
from repro.faults.collapse import collapse_faults
from repro.mot.baseline import BaselineSimulator
from repro.mot.simulator import MotConfig, ProposedSimulator
from repro.patterns.random_gen import random_patterns
from repro.sim.sequential import simulate_sequence
from repro.verify.exhaustive import exhaustive_restricted_mot

from tests.helpers import both_circuit, pair_circuit, toggle_circuit


def _check_soundness(circuit, patterns, config=None):
    faults = collapse_faults(circuit)
    reference = simulate_sequence(circuit, patterns)
    proposed = ProposedSimulator(circuit, patterns, config).run(faults)
    baseline = BaselineSimulator(circuit, patterns).run(faults)
    for campaign in (proposed, baseline):
        for verdict in campaign.verdicts:
            if verdict.detected:
                assert exhaustive_restricted_mot(
                    circuit, verdict.fault, patterns, reference.outputs
                ), f"unsound: {verdict.fault.describe(circuit)} ({verdict.how})"
    return proposed, baseline


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_soundness_s27(seed):
    circuit = s27()
    _check_soundness(circuit, random_patterns(4, 24, seed=seed))


def test_soundness_s208_like_table2_workload():
    entry = get_entry("s208_like")
    circuit = entry.build()
    _check_soundness(
        circuit,
        random_patterns(
            circuit.num_inputs, entry.sequence_length, seed=entry.seed
        ),
    )


@pytest.mark.parametrize(
    "factory", [toggle_circuit, both_circuit, pair_circuit, fig4]
)
def test_soundness_toy_circuits(factory):
    circuit = factory()
    patterns = random_patterns(circuit.num_inputs, 12, seed=9)
    _check_soundness(circuit, patterns)


def test_completeness_on_tiny_circuits():
    """With a generous state limit, the proposed procedure should find
    every restricted-MOT-detectable fault of the toggle circuit."""
    circuit = toggle_circuit()
    patterns = [[1]] * 8
    faults = collapse_faults(circuit)
    reference = simulate_sequence(circuit, patterns)
    campaign = ProposedSimulator(
        circuit, patterns, MotConfig(n_states=256)
    ).run(faults)
    for verdict in campaign.verdicts:
        truth = exhaustive_restricted_mot(
            circuit, verdict.fault, patterns, reference.outputs
        )
        assert verdict.detected == truth, verdict.fault.describe(circuit)


def test_completeness_s27_random_workloads():
    """On s27 the procedures have historically been exact; keep it so."""
    circuit = s27()
    faults = collapse_faults(circuit)
    for seed in (0, 5):
        patterns = random_patterns(4, 32, seed=seed)
        reference = simulate_sequence(circuit, patterns)
        campaign = ProposedSimulator(circuit, patterns).run(faults)
        for verdict in campaign.verdicts:
            truth = exhaustive_restricted_mot(
                circuit, verdict.fault, patterns, reference.outputs
            )
            assert verdict.detected == truth, verdict.fault.describe(circuit)
