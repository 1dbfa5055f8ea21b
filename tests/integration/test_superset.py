"""The paper's Table 2 containment claim, as a test.

"All the faults identified as detected in [4] are also identified by the
proposed procedure."  Checked per fault on several benchmark circuits
with 120-fault samples.  ``benchmarks/bench_table2.py`` checks the same
per fault on every Table 2 circuit, with the registry's fault lists:
full on seven circuits, sampled (300-400 faults) on s1423_like,
s5378_like, s15850_like, s35932_like, am2910_like, mp1_16_like and
mp2_like.
"""

import pytest

from repro.circuits.registry import get_entry
from repro.experiments.runner import sample_faults
from repro.faults.collapse import collapse_faults
from repro.mot.baseline import BaselineSimulator
from repro.mot.simulator import ProposedSimulator
from repro.patterns.random_gen import random_patterns


@pytest.mark.parametrize(
    "name", ["s27", "s208_like", "s344_like", "mp1_16_like"]
)
def test_proposed_superset_of_baseline(name):
    entry = get_entry(name)
    circuit = entry.build()
    faults = sample_faults(collapse_faults(circuit), 120)
    patterns = random_patterns(
        circuit.num_inputs, entry.sequence_length, seed=entry.seed
    )
    proposed = ProposedSimulator(circuit, patterns).run(faults)
    baseline = BaselineSimulator(circuit, patterns).run(faults)
    for proposed_verdict, baseline_verdict in zip(
        proposed.verdicts, baseline.verdicts
    ):
        if baseline_verdict.detected:
            assert proposed_verdict.detected, (
                f"{name}: {baseline_verdict.fault.describe(circuit)} "
                "detected by [4] but not by the proposed procedure"
            )


def test_s5378_flagship_shape():
    """The headline result: the s5378 stand-in's extra faults are out of
    reach of expansion-only search (the baseline aborts on them) but
    detected via backward implications."""
    entry = get_entry("s5378_like")
    circuit = entry.build()
    faults = sample_faults(collapse_faults(circuit), 150)
    patterns = random_patterns(
        circuit.num_inputs, entry.sequence_length, seed=entry.seed
    )
    proposed = ProposedSimulator(circuit, patterns).run(faults)
    baseline = BaselineSimulator(circuit, patterns).run(faults)
    assert proposed.mot_detected > 0
    assert baseline.mot_detected == 0
    # Every proposed-only fault was aborted (sequence limit) by [4].
    for proposed_verdict, baseline_verdict in zip(
        proposed.verdicts, baseline.verdicts
    ):
        if proposed_verdict.status == "mot":
            assert baseline_verdict.status == "undetected"
            assert baseline_verdict.how == "aborted"
