"""Property tests: handing the good response in changes nothing.

A campaign simulates the fault-free machine once
(:meth:`GoodMachineCache.compute`) and hands its output response to
the simulator as ``reference_outputs``.  Two equivalences must hold on
arbitrary machines and pattern sequences:

* the computed response equals a fresh :func:`simulate_sequence` of
  the same workload;
* every simulator produces verdict-for-verdict identical campaigns
  whether the response is handed in or simulated by the front.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.generators import random_moore, reconvergent_fsm
from repro.circuits.library import s27
from repro.faults.sites import all_faults
from repro.mot.baseline import BaselineSimulator
from repro.mot.simulator import ProposedSimulator
from repro.mot.unrestricted import UnrestrictedSimulator
from repro.patterns.random_gen import random_patterns
from repro.sim.goodcache import GoodMachineCache
from repro.sim.sequential import simulate_sequence

from tests.helpers import s27_faults, s27_patterns


# ----------------------------------------------------------------------
# Computed response == fresh simulation
# ----------------------------------------------------------------------
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 50_000), pattern_seed=st.integers(0, 500))
def test_cached_trajectory_equals_fresh_simulation(seed, pattern_seed):
    circuit = random_moore(seed, num_inputs=2, num_flops=4, num_gates=16)
    patterns = random_patterns(2, 8, seed=pattern_seed)
    cache = GoodMachineCache.compute(circuit, patterns)
    fresh = simulate_sequence(circuit, patterns)
    assert cache.outputs == fresh.outputs


# ----------------------------------------------------------------------
# Verdicts: response handed in == simulated by the front
# ----------------------------------------------------------------------
def _campaign_statuses(simulator, faults):
    campaign = simulator.run(faults)
    return [(v.status, v.how, v.counters) for v in campaign.verdicts]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 50_000), pattern_seed=st.integers(0, 500))
def test_proposed_verdicts_identical_with_and_without_cache(
    seed, pattern_seed
):
    circuit = random_moore(seed, num_inputs=2, num_flops=3, num_gates=12)
    patterns = random_patterns(2, 6, seed=pattern_seed)
    faults = all_faults(circuit)[:12]
    cache = GoodMachineCache.compute(circuit, patterns)
    plain = _campaign_statuses(ProposedSimulator(circuit, patterns), faults)
    cached = _campaign_statuses(
        ProposedSimulator(circuit, patterns, reference_outputs=cache.outputs),
        faults,
    )
    assert plain == cached


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 50_000), pattern_seed=st.integers(0, 500))
def test_baseline_verdicts_identical_with_and_without_cache(
    seed, pattern_seed
):
    circuit = reconvergent_fsm(seed, num_flops=3, num_inputs=2)
    patterns = random_patterns(2, 6, seed=pattern_seed)
    faults = all_faults(circuit)[:12]
    cache = GoodMachineCache.compute(circuit, patterns)
    plain = _campaign_statuses(BaselineSimulator(circuit, patterns), faults)
    cached = _campaign_statuses(
        BaselineSimulator(circuit, patterns, reference_outputs=cache.outputs),
        faults,
    )
    assert plain == cached


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 50_000), pattern_seed=st.integers(0, 500))
def test_unrestricted_verdicts_identical_with_and_without_cache(
    seed, pattern_seed
):
    circuit = random_moore(seed, num_inputs=2, num_flops=3, num_gates=10)
    patterns = random_patterns(2, 5, seed=pattern_seed)
    faults = all_faults(circuit)[:8]
    cache = GoodMachineCache.compute(circuit, patterns)
    plain = _campaign_statuses(
        UnrestrictedSimulator(circuit, patterns), faults
    )
    cached = _campaign_statuses(
        UnrestrictedSimulator(circuit, patterns, reference_outputs=cache.outputs),
        faults,
    )
    assert plain == cached


def test_s27_campaign_identical_with_and_without_cache():
    circuit = s27()
    patterns = s27_patterns(24)
    faults = s27_faults()
    cache = GoodMachineCache.compute(circuit, patterns)
    plain = ProposedSimulator(circuit, patterns).run(faults)
    cached = ProposedSimulator(
        circuit, patterns, reference_outputs=cache.outputs
    ).run(faults)
    assert plain.verdicts == cached.verdicts



def test_handed_in_response_of_another_length_is_refused():
    circuit = s27()
    outputs = GoodMachineCache.compute(circuit, s27_patterns(24)).outputs
    with pytest.raises(ValueError, match="length mismatch"):
        ProposedSimulator(circuit, s27_patterns(16), reference_outputs=outputs)
