"""Property tests: the shared good-machine cache changes nothing.

The cache exists purely to avoid re-simulating the fault-free machine,
so two equivalences must hold on arbitrary machines and pattern
sequences:

* the cached trajectory (outputs, states) equals a fresh
  :func:`simulate_sequence` of the same workload;
* every simulator produces verdict-for-verdict identical campaigns with
  the cache on and off.

A mismatched cache (wrong circuit or wrong patterns) must refuse to be
used rather than silently produce wrong verdicts.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.generators import random_moore, reconvergent_fsm
from repro.circuits.library import s27
from repro.faults.sites import all_faults
from repro.mot.baseline import BaselineSimulator
from repro.mot.simulator import ProposedSimulator
from repro.mot.unrestricted import UnrestrictedSimulator
from repro.patterns.random_gen import random_patterns
from repro.sim.goodcache import (
    GoodMachineCache,
    circuit_fingerprint,
    clear_shared_good_cache,
    shared_good_cache,
)
from repro.sim.sequential import simulate_sequence

from tests.helpers import s27_faults, s27_patterns, toggle_circuit

import pytest


# ----------------------------------------------------------------------
# Cached trajectory == fresh simulation
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
    assert cache.states == fresh.states
    assert cache.length == len(patterns)
    assert cache.matches(circuit, patterns)


# ----------------------------------------------------------------------
# Verdicts: cache on == cache off
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
        ProposedSimulator(circuit, patterns, good_cache=cache), faults
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
        BaselineSimulator(circuit, patterns, good_cache=cache), faults
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
        UnrestrictedSimulator(circuit, patterns, good_cache=cache), faults
    )
    assert plain == cached


def test_s27_campaign_identical_with_and_without_cache():
    circuit = s27()
    patterns = s27_patterns(24)
    faults = s27_faults()
    cache = GoodMachineCache.compute(circuit, patterns)
    plain = ProposedSimulator(circuit, patterns).run(faults)
    cached = ProposedSimulator(circuit, patterns, good_cache=cache).run(
        faults
    )
    assert plain.verdicts == cached.verdicts


# ----------------------------------------------------------------------
# Guard rails and memoization
# ----------------------------------------------------------------------
def test_mismatched_cache_is_refused():
    circuit = s27()
    patterns = s27_patterns()
    cache = GoodMachineCache.compute(circuit, patterns)
    other_patterns = s27_patterns(seed=99)
    with pytest.raises(ValueError, match="does not match"):
        ProposedSimulator(circuit, other_patterns, good_cache=cache)
    other_circuit = toggle_circuit()
    with pytest.raises(ValueError, match="does not match"):
        BaselineSimulator(other_circuit, [[1]] * 4, good_cache=cache)
    assert not cache.matches(circuit, other_patterns)
    assert not cache.matches(other_circuit, patterns)


def test_fingerprint_is_structural():
    assert circuit_fingerprint(s27()) == circuit_fingerprint(s27())
    assert circuit_fingerprint(s27()) != circuit_fingerprint(
        toggle_circuit()
    )


def test_shared_good_cache_memoizes_per_workload():
    clear_shared_good_cache()
    circuit = s27()
    patterns = s27_patterns()
    first = shared_good_cache(circuit, patterns)
    # Same workload, fresh circuit object: same cache instance.
    assert shared_good_cache(s27(), s27_patterns()) is first
    # Different patterns: a different cache.
    other = shared_good_cache(circuit, s27_patterns(seed=7))
    assert other is not first
    clear_shared_good_cache()
    assert shared_good_cache(circuit, patterns) is not first
