"""Observability overhead guard (CI gate, plain script -- no pytest).

The metrics registry ships disabled: ``get_metrics()`` returns a no-op
object and instrumented hot paths guard event recording with one
attribute check.  This script keeps that contract honest on the
standard s27 MOT campaign workload (the same workload as
``bench_throughput.py``):

1. **Overhead bound** -- the campaign is timed with observability
   disabled and with the metrics registry enabled, interleaved
   best-of-K; enabling metrics must cost at most ``--threshold``
   (default 5%).  Because the disabled path is a strict subset of the
   enabled path's work, this also bounds what the no-op default can
   cost over an uninstrumented build.  One sample is the mean over
   back-to-back campaigns lasting at least ``MIN_SAMPLE_S`` (a single
   campaign takes milliseconds, where scheduler noise alone exceeds
   the bound), and the side that runs first alternates between rounds
   so drift in the host's load hits both sides alike.
2. **No-op primitive cost** -- ``NullMetrics.counter`` /
   ``NullMetrics.phase`` must stay within ``--null-factor`` of a plain
   empty method call.  This catches the regression the ratio above
   cannot: the no-op stubs silently growing real work (locks, dict
   building), which would slow *both* timed runs equally.
3. **Result identity** -- both runs must produce identical per-fault
   verdicts; observability may never change what the campaign computes.

Exit status 0 when all three hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from repro.circuits.registry import build_circuit
from repro.faults.collapse import collapse_faults
from repro.mot.simulator import ProposedSimulator
from repro.obs.metrics import (
    NullMetrics,
    disable_metrics,
    enable_metrics,
)
from repro.patterns.random_gen import random_patterns
from repro.runner.harness import CampaignHarness, HarnessConfig


#: Minimum wall time of one timing sample, in seconds.
MIN_SAMPLE_S = 0.3


def _workload():
    # bench_throughput's s27 MOT campaign, with a longer sequence so the
    # timing is dominated by simulation work rather than setup noise.
    circuit = build_circuit("s27")
    faults = collapse_faults(circuit)
    patterns = random_patterns(4, 64, seed=3)
    return circuit, faults, patterns


def _run_campaign(circuit, faults, patterns):
    started = time.perf_counter()
    campaign = CampaignHarness(
        ProposedSimulator(circuit, patterns),
        HarnessConfig(handle_sigint=False),
    ).run(faults)
    return time.perf_counter() - started, campaign


def _verdict_key(campaign):
    return [(v.fault, v.status, v.how) for v in campaign.verdicts]


def _sample(circuit, faults, patterns, repeats, enabled):
    """Mean seconds per campaign over *repeats* back-to-back campaigns,
    and the last campaign."""
    if enabled:
        enable_metrics()
    try:
        started = time.perf_counter()
        for _ in range(repeats):
            _seconds, campaign = _run_campaign(circuit, faults, patterns)
        elapsed = time.perf_counter() - started
    finally:
        disable_metrics()
    return elapsed / repeats, campaign


def measure_campaigns(rounds):
    """Interleaved best-of-*rounds* timings: (disabled, enabled, equal).

    Each round takes one sample per side, disabled first in even rounds
    and enabled first in odd ones.
    """
    circuit, faults, patterns = _workload()
    disable_metrics()
    one, reference_campaign = _run_campaign(circuit, faults, patterns)
    repeats = max(1, math.ceil(MIN_SAMPLE_S / one))
    reference = _verdict_key(reference_campaign)
    times = {False: [], True: []}
    identical = True
    for index in range(rounds):
        for enabled in ((False, True) if index % 2 == 0 else (True, False)):
            seconds, campaign = _sample(
                circuit, faults, patterns, repeats, enabled
            )
            times[enabled].append(seconds)
            identical &= _verdict_key(campaign) == reference
    return min(times[False]), min(times[True]), identical


def measure_null_primitive_factor(iterations=200_000):
    """Cost of the no-op metrics calls relative to an empty method."""

    class _Empty:
        def noop(self, name):
            pass

    empty = _Empty()
    null = NullMetrics()

    def timed(fn):
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for _ in range(iterations):
                fn()
            best = min(best, time.perf_counter() - started)
        return best

    baseline = timed(lambda: empty.noop("x"))
    counter = timed(lambda: null.counter("x"))
    phase = timed(lambda: null.phase("x").__enter__())
    return max(counter, phase) / baseline if baseline else 1.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold", type=float, default=0.05,
        help="maximum allowed relative cost of enabling metrics "
             "(default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--rounds", type=int, default=7,
        help="interleaved measurement rounds; best-of is compared",
    )
    parser.add_argument(
        "--null-factor", type=float, default=25.0,
        help="maximum allowed cost of a no-op metrics call relative to "
             "an empty method call",
    )
    args = parser.parse_args(argv)

    disabled, enabled, identical = measure_campaigns(args.rounds)
    overhead = (enabled - disabled) / disabled if disabled else 0.0
    factor = measure_null_primitive_factor()

    print(f"campaign, observability disabled: {disabled * 1000:.1f} ms")
    print(f"campaign, metrics enabled:        {enabled * 1000:.1f} ms")
    print(f"enabling overhead:                {overhead * 100:+.2f}% "
          f"(threshold {args.threshold * 100:.0f}%)")
    print(f"no-op primitive vs empty call:    {factor:.1f}x "
          f"(limit {args.null_factor:.0f}x)")

    status = 0
    if not identical:
        print("FAIL: verdicts differ between disabled and enabled runs")
        status = 1
    if overhead > args.threshold:
        print("FAIL: enabling metrics exceeds the overhead threshold")
        status = 1
    if factor > args.null_factor:
        print("FAIL: the no-op metrics path has grown real work")
        status = 1
    if status == 0:
        print("OK: observability overhead within bounds, results identical")
    return status


if __name__ == "__main__":
    sys.exit(main())
