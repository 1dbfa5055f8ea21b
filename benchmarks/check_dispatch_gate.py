"""Lease dispatch guard (CI gate, plain script -- no pytest).

A static split decides who simulates which fault before the first
verdict lands, so a skewed workload concentrates the slow faults on one
worker while the others idle.  Lease-based dispatch hands out small
chunks on demand, which is its whole reason to exist -- and this script
keeps that claim honest on the standard s27 MOT campaign:

1. **Skewed workload** -- a chaos scenario (``REPRO_CHAOS_SCENARIO``)
   delays every even fault index.  The static baseline is a round-robin
   split expressed through the dispatcher itself: one lease per worker,
   the even indices on one worker and the odd ones on the other, work
   stealing off -- so *all* slow faults land on one worker (the worst
   case a static split can hit on real workloads); small-chunk lease
   dispatch spreads them across both workers as chunks drain.
2. **Wall-clock bound** -- the small-chunk run (two forked local
   workers) must finish in at most ``--threshold`` (default 0.85) of
   the static split's wall-clock.
3. **No duplicates, identical verdicts** -- the dispatch journal must
   hold exactly one verdict per fault index even though a straggler's
   lease is stolen under the skew, and the campaign must be
   bit-identical to the static run's.

Exit status 0 when all three hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.chaos.runtime import SCENARIO_ENV
from repro.chaos.scenario import ChaosScenario, InjectionSpec
from repro.circuits.registry import build_circuit
from repro.faults.collapse import collapse_faults
from repro.mot.simulator import ProposedSimulator
from repro.patterns.random_gen import random_patterns
from repro.runner.dispatch import DispatchConfig, DistributedCampaignRunner
from repro.runner.journal import record_checksum_ok
from repro.runner.transport import LocalTransport


def _workload():
    circuit = build_circuit("s27")
    faults = collapse_faults(circuit)
    patterns = random_patterns(4, 16, seed=1)
    return circuit, faults, patterns


def _skew(num_faults: int, delay_ms: int, straggler_ms: int) -> str:
    """Even indices slow (the static split puts them all on one
    worker), plus one odd-indexed straggler fault to provoke work
    stealing and duplicate-verdict dedup in the dispatch run."""
    delays = [(1, straggler_ms)] + [
        (index, delay_ms) for index in range(0, num_faults, 2)
    ]
    return ChaosScenario(
        name="dispatch-gate-skew",
        seed=0,
        faults=[
            InjectionSpec(site="worker.fault", action="delay", index=index,
                          value=float(ms), times=None)
            for index, ms in delays
        ],
    ).to_json()


def _signature(campaign):
    return [
        (v.fault.line, v.fault.stuck_at, v.fault.pin, v.status, v.how)
        for v in campaign.verdicts
    ]


def run_static(circuit, faults, patterns):
    """Round-robin over two workers: one lease of the even indices, one
    of the odd ones, no stealing."""
    evens = list(range(0, len(faults), 2))
    odds = list(range(1, len(faults), 2))
    runner = DistributedCampaignRunner(
        ProposedSimulator(circuit, patterns),
        ["alpha", "beta"],
        LocalTransport(),
        DispatchConfig(
            chunk_size=len(evens),
            dispatch_order=tuple(evens + odds),
            min_latency_samples=len(faults) + 1,  # never steal
        ),
    )
    started = time.perf_counter()
    campaign = runner.run(faults)
    return time.perf_counter() - started, campaign


def run_dispatch(circuit, faults, patterns, journal_path):
    runner = DistributedCampaignRunner(
        ProposedSimulator(circuit, patterns),
        ["alpha", "beta"],
        LocalTransport(),
        DispatchConfig(checkpoint_path=journal_path, chunk_size=2),
    )
    started = time.perf_counter()
    campaign = runner.run(faults)
    return time.perf_counter() - started, campaign, runner.stats


def journal_verdict_indices(path):
    indices = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if not record_checksum_ok(record):
                raise AssertionError(f"corrupt journal record: {line[:80]}")
            if record.get("kind") == "verdict":
                indices.append(record["index"])
    return indices


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--delay-ms", type=int, default=400,
        help="injected delay per even-indexed fault (default 400)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.85,
        help="dispatch wall-clock must be <= threshold * static "
             "(default 0.85)",
    )
    parser.add_argument(
        "--journal", default="dispatch_gate.jsonl",
        help="where the dispatch journal is written",
    )
    parser.add_argument(
        "--straggler-ms", type=int, default=1500,
        help="injected delay on fault index 1 (default 1500)",
    )
    args = parser.parse_args(argv)

    circuit, faults, patterns = _workload()
    os.environ[SCENARIO_ENV] = _skew(
        len(faults), args.delay_ms, args.straggler_ms
    )
    try:
        static_s, static_campaign = run_static(circuit, faults, patterns)
        dispatch_s, dispatch_campaign, stats = run_dispatch(
            circuit, faults, patterns, args.journal
        )
    finally:
        del os.environ[SCENARIO_ENV]

    ratio = dispatch_s / static_s if static_s else float("inf")
    print(f"static split (evens/odds, 2 workers)   : {static_s:6.2f} s")
    print(f"lease dispatch (2 workers, chunk_size 2): {dispatch_s:6.2f} s")
    print(f"ratio: {ratio:.2f} (threshold {args.threshold:.2f})")
    print(
        f"leases granted {stats.leases_granted}, "
        f"expired {stats.leases_expired}, stolen {stats.leases_stolen}, "
        f"duplicates dropped {stats.duplicates}"
    )

    failures = []
    if _signature(dispatch_campaign) != _signature(static_campaign):
        failures.append("dispatch verdicts differ from the static split")
    indices = journal_verdict_indices(args.journal)
    if sorted(indices) != list(range(len(faults))):
        failures.append(
            f"journal does not hold exactly one verdict per fault: "
            f"{len(indices)} records, {len(set(indices))} unique, "
            f"{len(faults)} faults"
        )
    if ratio > args.threshold:
        failures.append(
            f"dispatch did not beat the static split: ratio {ratio:.2f} "
            f"> {args.threshold:.2f}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("ok: no duplicates, identical verdicts, "
              "and dispatch beat the static split")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
