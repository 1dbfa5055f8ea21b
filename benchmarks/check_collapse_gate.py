"""Fault-collapsing soundness guard (CI gate, plain script -- no pytest).

``--collapse classes`` prunes a campaign to one representative per
structural equivalence class and expands the representative's verdict to
every class member afterwards.  That is only a win if it is *invisible*
in the results -- this script keeps the claim honest:

1. **Verdict identity** -- on a differential corpus of example circuits
   (s27, fig4, learned_demo and seeded random Moore machines), a
   collapsed campaign's expanded per-fault verdicts must equal the
   uncollapsed run's, fault by fault.  The ``(fault, status)`` CSV
   projection must match byte for byte.  (The *full* CSV rows may
   differ legitimately: the paper's per-fault effort counters describe
   the representative's simulation, and the collapsed run adds the
   ``expanded_from`` provenance column.)
2. **Reduction floor** -- the partition must prune at least
   ``--min-reduction`` percent (default 30) of the stuck-at universe on
   ``s5378_like``; a rule regression that silently stops merging
   classes fails here even though verdicts stay correct.
3. **Deterministic analysis** -- two ``repro analyze --format json``
   runs over the same circuit must emit identical bytes: the dispatch
   order derived from these scores must not depend on dict order,
   wall clock or RNG state.
4. **Ordered dispatch identity** -- a distributed collapsed run (two
   in-process hosts, hardest-first lease order) must produce exactly
   the serial run's expanded verdicts: ordering is wall-clock policy,
   never semantics.

Exit status 0 when all four hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import sys

from repro.analysis.collapse import fault_classes
from repro.circuits.generators import random_moore
from repro.circuits.library import fig4, s27
from repro.circuits.registry import build_circuit
from repro.mot.simulator import ProposedSimulator
from repro.patterns.random_gen import random_patterns
from repro.reporting.campaign import campaign_csv
from repro.runner.campaign import CampaignSpec, run_campaign


def _corpus():
    """(name, circuit, patterns) triples for the differential sweep."""
    from repro.circuit.bench import load_bench

    demo = load_bench("examples/circuits/learned_demo.bench")
    entries = [
        ("s27", s27(), random_patterns(4, 16, seed=3)),
        ("fig4", fig4(), random_patterns(fig4().num_inputs, 12, seed=4)),
        ("learned_demo", demo, random_patterns(demo.num_inputs, 10, seed=11)),
    ]
    for seed in (35, 57, 62):
        circuit = random_moore(seed, num_inputs=2, num_flops=3, num_gates=12)
        entries.append(
            (f"random_moore_{seed}", circuit, random_patterns(2, 8, seed=seed))
        )
    return entries


def _status_projection(campaign, circuit) -> str:
    """The ``(fault, status)`` columns of the campaign CSV, as text."""
    reader = csv.DictReader(io.StringIO(campaign_csv(campaign, circuit)))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["fault", "status"])
    for row in reader:
        writer.writerow([row["fault"], row["status"]])
    return out.getvalue()


def _expand(campaign, partition, circuit):
    from repro.runner.campaign import _expand_campaign

    return _expand_campaign(campaign, partition, circuit)


def check_verdict_identity(failures) -> None:
    for name, circuit, patterns in _corpus():
        partition = fault_classes(circuit)
        full = ProposedSimulator(circuit, patterns).run(
            list(partition.universe)
        )
        reps = ProposedSimulator(circuit, patterns).run(
            partition.representatives()
        )
        expanded = _expand(reps, partition, circuit)
        full_statuses = {v.fault: v.status for v in full.verdicts}
        expanded_statuses = {v.fault: v.status for v in expanded.verdicts}
        mismatches = [
            fault.describe(circuit)
            for fault in partition.universe
            if full_statuses[fault] != expanded_statuses[fault]
        ]
        if mismatches:
            failures.append(
                f"{name}: {len(mismatches)} expanded verdict(s) differ "
                f"from the uncollapsed run (first: {mismatches[0]})"
            )
            continue
        if _status_projection(expanded, circuit) != _status_projection(
            full, circuit
        ):
            failures.append(f"{name}: (fault, status) CSV projection differs")
            continue
        print(
            f"verdicts identical on {name}: {partition.universe_size} faults "
            f"== {partition.num_classes} expanded classes"
        )


def check_reduction_floor(failures, min_reduction: float) -> None:
    circuit = build_circuit("s5378_like")
    partition = fault_classes(circuit)
    print(
        f"s5378_like: {partition.universe_size} faults -> "
        f"{partition.num_classes} classes "
        f"({partition.reduction_percent:.1f}% pruned)"
    )
    if partition.reduction_percent < min_reduction:
        failures.append(
            f"s5378_like reduction {partition.reduction_percent:.1f}% "
            f"below the {min_reduction:.0f}% floor"
        )


def _analyze_once() -> str:
    from repro.cli import main as cli_main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli_main(["analyze", "s27", "--format", "json"])
    if status != 0:
        raise AssertionError(f"repro analyze exited {status}")
    return buffer.getvalue()


def check_analyze_determinism(failures) -> None:
    first, second = _analyze_once(), _analyze_once()
    if first != second:
        failures.append("repro analyze output differs between two runs")
    else:
        print(f"repro analyze deterministic ({len(first)} bytes, two runs)")


def check_ordered_dispatch(failures) -> None:
    base = dict(circuit="s27", length=16, seed=3, n_states=16,
                n_references=4, collapse="classes")
    serial = run_campaign(CampaignSpec(**base))
    distributed = run_campaign(
        CampaignSpec(hosts=("alpha", "beta"), chunk_size=4, **base)
    )
    serial_statuses = {v.fault: v.status for v in serial.campaign.verdicts}
    dist_statuses = {v.fault: v.status for v in distributed.campaign.verdicts}
    if serial_statuses != dist_statuses:
        failures.append(
            "hardest-first distributed verdicts differ from the serial run"
        )
    else:
        print(
            f"ordered dispatch identical to serial "
            f"({len(serial_statuses)} expanded verdicts)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-reduction", type=float, default=30.0,
        help="minimum percent of s5378_like faults the partition must "
             "prune (default 30)",
    )
    parser.add_argument(
        "--skip-dispatch", action="store_true",
        help="skip the distributed-run identity check (fast mode)",
    )
    args = parser.parse_args(argv)

    failures: list = []
    check_verdict_identity(failures)
    check_reduction_floor(failures, args.min_reduction)
    check_analyze_determinism(failures)
    if not args.skip_dispatch:
        check_ordered_dispatch(failures)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("ok: collapsing is invisible in verdicts, prunes enough, "
              "and analysis/dispatch stay deterministic")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
