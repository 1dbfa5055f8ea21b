#!/usr/bin/env python
"""Regenerate the MOT verdict fixtures under ``tests/mot/golden/``.

Each ``<name>.verdicts.json`` fixture freezes the full per-fault
``campaign_csv`` output (status, how, ``N_det``/``N_conf``/``N_extra``,
sequences, expansions) of one circuit under every simulator setting in
:data:`RUNS`: the proposed procedure with the fixpoint and two-pass
implication schedules and with two-frame backward implication
(``backward_depth=2``), the [4] baseline with its one-shot and
iterative schedules, and the unrestricted generalization (fault-free
reference expansion, then the proposed procedure against each
reference).  The replay test
(``tests/mot/test_verdict_fixtures.py``) reruns every setting and
compares the CSV text byte for byte, so an optimization of the MOT core
that changes any verdict -- or merely an ``extra`` set, which changes
``N_extra`` and through it the phase-2 pair selection -- fails visibly.

Run from the repository root after an *intentional* behaviour change:

    python tools/make_verdict_fixtures.py

and commit the diff together with the change that explains it.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.circuit.bench import load_bench
from repro.circuits.generators import random_moore
from repro.circuits.registry import build_circuit
from repro.faults.sites import all_faults
from repro.mot.baseline import BaselineConfig, BaselineSimulator
from repro.mot.simulator import MotConfig, ProposedSimulator
from repro.mot.unrestricted import UnrestrictedSimulator
from repro.patterns.random_gen import random_patterns
from repro.reporting.campaign import campaign_csv

#: Fixture name -> (circuit source, pattern length, pattern seed).  A
#: source is a ``.bench`` path, a registered circuit name, or
#: ``random_moore:<seed>`` (2 inputs, 3 flops, 12 gates).  The first
#: six entries are the collapse gate's differential corpus.  The last
#: three machines never initialize: their fault-free response is X at
#: every position, so condition (C) drops every fault of the restricted
#: runs, and only the unrestricted run's reference expansion (which
#: starts from an all-X good machine there) exercises MOT code.
WORKLOADS = {
    "s27": ("examples/circuits/s27.bench", 16, 3),
    "fig4": ("examples/circuits/fig4.bench", 12, 4),
    "learned_demo": ("examples/circuits/learned_demo.bench", 10, 11),
    "random_moore_35": ("random_moore:35", 8, 35),
    "random_moore_57": ("random_moore:57", 8, 57),
    "random_moore_62": ("random_moore:62", 8, 62),
    "toggle": ("examples/circuits/toggle.bench", 16, 1),
    "s208_like": ("s208_like", 16, 1),
    "random_moore_11": ("random_moore:11", 8, 11),
    "random_moore_23": ("random_moore:23", 8, 23),
    "random_moore_47": ("random_moore:47", 8, 47),
}

#: Run name -> simulator factory ``(circuit, patterns) -> simulator``.
RUNS = {
    "proposed_fixpoint": lambda c, p: ProposedSimulator(c, p),
    "proposed_two_pass": lambda c, p: ProposedSimulator(
        c, p, MotConfig(implication_mode="two_pass")
    ),
    "proposed_depth2": lambda c, p: ProposedSimulator(
        c, p, MotConfig(backward_depth=2)
    ),
    "baseline_oneshot": lambda c, p: BaselineSimulator(c, p),
    "baseline_iterative": lambda c, p: BaselineSimulator(
        c, p, BaselineConfig(schedule="iterative")
    ),
    "unrestricted": lambda c, p: UnrestrictedSimulator(c, p),
}

GOLDEN_DIR = os.path.join(ROOT, "tests", "mot", "golden")


def build(source):
    """The circuit a :data:`WORKLOADS` source names."""
    if source.endswith(".bench"):
        return load_bench(os.path.join(ROOT, source))
    if source.startswith("random_moore:"):
        seed = int(source.split(":", 1)[1])
        return random_moore(seed, num_inputs=2, num_flops=3, num_gates=12)
    return build_circuit(source)


def run_csv(circuit, patterns, run):
    """``campaign_csv`` text of *run* over every fault of *circuit*."""
    campaign = RUNS[run](circuit, patterns).run(all_faults(circuit))
    return campaign_csv(campaign, circuit)


def fixture_payload(name):
    """JSON-serializable fixture of one :data:`WORKLOADS` entry.

    Each run's CSV is kept as its list of lines, terminators included,
    so the fixture diffs line by line and joins back to the exact text.
    """
    source, length, seed = WORKLOADS[name]
    circuit = build(source)
    patterns = random_patterns(circuit.num_inputs, length, seed=seed)
    return {
        "source": source,
        "length": length,
        "pattern_seed": seed,
        "faults": len(all_faults(circuit)),
        "runs": {
            run: run_csv(circuit, patterns, run).splitlines(keepends=True)
            for run in RUNS
        },
    }


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in WORKLOADS:
        fixture = fixture_payload(name)
        out_path = os.path.join(GOLDEN_DIR, f"{name}.verdicts.json")
        with open(out_path, "w") as handle:
            json.dump(fixture, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(
            f"wrote {os.path.relpath(out_path, ROOT)} "
            f"({fixture['faults']} faults x {len(RUNS)} runs)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
