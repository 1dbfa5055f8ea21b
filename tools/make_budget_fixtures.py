#!/usr/bin/env python
"""Regenerate the MOT budget-charge fixture under ``tests/mot/golden/``.

``budget_charges.json`` freezes, for every fault of each workload in
:data:`WORKLOADS` and every simulator setting in :data:`RUNS`, the total
number of work events that an unbounded external
:class:`~repro.runner.budget.BudgetMeter` is charged while the fault is
simulated: the conventional step, the collected backward pairs, the
sequences created by expansion, the resimulated sequences and the [4]
fallback's share of all of these.  The replay test
(``tests/mot/test_budget_charges.py``) reruns every setting and compares
the totals fault by fault, so a rewrite of the MOT core that charges a
budget differently -- and so aborts different faults under the same
``--budget-events`` -- fails visibly.

Run from the repository root after an *intentional* change to what the
procedures charge:

    python tools/make_budget_fixtures.py

and commit the diff together with the change that explains it.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.circuits.registry import build_circuit
from repro.faults.sites import all_faults
from repro.mot.baseline import BaselineConfig, BaselineSimulator
from repro.mot.simulator import ProposedSimulator
from repro.patterns.random_gen import random_patterns
from repro.runner.budget import UNLIMITED, BudgetMeter

#: Workload name -> (registered circuit, pattern length, pattern seed).
WORKLOADS = {
    "s27": ("s27", 16, 1),
    "s208_like": ("s208_like", 16, 1),
    "s298_like": ("s298_like", 96, 1),
}

#: Run name -> simulator factory ``(circuit, patterns) -> simulator``.
RUNS = {
    "proposed": lambda c, p: ProposedSimulator(c, p),
    "baseline_oneshot": lambda c, p: BaselineSimulator(c, p),
    "baseline_iterative": lambda c, p: BaselineSimulator(
        c, p, BaselineConfig(schedule="iterative")
    ),
}

GOLDEN_DIR = os.path.join(ROOT, "tests", "mot", "golden")
FIXTURE = os.path.join(GOLDEN_DIR, "budget_charges.json")


def workload(name):
    """``(circuit, patterns, faults)`` of one :data:`WORKLOADS` entry."""
    source, length, seed = WORKLOADS[name]
    circuit = build_circuit(source)
    patterns = random_patterns(circuit.num_inputs, length, seed=seed)
    return circuit, patterns, all_faults(circuit)


def charges(simulator, faults):
    """Per fault, ``(events charged, status)`` on an unbounded meter."""
    simulator.prefilter(faults)
    rows = []
    for fault in faults:
        meter = BudgetMeter(UNLIMITED)
        verdict = simulator.simulate_fault(fault, meter)
        rows.append((meter.events, verdict.status))
    return rows


def fixture_payload():
    """JSON-serializable fixture: per workload and run, one
    ``"<fault> <events> <status>"`` row per fault (see :func:`parse_row`)."""
    payload = {}
    for name, (source, length, seed) in WORKLOADS.items():
        circuit, patterns, faults = workload(name)
        runs = {}
        for run, factory in RUNS.items():
            rows = charges(factory(circuit, patterns), faults)
            runs[run] = [
                f"{fault.describe(circuit)} {events} {status}"
                for fault, (events, status) in zip(faults, rows)
            ]
        payload[name] = {
            "source": source,
            "length": length,
            "pattern_seed": seed,
            "runs": runs,
        }
    return payload


def parse_row(row):
    """``(fault label, events, status)`` of one fixture row."""
    label, events, status = row.rsplit(" ", 2)
    return label, int(events), status


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    payload = fixture_payload()
    with open(FIXTURE, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    total = sum(
        parse_row(row)[1]
        for entry in payload.values()
        for rows in entry["runs"].values()
        for row in rows
    )
    print(f"wrote {os.path.relpath(FIXTURE, ROOT)} ({total} events)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
