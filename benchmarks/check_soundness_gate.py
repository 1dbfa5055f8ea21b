#!/usr/bin/env python
"""CI gate: the paper's soundness invariants on every enumerable stand-in.

For every registry circuit with at most
:data:`repro.verify.states.MAX_FREE_FLOPS` flip-flops, at its Table 2
workload (sequence length and seed) on its full collapsed fault list:

1. every ``mot`` verdict of the proposed procedure and of [4] is
   confirmed by the exhaustive restricted-MOT oracle
   (:func:`repro.verify.exhaustive.exhaustive_restricted_mot`), which
   simulates every faulty initial state;
2. conventional ⊆ proposed: every fault that conventional simulation
   detects, the proposed procedure detects;
3. [4] ⊆ proposed, fault by fault.

First, the packed oracle must agree with the test suite's serial
enumerator (``tests.helpers.serial_restricted_mot``, one interpreter
run per initial state) on every collapsed fault of s27, under every
prefix of its Table 2 sequence.  A packed oracle whose slot mask drops
states "confirms" faults that some dropped state leaves undetected;
the short prefixes, where detection still depends on the initial
state, are where s27 shows that.

Usage: ``python benchmarks/check_soundness_gate.py`` (no flags).  Exit
status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from repro.circuits.registry import benchmark_entries, get_entry  # noqa: E402
from repro.faults.collapse import collapse_faults  # noqa: E402
from repro.fsim.conventional import run_conventional  # noqa: E402
from repro.mot.baseline import BaselineSimulator  # noqa: E402
from repro.mot.simulator import ProposedSimulator  # noqa: E402
from repro.patterns.random_gen import random_patterns  # noqa: E402
from repro.sim.sequential import simulate_sequence  # noqa: E402
from repro.verify.exhaustive import exhaustive_restricted_mot  # noqa: E402
from repro.verify.states import MAX_FREE_FLOPS  # noqa: E402

from tests.helpers import serial_restricted_mot  # noqa: E402


def _workload(entry):
    circuit = entry.build()
    patterns = random_patterns(
        circuit.num_inputs, entry.sequence_length, seed=entry.seed
    )
    return circuit, collapse_faults(circuit), patterns


def check_serial_agreement(entry) -> list:
    """Packed and serial oracles agree on every fault of *entry*, under
    every prefix of its sequence."""
    circuit, faults, patterns = _workload(entry)
    failures = []
    for length in range(1, len(patterns) + 1):
        prefix = patterns[:length]
        reference = simulate_sequence(circuit, prefix).outputs
        failures += [
            f"{entry.name}: packed and serial oracles disagree on "
            f"{fault.describe(circuit)} after {length} patterns"
            for fault in faults
            if exhaustive_restricted_mot(circuit, fault, prefix, reference)
            != serial_restricted_mot(circuit, fault, prefix, reference)
        ]
    return failures


def check_circuit(entry) -> list:
    """The three invariants on one circuit; returns the failures."""
    circuit, faults, patterns = _workload(entry)
    reference = simulate_sequence(circuit, patterns).outputs
    proposed = ProposedSimulator(circuit, patterns).run(faults)
    baseline = BaselineSimulator(circuit, patterns).run(faults)
    conventional = run_conventional(circuit, faults, patterns)
    failures = []
    mot = {"proposed": 0, "[4]": 0}
    for name, campaign in (("proposed", proposed), ("[4]", baseline)):
        for verdict in campaign.verdicts:
            if verdict.status != "mot":
                continue
            mot[name] += 1
            if not exhaustive_restricted_mot(
                circuit, verdict.fault, patterns, reference
            ):
                failures.append(
                    f"{entry.name}: {name} mot verdict "
                    f"{verdict.fault.describe(circuit)} ({verdict.how}) "
                    "rejected by the exhaustive oracle"
                )
    detected = {v.fault for v in proposed.verdicts if v.detected}
    for name, verdicts in (
        ("conventional", conventional.verdicts),
        ("[4]", baseline.verdicts),
    ):
        for verdict in verdicts:
            if verdict.detected and verdict.fault not in detected:
                failures.append(
                    f"{entry.name}: {verdict.fault.describe(circuit)} "
                    f"detected by {name} but not by the proposed procedure"
                )
    print(
        f"  {entry.name:12s} {circuit.num_flops:2d} FFs "
        f"{len(faults):4d} faults  mot confirmed: "
        f"proposed {mot['proposed']}, [4] {mot['[4]']}"
    )
    return failures


def main() -> int:
    entries = [
        entry for entry in benchmark_entries()
        if entry.build().num_flops <= MAX_FREE_FLOPS
    ]
    failures = check_serial_agreement(get_entry("s27"))
    print(f"serial cross-check on s27: {'FAILED' if failures else 'ok'}")
    for entry in entries:
        started = time.perf_counter()
        failures += check_circuit(entry)
        print(f"  {'':12s} {time.perf_counter() - started:.1f} s")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"soundness gate: {len(entries)} circuits ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
