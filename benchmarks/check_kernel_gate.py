#!/usr/bin/env python
"""CI gate for the compiled IR kernel: bit identity, then speed.

The kernel (:mod:`repro.sim.ir` / :mod:`repro.sim.kernel`) replaces the
per-gate interpreter on every simulation hot path, so this script
enforces the two halves of its acceptance criterion in order:

1. **Verdict and value identity** on a seeded differential workload --
   random Moore machines plus the s27 library circuit, driven through
   frame evaluation (interpreter vs width-1 kernel vs packed PPSFP
   slots), sequential simulation (with X initial states and per-frame
   capture), conventional fault simulation (serial vs the kernel's
   plane-mask fault batches) and the batches' condition (C) mask (vs
   ``mot_profile(...).condition_c()`` of each injected circuit's
   interpreted simulation).  Any mismatch fails before a single timer
   starts: a fast wrong kernel is worthless.

2. **Throughput**: packed PPSFP frame evaluation on ``s5378_like``
   (the largest stand-in, the circuit named by the acceptance
   criterion) must be at least ``MIN_SPEEDUP``x faster *per pattern*
   than the interpreted ``eval_frame``, at width ``PPSFP_WIDTH``.
   Measured as best-of-``ROUNDS`` on both sides to shrug off CI noise.

Exit code 0 when both gates hold, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.circuits.generators import random_moore
from repro.circuits.library import s27
from repro.circuits.registry import build_circuit
from repro.faults.injection import inject_fault
from repro.faults.sites import all_faults
from repro.fsim.conventional import run_conventional
from repro.fsim.parallel import DEFAULT_BATCH, run_parallel_conventional
from repro.logic.values import UNKNOWN
from repro.mot.conditions import mot_profile
from repro.patterns.random_gen import random_patterns
from repro.sim.frame import eval_frame
from repro.sim.ir import compile_circuit
from repro.sim.kernel import (
    compile_fault_batch,
    eval_frame_planes,
    eval_frame_values,
    simulate_fault_batch,
    simulate_sequence_ir,
)
from repro.sim.sequential import simulate_injected, simulate_sequence

#: Random differential workload: (circuit seed, pattern seed) pairs.
RANDOM_SEEDS = tuple((seed, seed * 7 + 1) for seed in range(10))
#: Throughput gate: packed width, measurement rounds, required ratio.
PPSFP_WIDTH = 256
ROUNDS = 5
MIN_SPEEDUP = 10.0


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    raise SystemExit(1)


# ----------------------------------------------------------------------
# Gate 1: identity
# ----------------------------------------------------------------------
def check_identity_on(circuit, patterns, faults) -> None:
    # Frame values, every frame of the sequential trajectory.
    interp_seq = simulate_sequence(circuit, patterns, keep_frames=True)
    ir_seq = simulate_sequence_ir(circuit, patterns, keep_frames=True)
    if (
        interp_seq.states != ir_seq.states
        or interp_seq.outputs != ir_seq.outputs
        or interp_seq.frames != ir_seq.frames
    ):
        fail(f"sequential trajectory mismatch on {circuit.name}")
    # Packed PPSFP slots vs per-pattern interpretation (all-X state).
    state = [UNKNOWN] * circuit.num_flops
    planes = eval_frame_planes(circuit, patterns)
    for slot, pattern in enumerate(patterns):
        expected = eval_frame(circuit, pattern, state)
        if planes.line_values(slot) != expected:
            fail(f"PPSFP slot {slot} mismatch on {circuit.name}")
        if eval_frame_values(circuit, pattern, state) != expected:
            fail(f"width-1 kernel mismatch on {circuit.name}")
    # Fault verdicts: serial vs the kernel fault batches.
    serial = run_conventional(circuit, faults, patterns)
    campaign = run_parallel_conventional(circuit, faults, patterns)
    for expected_v, got in zip(serial.verdicts, campaign.verdicts):
        if expected_v.detected != got.detected:
            fail(
                f"kernel verdict mismatch on {circuit.name}: "
                f"{expected_v.fault.describe(circuit)}"
            )
    # Condition (C): the batches' mask vs the interpreted profile.
    reference = interp_seq.outputs
    for start in range(0, len(faults), DEFAULT_BATCH):
        chunk = faults[start:start + DEFAULT_BATCH]
        masks = simulate_fault_batch(
            circuit, compile_fault_batch(circuit, chunk), patterns, reference
        )
        for j, fault in enumerate(chunk):
            faulty = simulate_injected(inject_fault(circuit, fault), patterns)
            profile = mot_profile(faulty.states, reference, faulty.outputs)
            if bool(masks.condition_c >> j & 1) != profile.condition_c():
                fail(
                    f"kernel condition (C) mismatch on {circuit.name}: "
                    f"{fault.describe(circuit)}"
                )


def check_identity() -> None:
    library = s27()
    check_identity_on(
        library, random_patterns(4, 24, seed=0), all_faults(library)
    )
    for circuit_seed, pattern_seed in RANDOM_SEEDS:
        circuit = random_moore(
            circuit_seed, num_inputs=3, num_flops=3, num_gates=18
        )
        patterns = random_patterns(
            circuit.num_inputs, 10, seed=pattern_seed
        )
        check_identity_on(circuit, patterns, all_faults(circuit))
    workload = len(RANDOM_SEEDS) + 1
    print(
        f"identity: OK ({workload} circuits, interpreter/serial vs kernel)"
    )


# ----------------------------------------------------------------------
# Gate 2: throughput
# ----------------------------------------------------------------------
def best_of(rounds, thunk) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def check_throughput() -> None:
    circuit = build_circuit("s5378_like")
    compile_circuit(circuit)  # compile once, outside both timers
    patterns = random_patterns(circuit.num_inputs, PPSFP_WIDTH, seed=0)
    state = [UNKNOWN] * circuit.num_flops
    eval_frame(circuit, patterns[0], state)  # warm the frame plan too

    def interp_all():
        for pattern in patterns:
            eval_frame(circuit, pattern, state)

    interp_s = best_of(ROUNDS, interp_all)
    packed_s = best_of(ROUNDS, lambda: eval_frame_planes(circuit, patterns))
    speedup = interp_s / packed_s
    per_pattern_us = packed_s / PPSFP_WIDTH * 1e6
    print(
        f"throughput: {PPSFP_WIDTH} frames on {circuit.name}: interpreter "
        f"{interp_s * 1e3:.1f} ms, packed kernel {packed_s * 1e3:.2f} ms "
        f"({per_pattern_us:.1f} us/pattern) -> {speedup:.1f}x"
    )
    if speedup < MIN_SPEEDUP:
        fail(
            f"packed frame evaluation is only {speedup:.1f}x the "
            f"interpreter (gate: >= {MIN_SPEEDUP:.0f}x)"
        )


def main() -> int:
    check_identity()
    check_throughput()
    print("kernel gate: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
