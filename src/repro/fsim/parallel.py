"""Bit-parallel conventional fault simulation on the compiled IR kernel.

The serial simulator in :mod:`repro.fsim.conventional` evaluates one
faulty circuit at a time.  This module runs the classic parallel-fault
technique instead: the fault list is compiled into plane-mask forces
(:func:`repro.sim.kernel.compile_fault_batch`; slot 0 is the fault-free
machine, slot ``j + 1`` holds fault ``j``) and one levelized two-plane
pass per time frame simulates the whole batch
(:func:`repro.sim.kernel.simulate_fault_batch`).  No reference is
passed, so every fault is compared with slot 0 of the same pass, and
slot 0's trajectory becomes :attr:`ConventionalCampaign.reference`: the
good machine is never simulated on its own, except for an empty fault
list.  The kernel's planes are Python ints with no word size, and the
cost of a pass grows far slower than its width, so the whole list is
one batch: only a list longer than :data:`DEFAULT_BATCH` faults is
split.

Verdicts are bit-identical to the serial simulator (asserted in
``tests/fsim/test_parallel.py`` and ``tests/sim/test_ir_differential.py``,
including property tests); only the detection *site* is not tracked.
This is the conventional simulator every ``fsim`` campaign runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.fsim.conventional import ConventionalCampaign, ConventionalVerdict
from repro.obs.metrics import get_metrics
from repro.sim.sequential import SequentialResult, simulate_sequence

#: Most faults per kernel batch (plus the fault-free slot 0): a bound
#: no registry fault list reaches, so a campaign's list is one batch.
DEFAULT_BATCH = 1 << 16


def run_parallel_conventional(
    circuit: Circuit,
    faults: Sequence[Fault],
    patterns: Sequence[Sequence[int]],
    batch: int = DEFAULT_BATCH,
    engine: str = "ir",
) -> ConventionalCampaign:
    """Simulate *faults* as one kernel batch (at most *batch* faults
    per batch) and return per-fault verdicts.

    Detection semantics are identical to
    :func:`repro.fsim.conventional.run_conventional`; detection sites
    are not tracked (``site is None``).  The campaign's ``reference`` is
    the batches' fault-free slot 0.  *engine* accepts only ``"ir"``
    and is kept for callers that still pass it.
    """
    if batch < 1:
        raise ValueError("batch must be positive")
    if engine != "ir":
        raise ValueError(
            f"engine {engine!r} is not available: the engine selector "
            "was removed and only 'ir' is accepted"
        )
    # Looked up at call time, so a wrapper installed on the kernel
    # module's attributes sees every batch.
    from repro.sim.kernel import compile_fault_batch, simulate_fault_batch

    metrics = get_metrics()
    verdicts: List[ConventionalVerdict] = []
    reference: Optional[SequentialResult] = None
    with metrics.phase("fsim"):
        for start in range(0, len(faults), batch):
            chunk = list(faults[start:start + batch])
            masks = simulate_fault_batch(
                circuit, compile_fault_batch(circuit, chunk), patterns
            )
            reference = masks.good
            if metrics.enabled:
                metrics.counter("fsim.parallel.batches")
            for position, fault in enumerate(chunk):
                verdicts.append(
                    ConventionalVerdict(
                        fault=fault,
                        detected=bool((masks.detected >> position) & 1),
                        site=None,
                    )
                )
        if reference is None:  # no fault, so no batch ran
            reference = simulate_sequence(circuit, patterns, engine="ir")
    if metrics.enabled:
        metrics.counter("fsim.parallel.faults", len(verdicts))
    return ConventionalCampaign(
        circuit_name=circuit.name,
        reference=reference,
        verdicts=verdicts,
    )
