"""Three-valued frame and sequential simulation.

Two implementations share one semantics.  The compiled two-plane
bit-parallel kernel (:mod:`repro.sim.ir` / :mod:`repro.sim.kernel`) runs
every campaign's good machine and every ``fsim`` fault batch.  The
per-gate plan interpreter (:mod:`repro.sim.frame` /
:mod:`repro.sim.sequential`) runs the MOT per-fault path, where width-1
evaluation is faster than the kernel, and is the oracle the differential
suite checks the kernel against.  :func:`simulate_sequence` takes
``engine="interp"`` (default) or ``engine="ir"`` to pick a side at the
call site.
"""

from repro.sim.frame import eval_frame, evaluate_plan, frame_plan
from repro.sim.goodcache import GoodMachineCache
from repro.sim.ir import CircuitIR, compile_circuit
from repro.sim.kernel import (
    CompiledFaultBatch,
    FaultBatchMasks,
    FramePlanes,
    compile_fault_batch,
    eval_frame_patterns,
    eval_frame_planes,
    simulate_fault_batch,
)
from repro.sim.sequential import (
    SequentialResult,
    outputs_conflict,
    simulate_injected,
    simulate_sequence,
)

__all__ = [
    "eval_frame",
    "evaluate_plan",
    "frame_plan",
    "CircuitIR",
    "compile_circuit",
    "CompiledFaultBatch",
    "FaultBatchMasks",
    "FramePlanes",
    "compile_fault_batch",
    "eval_frame_patterns",
    "eval_frame_planes",
    "simulate_fault_batch",
    "SequentialResult",
    "simulate_sequence",
    "simulate_injected",
    "outputs_conflict",
    "GoodMachineCache",
]
