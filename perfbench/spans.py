"""Outside-in span tracer for one campaign of the MOT fault simulator.

Nothing inside ``src/`` knows about this module.  :func:`install`
replaces the public functions each layer exposes -- module attributes
where a caller looks them up by name, class attributes for methods --
with wrappers that open a span around the call, and the returned
:class:`Patches` handle puts the originals back.  A span records its name, its parent (the span
open when it started), its duration and the part of that duration its
child spans cover; a layer's *self time* is duration minus children.

Spans are aggregated in memory by their path from the root
(``campaign/runner.executor/mot.fault/mot.backward``), so the result is
a self-time tree.  The root span's own self time is the explicit
``other`` row: campaign wall time no wrapped layer accounts for.  By
construction the self times of all nodes, ``other`` included, sum to
the root's duration.

Counters are recorded at the same boundaries (calls into the frame
evaluator, implication runs, kernel passes, outcome counts), and every
span opened while a fault is being simulated is also charged to that
fault's cost record.  Spans are taken in this process only: sharded
workloads would need each worker to ship its tracer home, and none is
traced.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Path = Tuple[str, ...]


class Tracer:
    """Span stack plus aggregated self-time tree, counters, fault records."""

    def __init__(self) -> None:
        # Each open frame: [path, start, child seconds].
        self.stack: List[list] = []
        # path -> [self seconds, total seconds, calls]
        self.nodes: Dict[Path, List[float]] = {}
        self.counts: Counter = Counter()
        self.faults: List[Dict[str, Any]] = []
        self.fault: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else ()
        self.stack.append([parent + (name,), time.perf_counter(), 0.0])

    def exit(self) -> float:
        path, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        own = duration - child
        node = self.nodes.get(path)
        if node is None:
            node = self.nodes[path] = [0.0, 0.0, 0]
        node[0] += own
        node[1] += duration
        node[2] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if self.fault is not None:
            split = self.fault["split"]
            split[path[-1]] = split.get(path[-1], 0.0) + own
        return duration

    # ------------------------------------------------------------------
    def self_time(self, name: str) -> float:
        return sum(v[0] for p, v in self.nodes.items() if p[-1] == name)

    def total_time(self, name: str) -> float:
        return sum(v[1] for p, v in self.nodes.items() if p[-1] == name)

    def calls(self, name: str) -> int:
        return int(sum(v[2] for p, v in self.nodes.items() if p[-1] == name))


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, value)

    def everywhere(self, original: Callable, replacement: Callable) -> None:
        """Rebind every loaded ``repro`` module's name for *original*."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def spanned(
    tracer: Tracer,
    name: str,
    fn: Callable,
    after: Optional[Callable[[Tracer, Any], None]] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, result)
        return result

    return wrapper


def counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _fault_span(tracer: Tracer, fn: Callable) -> Callable:
    """Per-fault span around ``ProposedSimulator.simulate_fault``."""

    @functools.wraps(fn)
    def wrapper(self: Any, fault: Any, *args: Any, **kwargs: Any) -> Any:
        record = {
            "fault": fault.describe(self.circuit),
            "status": "raised",
            "how": "",
            "split": {},
        }
        tracer.fault = record
        tracer.enter("mot.fault")
        try:
            verdict = fn(self, fault, *args, **kwargs)
            record["status"], record["how"] = verdict.status, verdict.how
            return verdict
        finally:
            record["total_s"] = tracer.exit()
            tracer.fault = None
            tracer.faults.append(record)
            tracer.counts[f"verdict.{record['status']}"] += 1
            if record["how"] == "info":
                tracer.counts["mot.backward.info_detects"] += 1

    return wrapper


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary of a campaign; returns the undo handle."""
    import repro.fsim.parallel as fsim_parallel
    import repro.mot.baseline as baseline
    import repro.mot.simulator as simulator
    import repro.runner.campaign as campaign
    import repro.sim.frame as frame
    import repro.sim.kernel as kernel
    from repro.mot.backward import BackwardCollector
    from repro.mot.implication import FrameEngine
    from repro.runner.harness import CampaignHarness
    from repro.runner.supervisor import SupervisedCampaignRunner
    from repro.sim.goodcache import GoodMachineCache

    patches = Patches()

    def wrap_attr(owner: Any, attr: str, name: str, after: Any = None) -> None:
        patches.set(owner, attr, spanned(tracer, name, getattr(owner, attr), after))

    # -- set-up (repro.runner.campaign, repro.circuits, repro.faults) ---
    wrap_attr(campaign.CampaignSpec, "build_circuit", "circuit.build")
    wrap_attr(campaign, "collapse_faults", "faults.collapse")
    wrap_attr(campaign, "random_patterns", "patterns.random")
    wrap_attr(campaign, "_build_simulator", "mot.simulator.build")
    compute = GoodMachineCache.__dict__["compute"].__func__
    patches.set(
        GoodMachineCache, "compute",
        classmethod(spanned(tracer, "sim.goodcache", compute)),
    )

    # -- executors (repro.runner) ---------------------------------------
    wrap_attr(CampaignHarness, "run", "runner.executor")
    wrap_attr(SupervisedCampaignRunner, "run", "runner.executor")
    wrap_attr(campaign, "_run_fsim", "runner.executor")

    # -- Procedure 1 (repro.mot, repro.faults, repro.sim) ---------------
    patches.set(
        simulator.ProposedSimulator, "simulate_fault",
        _fault_span(tracer, simulator.ProposedSimulator.simulate_fault),
    )
    wrap_attr(simulator, "inject_fault", "faults.inject")
    wrap_attr(simulator, "simulate_injected", "sim.conv_sim")
    wrap_attr(simulator, "mot_profile", "mot.condition_c")

    def after_collect(t: Tracer, info: Any) -> None:
        t.counts["mot.backward.pairs"] += len(info)

    wrap_attr(BackwardCollector, "collect", "mot.backward", after_collect)
    for method in ("imply", "imply_two_pass"):
        patches.set(
            FrameEngine, method,
            counted(tracer, "mot.implication.runs", getattr(FrameEngine, method)),
        )

    def after_expand(t: Tracer, outcome: Any) -> None:
        t.counts["mot.expansion.sequences"] += len(outcome.sequences)
        if outcome.detected_in_phase1:
            t.counts["mot.expansion.phase1_detects"] += 1

    wrap_attr(simulator, "expand", "mot.expansion", after_expand)

    def after_resim(t: Tracer, status: Any) -> None:
        if status.value != "unresolved":
            t.counts["mot.resim.resolved"] += 1

    wrap_attr(simulator, "resimulate_sequence", "mot.resim", after_resim)

    # -- the [4] fallback (repro.mot.baseline) --------------------------
    def after_fallback(t: Tracer, detected: bool) -> None:
        if detected:
            t.counts["mot.fallback.detects"] += 1

    wrap_attr(
        simulator.ProposedSimulator, "_fallback_detects", "mot.fallback",
        after_fallback,
    )
    wrap_attr(baseline, "inject_fault", "mot.fallback.inject")
    wrap_attr(baseline, "simulate_injected", "mot.fallback.conv_sim")
    wrap_attr(baseline, "mot_profile", "mot.fallback.condition_c")
    wrap_attr(baseline, "resimulate_sequence", "mot.fallback.resim")
    wrap_attr(baseline.BaselineSimulator, "_choose_pair", "mot.fallback.choose_pair")

    # -- conventional fault simulation on the kernel (repro.sim.kernel) -
    wrap_attr(fsim_parallel, "simulate_sequence", "sim.good_sim")

    def after_compile(t: Tracer, batch: Any) -> None:
        t.counts["sim.kernel.slots_used"] += len(batch.faults)

    wrap_attr(kernel, "compile_fault_batch", "sim.kernel.compile_batch", after_compile)
    wrap_attr(kernel, "simulate_fault_batch", "sim.kernel.fault_batch")

    # -- machine-independent work counters ------------------------------
    patches.everywhere(
        frame.eval_frame, counted(tracer, "sim.frame.evals", frame.eval_frame)
    )
    patches.everywhere(
        kernel.eval_pass,
        counted(tracer, "sim.kernel.eval_pass.calls", kernel.eval_pass),
    )
    return patches

