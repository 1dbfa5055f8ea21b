"""The proposed MOT fault simulator (paper Procedure 1).

For every fault:

1. conventional three-valued simulation; conventionally detected faults
   are dropped immediately;
2. the necessary condition (C) is checked; faults that cannot possibly
   benefit from expansion are dropped as NOT detected;
3. backward-implication information is collected for every unspecified
   state variable / time unit (Section 3.1);
4. if the information alone proves detection (Section 3.2), stop;
5. otherwise Procedure 2 expands the state sequences (phase 1: free
   restrictions from closed branches; phase 2: duplicating expansions up
   to ``N_STATES``), and Section 3.4 resimulation resolves each sequence.
   The fault is detected when every sequence resolves.

Soundness of the phase-1 "mutual conflict" shortcut: a restriction coming
from a *conflict* branch holds for **every** feasible state; one coming
from a *detection* branch holds for every feasible **not-yet-detected**
state.  If the restrictions cannot be satisfied simultaneously, no
feasible undetected state exists -- and since at least one detection
branch must be involved (conflict-only restrictions are simultaneously
satisfied by any conventional trajectory), every initial state of the
faulty circuit leads to a detected response.  This shortcut is exercised
against the exhaustive oracle in the test suite.

The per-fault counters of Table 3 are also maintained here:
``N_det(f)`` / ``N_conf(f)`` count closed branches over the phase-1 pairs
(plus the Section 3.2 witness), and ``N_extra(f)`` accumulates the sizes
of the extra sets actually applied.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.errors import BudgetExceeded, VERDICT_STATUSES
from repro.faults.injection import InjectedFault, inject_fault
from repro.faults.model import Fault
from repro.mot.backward import BackwardCollector, detection_from_info
from repro.mot.conditions import MotProfile, mot_profile
from repro.mot.expansion import DEFAULT_N_STATES, expand
from repro.mot.resimulate import SequenceStatus, resimulate_sequence
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.runner.budget import BudgetMeter, FaultBudget
from repro.sim.goodcache import GoodMachineCache
from repro.sim.sequential import (
    outputs_conflict,
    simulate_injected,
    simulate_sequence,
)


def fault_label(circuit: Circuit, fault: Fault) -> str:
    """Human-readable trace label of *fault* (stable across processes)."""
    names = circuit.line_names
    name = names[fault.line] if 0 <= fault.line < len(names) else str(fault.line)
    label = f"{name}/{fault.stuck_at}"
    if fault.pin is not None:
        label += f"@{fault.pin.kind}{fault.pin.index}.{fault.pin.pos}"
    return label


@dataclass(frozen=True)
class MotConfig:
    """Tuning knobs of the proposed procedure.

    Attributes
    ----------
    n_states:
        The ``N_STATES`` limit on expanded sequences (paper: 64).
    implication_mode:
        ``"fixpoint"`` (worklist, default) or ``"two_pass"`` (the paper's
        exact two-sweep schedule).
    backward_depth:
        How many time units backward implications may cross (paper: 1).
    budget:
        Optional per-fault work / wall-clock budget
        (:class:`~repro.runner.budget.FaultBudget`).  An exhausted
        budget yields an explicit ``"aborted"``/``"budget"`` verdict
        instead of an unbounded simulation.
    """

    n_states: int = DEFAULT_N_STATES
    implication_mode: str = "fixpoint"
    backward_depth: int = 1
    budget: Optional[FaultBudget] = None
    #: Engine of the good-machine simulation: ``"ir"`` (the compiled
    #: two-plane kernel, default) or ``"interp"`` (the per-gate plan
    #: interpreter).  Both are bit-identical (the cross-engine
    #: differential suite enforces it); the MOT frame engine itself --
    #: backward implications, expansion, resimulation -- always runs
    #: interpreted, it merely *sources* fault-free values from here.
    sim_engine: str = "ir"
    #: Run the static learning pass (:mod:`repro.analysis.learning`) once
    #: at construction and consult the learned indirect implications
    #: during every backward probe.  Learned implications are applied as
    #: conflict checks only, so campaign verdicts are unchanged; probes
    #: on infeasible branches conflict earlier (``learning.hits`` /
    #: ``learning.conflicts_early`` metrics) and expansion shrinks.
    learning: bool = False
    #: When the backward-driven expansion fails to resolve every sequence,
    #: retry once with the forward trial-gain selection of [4] (the
    #: proposed tool subsumes the [4] expansion, so its detections are a
    #: superset of the baseline's -- the paper reports exactly this:
    #: "All the faults identified as detected in [4] are also identified
    #: by the proposed procedure").  Disable to measure the pure
    #: Procedure-2 selection in the ablation benches.
    forward_fallback: bool = True


@dataclass
class FaultCounters:
    """Table 3 per-fault counters."""

    n_det: int = 0
    n_conf: int = 0
    n_extra: int = 0


@dataclass
class FaultVerdict:
    """Outcome of simulating one fault.

    ``status`` is one of:

    * ``"conv"``       -- detected by conventional simulation;
    * ``"mot"``        -- detected by the MOT procedure;
    * ``"dropped"``    -- failed the necessary condition (C), not detected;
    * ``"undetected"`` -- survived the full procedure;
    * ``"aborted"``    -- the per-fault budget ran out (``how`` is
      ``"budget"``, ``detail`` says which limit tripped);
    * ``"errored"``    -- the simulation raised and was quarantined by
      the campaign harness (``how`` is the exception class, ``detail``
      the captured traceback).

    ``how`` records the step that established a ``"mot"`` detection
    (``"info"`` for Section 3.2, ``"phase1"`` for mutually conflicting
    restrictions, ``"resim"`` for Section 3.4).

    ``expanded_from`` is empty for simulated faults; a class-collapsed
    campaign (``collapse="classes"``) sets it to the describe-string of
    the equivalence-class representative whose verdict this fault
    inherited, so reports and CSVs keep the provenance visible.
    """

    fault: Fault
    status: str
    how: str = ""
    counters: FaultCounters = field(default_factory=FaultCounters)
    num_sequences: int = 0
    num_expansions: int = 0
    detail: str = ""
    expanded_from: str = ""

    def __post_init__(self) -> None:
        if self.status not in VERDICT_STATUSES:
            raise ValueError(
                f"unknown verdict status {self.status!r}; must be one of "
                f"{VERDICT_STATUSES}"
            )

    @property
    def detected(self) -> bool:
        return self.status in ("conv", "mot")


@dataclass
class Campaign:
    """Aggregated results of a fault-simulation run."""

    circuit_name: str
    verdicts: List[FaultVerdict]

    @property
    def total(self) -> int:
        return len(self.verdicts)

    def count(self, status: str) -> int:
        return sum(1 for v in self.verdicts if v.status == status)

    @property
    def conv_detected(self) -> int:
        return self.count("conv")

    @property
    def mot_detected(self) -> int:
        return self.count("mot")

    @property
    def total_detected(self) -> int:
        return self.conv_detected + self.mot_detected

    @property
    def errored(self) -> int:
        """Faults quarantined after an exception."""
        return self.count("errored")

    @property
    def aborted_budget(self) -> int:
        """Faults that ran out of their per-fault budget."""
        return self.count("aborted")

    def mot_verdicts(self) -> List[FaultVerdict]:
        return [v for v in self.verdicts if v.status == "mot"]

    def average_counters(self) -> Dict[str, float]:
        """Table 3: average counters over faults detected by the MOT
        procedure (zeroes when there are none)."""
        mot = self.mot_verdicts()
        if not mot:
            return {"detect": 0.0, "conf": 0.0, "extra": 0.0}
        count = len(mot)
        return {
            "detect": sum(v.counters.n_det for v in mot) / count,
            "conf": sum(v.counters.n_conf for v in mot) / count,
            "extra": sum(v.counters.n_extra for v in mot) / count,
        }


class ProposedSimulator:
    """Fault simulator implementing the paper's proposed procedure."""

    def __init__(
        self,
        circuit: Circuit,
        patterns: Sequence[Sequence[int]],
        config: Optional[MotConfig] = None,
        reference_outputs: Optional[Sequence[Sequence[int]]] = None,
        good_cache: Optional[GoodMachineCache] = None,
    ) -> None:
        """*reference_outputs* overrides the fault-free response the
        faulty circuit is compared against.  The default is conventional
        simulation from the all-unspecified state (the restricted MOT
        setting); the unrestricted simulator passes each expanded
        fault-free response here instead.

        *good_cache* supplies a precomputed fault-free trajectory
        (:class:`~repro.sim.goodcache.GoodMachineCache`) so construction
        skips the good-machine simulation entirely.  The cache is
        validated against (circuit, patterns) and must match; it is
        shared read-only with the forward fallback and, in worker
        campaigns, with every forked worker process."""
        self.circuit = circuit
        self.patterns = [list(p) for p in patterns]
        self.config = config or MotConfig()
        self.good_cache = (
            good_cache.require_match(circuit, self.patterns)
            if good_cache is not None
            else None
        )
        metrics = get_metrics()
        tracer = get_tracer()
        if self.good_cache is not None:
            metrics.counter("goodcache.hit")
            if tracer.enabled:
                tracer.emit("goodcache", event="hit")
            self.reference = self.good_cache.result
        else:
            metrics.counter("goodcache.miss")
            if tracer.enabled:
                tracer.emit("goodcache", event="miss")
            with metrics.phase("good_sim"):
                self.reference = simulate_sequence(
                    circuit, self.patterns, engine=self.config.sim_engine
                )
        if reference_outputs is not None:
            if len(reference_outputs) != len(self.patterns):
                raise ValueError("reference response length mismatch")
            self.reference_outputs = [list(r) for r in reference_outputs]
        else:
            self.reference_outputs = self.reference.outputs
        self._fallback = None  # lazily built [4]-style expander
        self.implication_db = None
        if self.config.learning:
            # Imported here: repro.analysis imports repro.mot.implication.
            from repro.analysis.learning import learn_circuit

            # Learning always uses the complete fixpoint propagation,
            # regardless of the runtime schedule: the pass is offline, so
            # thoroughness is free, and under the paper's bounded two-pass
            # schedule the fixpoint-learned implications recover exactly
            # the conflicts the two sweeps miss.
            with metrics.phase("learning"):
                self.implication_db = learn_circuit(circuit)
            if metrics.enabled:
                metrics.counter(
                    "learning.implications", len(self.implication_db)
                )

    # ------------------------------------------------------------------
    def simulate_fault(
        self, fault: Fault, meter: Optional[BudgetMeter] = None
    ) -> FaultVerdict:
        """Run Procedure 1 for one fault.

        With a budget configured (or an external *meter* supplied), work
        is charged at every phase; when the budget runs out the fault is
        reported as ``"aborted"``/``"budget"`` rather than simulated to
        the bitter end.  An externally supplied meter lets the caller
        (the campaign harness, the forward fallback) pool the budget
        across simulators -- in that case :class:`BudgetExceeded`
        propagates so the owner converts it exactly once.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._simulate_budgeted(fault, meter)
        tracer.begin_fault(fault_label(self.circuit, fault))
        started = time.perf_counter()
        status, how = "raised", ""
        try:
            verdict = self._simulate_budgeted(fault, meter)
            status, how = verdict.status, verdict.how
            return verdict
        finally:
            tracer.end_fault(
                status, how, (time.perf_counter() - started) * 1000.0
            )

    def _simulate_budgeted(
        self, fault: Fault, meter: Optional[BudgetMeter]
    ) -> FaultVerdict:
        """Budget-owning wrapper around :meth:`_procedure`."""
        owned = meter is None
        if owned and self.config.budget is not None and self.config.budget.bounded:
            meter = BudgetMeter(self.config.budget)
        if not owned:
            return self._procedure(fault, meter)
        try:
            return self._procedure(fault, meter)
        except BudgetExceeded as exc:
            return FaultVerdict(fault, "aborted", how="budget",
                                detail=str(exc))

    def _procedure(
        self, fault: Fault, meter: Optional[BudgetMeter]
    ) -> FaultVerdict:
        """Procedure 1 proper; raises :class:`BudgetExceeded` on an
        exhausted *meter*."""
        metrics = get_metrics()
        injected = inject_fault(self.circuit, fault)
        with metrics.phase("conv_sim"):
            faulty = simulate_injected(
                injected, self.patterns, keep_frames=True
            )
        if meter is not None:
            meter.charge()
        if outputs_conflict(self.reference_outputs, faulty.outputs) is not None:
            return FaultVerdict(fault, "conv")
        profile = mot_profile(
            faulty.states, self.reference_outputs, faulty.outputs
        )
        if not profile.condition_c():
            return FaultVerdict(fault, "dropped")

        collector = BackwardCollector(
            injected,
            faulty,
            self.reference_outputs,
            profile,
            mode=self.config.implication_mode,
            depth=self.config.backward_depth,
            learned=(
                self.implication_db.for_fault(injected)
                if self.implication_db is not None
                else None
            ),
        )
        with metrics.phase("backward"):
            info = collector.collect()
        if meter is not None:
            meter.charge(len(info))
        counters = self._phase1_counters(info)

        witness = detection_from_info(info)
        if witness is not None:
            return FaultVerdict(fault, "mot", how="info", counters=counters)

        with metrics.phase("expansion"):
            outcome = expand(
                faulty.states, info, profile, n_states=self.config.n_states,
                meter=meter,
            )
        for key in outcome.phase2_pairs:
            pair = info[key]
            counters.n_extra += pair.n_extra(0) + pair.n_extra(1)
        if outcome.detected_in_phase1:
            return FaultVerdict(
                fault,
                "mot",
                how="phase1",
                counters=counters,
                num_expansions=len(outcome.phase2_pairs),
            )

        tracer = get_tracer()
        all_resolved = True
        with metrics.phase("resim"):
            for sequence in outcome.sequences:
                if meter is not None:
                    meter.charge()
                status = resimulate_sequence(
                    injected.circuit,
                    self.patterns,
                    self.reference_outputs,
                    sequence,
                    injected.forced_ps,
                )
                if metrics.enabled:
                    metrics.counter(f"mot.resim.{status.value}")
                if tracer.active:
                    tracer.emit("resim", status=status.value)
                if status is SequenceStatus.UNRESOLVED:
                    all_resolved = False
                    break
        if all_resolved:
            return FaultVerdict(
                fault,
                "mot",
                how="resim",
                counters=counters,
                num_sequences=len(outcome.sequences),
                num_expansions=len(outcome.phase2_pairs),
            )
        if self.config.forward_fallback and self._fallback_detects(
            fault, injected, faulty.states, profile, meter
        ):
            return FaultVerdict(
                fault,
                "mot",
                how="fallback",
                counters=counters,
                num_sequences=len(outcome.sequences),
                num_expansions=len(outcome.phase2_pairs),
            )
        return FaultVerdict(
            fault,
            "undetected",
            counters=counters,
            num_sequences=len(outcome.sequences),
            num_expansions=len(outcome.phase2_pairs),
        )

    def _fallback_detects(
        self,
        fault: Fault,
        injected: InjectedFault,
        faulty_states: Sequence[Sequence[int]],
        profile: MotProfile,
        meter: Optional[BudgetMeter] = None,
    ) -> bool:
        """Retry with the [4] forward trial-gain expansion (one shot).

        The fallback starts from this procedure's injected fault,
        conventional faulty states and profile, and shares the caller's
        *meter*, so the fault budget bounds the combined effort of both
        procedures.
        """
        from repro.mot.baseline import BaselineConfig, BaselineSimulator

        metrics = get_metrics()
        if self._fallback is None:
            self._fallback = BaselineSimulator(
                self.circuit,
                self.patterns,
                BaselineConfig(n_states=self.config.n_states),
                reference_outputs=self.reference_outputs,
                good_cache=self.good_cache,
            )
        if metrics.enabled:
            metrics.counter("mot.fallback.runs")
        with metrics.phase("fallback"):
            verdict = self._fallback.expand_and_resolve(
                fault, injected, faulty_states, profile, meter
            )
        return verdict.status == "mot"

    @staticmethod
    def _phase1_counters(info) -> FaultCounters:
        """Accumulate Table 3 counters over all closed-branch pairs."""
        counters = FaultCounters()
        for key in sorted(info):
            pair = info[key]
            for alpha in (0, 1):
                if pair.detect[alpha]:
                    counters.n_det += 1
                    counters.n_extra += pair.n_extra(1 - alpha)
                elif pair.conf[alpha]:
                    counters.n_conf += 1
                    counters.n_extra += pair.n_extra(1 - alpha)
        return counters

    def run(self, faults: Iterable[Fault]) -> Campaign:
        """Simulate every fault and aggregate the verdicts."""
        verdicts = [self.simulate_fault(fault) for fault in faults]
        return Campaign(circuit_name=self.circuit.name, verdicts=verdicts)
