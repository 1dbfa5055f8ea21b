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

Steps 1 and 2 run as one batched front (:class:`ProcedureFront`, shared
with the [4] baseline): one kernel fault batch decides both for a whole
fault list, and only the faults that pass both are injected and
simulated one at a time for steps 3-5.

The per-fault counters of Table 3 are also maintained here:
``N_det(f)`` / ``N_conf(f)`` count closed branches over the phase-1 pairs
(plus the Section 3.2 witness), and ``N_extra(f)`` accumulates the sizes
of the extra sets actually applied.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import repro.sim.kernel as kernel
from repro.circuit.netlist import Circuit
from repro.errors import BudgetExceeded, VERDICT_STATUSES
from repro.faults.injection import InjectedFault, inject_fault
from repro.faults.model import Fault
from repro.fsim.parallel import DEFAULT_BATCH
from repro.mot.backward import BackwardCollector, detection_from_info
from repro.mot.conditions import MotProfile, mot_profile
from repro.mot.expansion import DEFAULT_N_STATES, expand
from repro.mot.resimulate import (
    SequenceStatus,
    resimulate_sequence,
    resolve_sequences,
)
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.runner.budget import BudgetMeter, FaultBudget
from repro.sim.sequential import (
    SequentialResult,
    simulate_injected,
    simulate_sequence,
)

__all__ = [
    "fault_label",
    "MotConfig",
    "FaultCounters",
    "FaultVerdict",
    "Campaign",
    "ProcedureFront",
    "ProposedSimulator",
    # Re-exported, not called: the benchmark's tracer (perfbench/spans.py)
    # wraps this name on this module.
    "resimulate_sequence",
]


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


class ProcedureFront:
    """The opening of Procedure 1, shared by the proposed procedure and
    the [4] baseline.

    Both simulators start every fault the same way: conventional
    simulation against the reference response, then the necessary
    condition (C).  :meth:`prefilter` decides both for a whole fault
    list as one kernel fault batch
    (:func:`repro.sim.kernel.simulate_fault_batch`; only a list longer
    than :data:`DEFAULT_BATCH` faults is split) and keeps the answer
    per fault on the instance.  :meth:`simulate_fault` answers
    ``"conv"`` and ``"dropped"`` from that table; only the faults that
    pass both checks are injected and simulated one at a time, by the
    subclass's :meth:`_procedure`.  The front also owns the reference
    set-up, the per-fault budget wrapper and :meth:`run`.
    """

    #: The configuration dataclass used when none is passed.
    config_class: type

    def __init__(
        self,
        circuit: Circuit,
        patterns: Sequence[Sequence[int]],
        config=None,
        reference_outputs: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        """*config* defaults to :attr:`config_class` with its defaults.

        *reference_outputs* is the fault-free response the faulty
        circuit is compared against.  Campaigns pass the good machine's
        response, simulated once
        (:meth:`~repro.sim.goodcache.GoodMachineCache.compute`); the
        unrestricted simulator passes each expanded fault-free response
        instead, and the proposed procedure passes its own to its
        forward fallback.  Without one, the front simulates the good
        machine from the all-unspecified state itself (the restricted
        MOT setting)."""
        self.circuit = circuit
        self.patterns = [list(p) for p in patterns]
        self.config = config or self.config_class()
        if reference_outputs is None:
            with get_metrics().phase("good_sim"):
                self.reference_outputs = simulate_sequence(
                    circuit, self.patterns, engine="ir"
                ).outputs
        elif len(reference_outputs) != len(self.patterns):
            raise ValueError("reference response length mismatch")
        else:
            self.reference_outputs = [list(r) for r in reference_outputs]
        #: fault -> "conv", "dropped", or "" when it passes both checks.
        self._front: Dict[Fault, str] = {}

    # ------------------------------------------------------------------
    def prefilter(self, faults: Iterable[Fault]) -> None:
        """Decide conventional detection and condition (C) for *faults*.

        The faults not yet in the table run as one kernel batch (split
        only beyond :data:`DEFAULT_BATCH` faults), recorded under the
        ``conv_sim`` phase.  A batch that raises is retried as two
        halves, so one fault that cannot be simulated costs O(log n)
        batches: that fault stays out of the table, every other fault
        goes in, and the first such fault's exception is re-raised at
        the end.
        """
        pending = [f for f in dict.fromkeys(faults) if f not in self._front]
        if not pending:
            return
        errors: List[Exception] = []
        with get_metrics().phase("conv_sim"):
            for start in range(0, len(pending), DEFAULT_BATCH):
                errors += self._fill(pending[start:start + DEFAULT_BATCH])
        if errors:
            raise errors[0]

    def _fill(self, chunk: List[Fault]) -> List[Exception]:
        """Enter one batch's answers in the table, halving on failure;
        returns the exceptions of the single faults that raise."""
        try:
            # Looked up on the module at call time, so a wrapper
            # installed on the kernel's attributes sees every batch.
            masks = kernel.simulate_fault_batch(
                self.circuit,
                kernel.compile_fault_batch(self.circuit, chunk),
                self.patterns,
                self.reference_outputs,
            )
        except Exception as exc:
            if len(chunk) == 1:
                return [exc]
            half = len(chunk) // 2
            return self._fill(chunk[:half]) + self._fill(chunk[half:])
        for j, fault in enumerate(chunk):
            if masks.detected >> j & 1:
                self._front[fault] = "conv"
            elif masks.condition_c >> j & 1:
                self._front[fault] = ""
            else:
                self._front[fault] = "dropped"
        return []

    def front_outcome(self, fault: Fault) -> str:
        """The front's answer for *fault*: ``"conv"``, ``"dropped"``, or
        ``""`` when it passes both checks.

        A fault missing from the table is prefiltered alone first (a
        batch of one), so a direct call gets the same answer as a
        campaign.
        """
        outcome = self._front.get(fault)
        if outcome is None:
            self.prefilter([fault])
            outcome = self._front[fault]
        return outcome

    def simulate_fault(
        self, fault: Fault, meter: Optional[BudgetMeter] = None
    ) -> FaultVerdict:
        """Run the procedure for one fault.

        The front's answer comes from :meth:`front_outcome`, so a direct
        call gets the same verdict as a campaign.

        With a budget configured (or an external *meter* supplied), work
        is charged at every phase; when the budget runs out the fault is
        reported as ``"aborted"``/``"budget"`` rather than simulated to
        the bitter end.  An externally supplied meter lets the caller
        (the campaign harness, the forward fallback) pool the budget
        across simulators -- in that case :class:`BudgetExceeded`
        propagates so the owner converts it exactly once.
        """
        owned = meter is None
        budget = self.config.budget
        if owned and budget is not None and budget.bounded:
            meter = BudgetMeter(budget)
        try:
            outcome = self.front_outcome(fault)
            if meter is not None:
                meter.charge()  # the conventional step
            if outcome:
                return FaultVerdict(fault, outcome)
            return self._procedure(fault, meter)
        except BudgetExceeded as exc:
            if not owned:
                raise
            return FaultVerdict(fault, "aborted", how="budget",
                                detail=str(exc))

    def _procedure(
        self, fault: Fault, meter: Optional[BudgetMeter]
    ) -> FaultVerdict:
        """The per-fault steps after the front, for a fault that is
        neither conventionally detected nor dropped by (C); raises
        :class:`BudgetExceeded` on an exhausted *meter*."""
        raise NotImplementedError

    def run(self, faults: Iterable[Fault]) -> Campaign:
        """Simulate every fault and aggregate the verdicts."""
        fault_list = list(faults)
        self.prefilter(fault_list)
        verdicts = [self.simulate_fault(fault) for fault in fault_list]
        return Campaign(circuit_name=self.circuit.name, verdicts=verdicts)


class ProposedSimulator(ProcedureFront):
    """Fault simulator implementing the paper's proposed procedure."""

    config_class = MotConfig
    _fallback = None  # lazily built [4]-style expander

    # ------------------------------------------------------------------
    def simulate_fault(
        self, fault: Fault, meter: Optional[BudgetMeter] = None
    ) -> FaultVerdict:
        """Run Procedure 1 for one fault, in its own trace scope (budget
        semantics: :meth:`ProcedureFront.simulate_fault`)."""
        tracer = get_tracer()
        if not tracer.enabled:
            return super().simulate_fault(fault, meter)
        tracer.begin_fault(fault_label(self.circuit, fault))
        started = time.perf_counter()
        status, how = "raised", ""
        try:
            verdict = super().simulate_fault(fault, meter)
            status, how = verdict.status, verdict.how
            return verdict
        finally:
            tracer.end_fault(
                status, how, (time.perf_counter() - started) * 1000.0
            )

    def _procedure(
        self, fault: Fault, meter: Optional[BudgetMeter]
    ) -> FaultVerdict:
        """Procedure 1 past the front: backward implication, expansion,
        resimulation and the forward fallback."""
        metrics = get_metrics()
        injected = inject_fault(self.circuit, fault)
        with metrics.phase("conv_sim"):
            faulty = simulate_injected(
                injected, self.patterns, keep_frames=True
            )
        profile = mot_profile(
            faulty.states, self.reference_outputs, faulty.outputs
        )

        collector = BackwardCollector(
            injected,
            faulty,
            self.reference_outputs,
            profile,
            mode=self.config.implication_mode,
            depth=self.config.backward_depth,
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

        with metrics.phase("resim"):
            resolution = resolve_sequences(
                injected.circuit,
                faulty.frames,
                self.reference_outputs,
                outcome.sequences,
                first_only=True,
            )
            statuses = resolution.statuses
            tracer = get_tracer()
            for status in statuses:
                if meter is not None:
                    meter.charge()  # one event per resimulated sequence
                if tracer.active:
                    tracer.emit("resim", status=status.value)
            if metrics.enabled:
                for status in SequenceStatus:
                    total = statuses.count(status)
                    if total:
                        metrics.counter(f"mot.resim.{status.value}", total)
        if SequenceStatus.UNRESOLVED not in statuses:
            return FaultVerdict(
                fault,
                "mot",
                how="resim",
                counters=counters,
                num_sequences=len(outcome.sequences),
                num_expansions=len(outcome.phase2_pairs),
            )
        if self.config.forward_fallback and self._fallback_detects(
            fault, injected, faulty, profile, meter
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
        faulty: SequentialResult,
        profile: MotProfile,
        meter: Optional[BudgetMeter] = None,
    ) -> bool:
        """Retry with the [4] forward trial-gain expansion (one shot).

        The fallback starts from this procedure's injected fault,
        conventional faulty simulation (states and frames) and profile,
        and shares the caller's *meter*, so the fault budget bounds the
        combined effort of both procedures.
        """
        from repro.mot.baseline import BaselineConfig, BaselineSimulator

        metrics = get_metrics()
        if self._fallback is None:
            self._fallback = BaselineSimulator(
                self.circuit,
                self.patterns,
                BaselineConfig(n_states=self.config.n_states),
                reference_outputs=self.reference_outputs,
            )
        if metrics.enabled:
            metrics.counter("mot.fallback.runs")
        with metrics.phase("fallback"):
            verdict = self._fallback.expand_and_resolve(
                fault, injected, faulty, profile, meter
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
