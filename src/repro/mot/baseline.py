"""Baseline: state expansion without backward implications (reference [4]).

This reimplements the procedure of Pomeranz & Reddy, *"On Fault Simulation
for Synchronous Sequential Circuits"* (IEEE ToC, Feb. 1995), which the
paper compares against.  Like the proposed procedure it expands
unspecified state variables until ``N_STATES`` sequences exist and then
resimulates; unlike it, there is no backward-implication information:

* no conflict/detection pre-analysis (no free phase-1 restrictions, no
  Section 3.2 early detection),
* every expansion specifies exactly the two values of the selected
  variable (the ``N_extra <= 12`` ceiling discussed around Table 3),
* pair selection uses the time-unit criteria the paper attributes to [4]
  (max ``N_out``, then min ``N_sv``) plus a forward trial simulation to
  pick the state variable (the most newly specified PO/NS values).

Two scheduling modes are provided:

* ``"oneshot"`` (default) -- expand to the sequence limit, then
  resimulate once: structurally identical to Procedure 2, so the *only*
  difference from the proposed procedure is the backward-implication
  information.  This is the mode used for the Table 2 reproduction.
* ``"iterative"`` -- expand one variable, resimulate, drop resolved
  sequences, repeat until the live-sequence count would exceed the limit
  (then abort, as [4] did for the extra s5378 faults in the paper's
  discussion).  This adaptive variant is compared against one-shot in
  ``benchmarks/bench_ablation_schedule.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.injection import InjectedFault, inject_fault
from repro.faults.model import Fault
from repro.logic.values import ONE, ZERO
from repro.mot.conditions import MotProfile, mot_profile
from repro.mot.expansion import DEFAULT_N_STATES, SequenceSet
from repro.mot.resimulate import (
    Resolution,
    SequenceStatus,
    resimulate_sequence,
    resolve_sequences,
)
from repro.mot.simulator import FaultVerdict, ProcedureFront
from repro.runner.budget import BudgetMeter, FaultBudget
from repro.sim.ir import compile_circuit
from repro.sim.kernel import eval_pass
from repro.sim.sequential import SequentialResult, simulate_injected

__all__ = [
    "BaselineConfig",
    "BaselineSimulator",
    "trial_gains",
    # Re-exported, not called: the benchmark's tracer (perfbench/spans.py)
    # wraps this name on this module.
    "resimulate_sequence",
]


@dataclass(frozen=True)
class BaselineConfig:
    """Tuning knobs of the [4] baseline."""

    n_states: int = DEFAULT_N_STATES
    schedule: str = "oneshot"  # or "iterative"
    #: Optional per-fault work / wall-clock budget (see
    #: :class:`repro.mot.simulator.MotConfig`).
    budget: Optional[FaultBudget] = None

    def __post_init__(self) -> None:
        if self.schedule not in ("oneshot", "iterative"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


def trial_gains(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    sequences: SequenceSet,
    slot: int,
    pairs: Sequence[Tuple[int, int]],
    lines: Sequence[int],
) -> List[int]:
    """Newly specified values on *lines* when ``y_i`` is set at time *u*,
    for every ``(u, i)`` in *pairs*.

    A pair's gain sums over both trial values -- the forward-only
    analogue of the paper's ``N_extra`` criteria -- the positions of
    *lines* (with multiplicity) that are unspecified in the frame of
    sequence *slot* of *sequences* at *u* and specified once ``y_i`` is.
    Every frame is evaluated in one two-plane kernel pass over
    *circuit*: one base slot per time unit, then the two trial slots of
    each of its pairs.  (Each trial row differs from its base row only
    at ``y_i``, which is unspecified there.)  The [4] baseline counts
    the PO and next-state lines of the faulty circuit, the unrestricted
    reference expansion the PO lines of the fault-free one.
    """
    ir = compile_circuit(circuit)
    trials = 2 * len(pairs)  # pair k: y_i = 0 in slot 2k, 1 in 2k+1
    ones = [0] * ir.num_lines
    zeros = [0] * ir.num_lines
    base_slot: Dict[int, int] = {}  # time unit -> its base slot
    group: Dict[int, int] = {}  # time unit -> mask of all its slots
    for k, (u, i) in enumerate(pairs):
        if u not in base_slot:
            base_slot[u] = trials + len(base_slot)
            group[u] = 1 << base_slot[u]
        zeros[ir.ps_lines[i]] |= 1 << 2 * k
        ones[ir.ps_lines[i]] |= 1 << 2 * k + 1
        group[u] |= 3 << 2 * k
    for u, mask in group.items():
        sources = list(patterns[u]) + sequences.row(slot, u)
        for line, value in zip(ir.inputs + ir.ps_lines, sources):
            if value == ONE:
                ones[line] |= mask
            elif value == ZERO:
                zeros[line] |= mask
    eval_pass(ir, ones, zeros, (1 << (trials + len(group))) - 1)
    # Per trial slot, count the lines (with multiplicity) that the slot
    # specifies while its base slot leaves them X.
    counts = [0] * trials
    for line in lines:
        specified = ones[line] | zeros[line]
        newly = 0
        for u, mask in group.items():
            if not specified >> base_slot[u] & 1:
                newly |= specified & mask
        while newly:
            low = newly & -newly
            counts[low.bit_length() - 1] += 1
            newly ^= low
    return [counts[2 * k] + counts[2 * k + 1] for k in range(len(pairs))]


class BaselineSimulator(ProcedureFront):
    """State-expansion fault simulator without backward implications.

    It opens every fault with the same batched front as the proposed
    procedure (:class:`~repro.mot.simulator.ProcedureFront`):
    conventional detection and condition (C).
    """

    config_class = BaselineConfig

    # ------------------------------------------------------------------
    def _choose_pair(
        self,
        injected: InjectedFault,
        sequences: SequenceSet,
        profile: MotProfile,
    ) -> Optional[Tuple[int, int]]:
        """Pick the next (time unit, state variable) to expand."""
        candidate_pairs: List[Tuple[int, int]] = []
        for u in range(len(self.patterns)):
            if profile.n_out[u] <= 0 or profile.n_sv[u] <= 0:
                continue
            # Stuck flops are specified in the base, so never free.
            candidate_pairs.extend((u, i) for i in sequences.free(u))
        if not candidate_pairs:
            return None
        best_n_out = max(profile.n_out[u] for u, _ in candidate_pairs)
        candidate_pairs = [
            p for p in candidate_pairs if profile.n_out[p[0]] == best_n_out
        ]
        best_n_sv = min(profile.n_sv[u] for u, _ in candidate_pairs)
        candidate_pairs = [
            p for p in candidate_pairs if profile.n_sv[p[0]] == best_n_sv
        ]
        ir = compile_circuit(injected.circuit)
        gains = trial_gains(
            injected.circuit, self.patterns, sequences, 0, candidate_pairs,
            ir.outputs + ir.ns_lines,
        )
        best_pair = None
        best_key: Tuple[int, int, int] = (-1, 0, 0)
        for (u, flop_index), gain in zip(candidate_pairs, gains):
            key = (gain, -u, -flop_index)
            if key > best_key:
                best_key = key
                best_pair = (u, flop_index)
        return best_pair

    @staticmethod
    def _expand_all(sequences: SequenceSet, u: int, flop_index: int) -> None:
        """Duplicate every sequence, assigning ``y_i = 0`` / ``1``."""
        sequences.double(u, [(flop_index, ZERO)], [(flop_index, ONE)])

    def _resolve(
        self,
        injected: InjectedFault,
        frames: Sequence[Sequence[int]],
        sequences: SequenceSet,
        meter: Optional[BudgetMeter] = None,
        first_only: bool = False,
    ) -> Resolution:
        """Resimulate *sequences* and charge one event per returned
        status (:func:`~repro.mot.resimulate.resolve_sequences`).

        With *first_only*, stop at the first unresolved sequence: the
        one-shot verdict only asks whether any sequence stays
        unresolved, so the rest need not be resimulated (nor charged).
        """
        resolution = resolve_sequences(
            injected.circuit,
            frames,
            self.reference_outputs,
            sequences,
            first_only,
        )
        if meter is not None:
            for _status in resolution.statuses:
                meter.charge()
        return resolution

    # ------------------------------------------------------------------
    def _procedure(
        self, fault: Fault, meter: Optional[BudgetMeter]
    ) -> FaultVerdict:
        injected = inject_fault(self.circuit, fault)
        faulty = simulate_injected(injected, self.patterns, keep_frames=True)
        profile = mot_profile(
            faulty.states, self.reference_outputs, faulty.outputs
        )
        return self.expand_and_resolve(
            fault, injected, faulty, profile, meter
        )

    def expand_and_resolve(
        self,
        fault: Fault,
        injected: InjectedFault,
        faulty: SequentialResult,
        profile: MotProfile,
        meter: Optional[BudgetMeter] = None,
    ) -> FaultVerdict:
        """State expansion and resimulation of a fault that is neither
        conventionally detected nor dropped by condition (C).

        *faulty* is the conventional simulation of *injected*, with its
        frames (``keep_frames=True``), and *profile* its
        ``N_sv``/``N_out`` profile; the proposed procedure's forward
        fallback passes its own, so the fault is not injected and
        simulated twice.  *meter* is charged like in
        :meth:`~repro.mot.simulator.ProcedureFront.simulate_fault` with
        a caller-supplied meter.
        """
        sequences = SequenceSet(faulty.states)
        if self.config.schedule == "oneshot":
            return self._simulate_oneshot(
                fault, injected, faulty.frames, profile, sequences, meter
            )
        return self._simulate_iterative(
            fault, injected, faulty.frames, profile, sequences, meter
        )

    def _simulate_oneshot(
        self,
        fault: Fault,
        injected: InjectedFault,
        frames: Sequence[Sequence[int]],
        profile: MotProfile,
        sequences: SequenceSet,
        meter: Optional[BudgetMeter] = None,
    ) -> FaultVerdict:
        expansions = 0
        while len(sequences) < self.config.n_states:
            pair = self._choose_pair(injected, sequences, profile)
            if pair is None:
                break
            expansions += 1
            if meter is not None:
                meter.charge(len(sequences))  # sequences about to be created
            self._expand_all(sequences, *pair)
        total = len(sequences)
        resolution = self._resolve(
            injected, frames, sequences, meter, first_only=True
        )
        if SequenceStatus.UNRESOLVED not in resolution.statuses:
            return FaultVerdict(
                fault, "mot", how="expansion", num_expansions=expansions,
                num_sequences=total,
            )
        return FaultVerdict(
            fault,
            "undetected",
            how="aborted" if total >= self.config.n_states else "",
            num_sequences=total,
            num_expansions=expansions,
        )

    def _simulate_iterative(
        self,
        fault: Fault,
        injected: InjectedFault,
        frames: Sequence[Sequence[int]],
        profile: MotProfile,
        sequences: SequenceSet,
        meter: Optional[BudgetMeter] = None,
    ) -> FaultVerdict:
        expansions = 0
        aborted = False
        while len(sequences):
            if 2 * len(sequences) > self.config.n_states:
                aborted = True
                break
            pair = self._choose_pair(injected, sequences, profile)
            if pair is None:
                break
            expansions += 1
            if meter is not None:
                meter.charge(len(sequences))
            self._expand_all(sequences, *pair)
            statuses = self._resolve(
                injected, frames, sequences, meter
            ).statuses
            # Keep the unresolved sequences, in order.
            sequences.compact(
                sum(
                    1 << slot
                    for slot, status in enumerate(statuses)
                    if status is SequenceStatus.UNRESOLVED
                )
            )
        if not len(sequences):
            return FaultVerdict(
                fault, "mot", how="expansion", num_expansions=expansions
            )
        return FaultVerdict(
            fault,
            "undetected",
            how="aborted" if aborted else "",
            num_sequences=len(sequences),
            num_expansions=expansions,
        )
