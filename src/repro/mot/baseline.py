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

from repro.faults.injection import InjectedFault, inject_fault
from repro.faults.model import Fault
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.conditions import MotProfile, mot_profile
from repro.mot.expansion import DEFAULT_N_STATES, StateSequence
from repro.mot.resimulate import SequenceStatus, resimulate_sequence
from repro.mot.simulator import FaultVerdict, ProcedureFront
from repro.runner.budget import BudgetMeter, FaultBudget
from repro.sim.ir import compile_circuit
from repro.sim.kernel import eval_pass
from repro.sim.sequential import simulate_injected


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


class BaselineSimulator(ProcedureFront):
    """State-expansion fault simulator without backward implications.

    It opens every fault with the same batched front as the proposed
    procedure (:class:`~repro.mot.simulator.ProcedureFront`):
    conventional detection and condition (C).
    """

    config_class = BaselineConfig

    # ------------------------------------------------------------------
    def _trial_gains(
        self,
        injected: InjectedFault,
        sequence: StateSequence,
        pairs: Sequence[Tuple[int, int]],
    ) -> List[int]:
        """Newly specified PO/NS values when ``y_i`` is set at time *u*,
        for every ``(u, i)`` in *pairs*.

        A pair's gain sums over both trial values -- the forward-only
        analogue of the paper's ``N_extra`` criteria -- the PO/NS
        positions that are unspecified in *sequence*'s frame at *u* and
        specified once ``y_i`` is.  Every frame is evaluated in one
        two-plane kernel pass over the faulty circuit: one base slot per
        time unit, then the two trial slots of each of its pairs.  (Each
        trial row differs from its base row only at ``y_i``, which is
        unspecified there.)
        """
        ir = compile_circuit(injected.circuit)
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
            sources = self.patterns[u] + sequence.states[u]
            for line, value in zip(ir.inputs + ir.ps_lines, sources):
                if value == ONE:
                    ones[line] |= mask
                elif value == ZERO:
                    zeros[line] |= mask
        eval_pass(ir, ones, zeros, (1 << (trials + len(group))) - 1)
        # Per trial slot, count the interesting lines (with multiplicity)
        # that the slot specifies while its base slot leaves them X.
        counts = [0] * trials
        for line in ir.outputs + ir.ns_lines:
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

    def _choose_pair(
        self,
        injected: InjectedFault,
        sequences: List[StateSequence],
        profile: MotProfile,
    ) -> Optional[Tuple[int, int]]:
        """Pick the next (time unit, state variable) to expand."""
        length = len(self.patterns)
        num_flops = injected.circuit.num_flops
        forced = injected.forced_ps
        candidate_pairs: List[Tuple[int, int]] = []
        for u in range(length):
            if profile.n_out[u] <= 0 or profile.n_sv[u] <= 0:
                continue
            for flop_index in range(num_flops):
                if flop_index in forced:
                    continue
                if all(
                    seq.states[u][flop_index] == UNKNOWN for seq in sequences
                ):
                    candidate_pairs.append((u, flop_index))
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
        gains = self._trial_gains(injected, sequences[0], candidate_pairs)
        best_pair = None
        best_key: Tuple[int, int, int] = (-1, 0, 0)
        for (u, flop_index), gain in zip(candidate_pairs, gains):
            key = (gain, -u, -flop_index)
            if key > best_key:
                best_key = key
                best_pair = (u, flop_index)
        return best_pair

    @staticmethod
    def _expand_all(
        sequences: List[StateSequence], u: int, flop_index: int
    ) -> None:
        """Duplicate every sequence, assigning ``y_i = 0`` / ``1``."""
        doubled: List[StateSequence] = []
        for seq in sequences:
            twin = seq.copy()
            seq.assign(u, flop_index, 0)
            twin.assign(u, flop_index, 1)
            doubled.append(twin)
        sequences.extend(doubled)

    def _resolve(
        self,
        injected: InjectedFault,
        sequences: List[StateSequence],
        meter: Optional[BudgetMeter] = None,
        first_only: bool = False,
    ) -> List[StateSequence]:
        """Resimulate and keep only unresolved sequences.

        With *first_only*, stop at the first unresolved sequence: the
        one-shot verdict only asks whether any sequence stays
        unresolved, so the rest need not be resimulated (nor charged).
        """
        unresolved: List[StateSequence] = []
        for seq in sequences:
            if meter is not None:
                meter.charge()
            status = resimulate_sequence(
                injected.circuit,
                self.patterns,
                self.reference_outputs,
                seq,
                injected.forced_ps,
            )
            if status is SequenceStatus.UNRESOLVED:
                unresolved.append(seq)
                if first_only:
                    break
        return unresolved

    # ------------------------------------------------------------------
    def _procedure(
        self, fault: Fault, meter: Optional[BudgetMeter]
    ) -> FaultVerdict:
        injected = inject_fault(self.circuit, fault)
        faulty = simulate_injected(injected, self.patterns)
        profile = mot_profile(
            faulty.states, self.reference_outputs, faulty.outputs
        )
        return self.expand_and_resolve(
            fault, injected, faulty.states, profile, meter
        )

    def expand_and_resolve(
        self,
        fault: Fault,
        injected: InjectedFault,
        faulty_states: Sequence[Sequence[int]],
        profile: MotProfile,
        meter: Optional[BudgetMeter] = None,
    ) -> FaultVerdict:
        """State expansion and resimulation of a fault that is neither
        conventionally detected nor dropped by condition (C).

        *faulty_states* and *profile* come from the conventional
        simulation of *injected* (``L + 1`` state rows and its
        ``N_sv``/``N_out`` profile); the proposed procedure's forward
        fallback passes its own, so the fault is not injected and
        simulated twice.  *meter* is charged like in
        :meth:`~repro.mot.simulator.ProcedureFront.simulate_fault` with
        a caller-supplied meter.
        """
        sequences = [StateSequence(states=[list(r) for r in faulty_states])]
        if self.config.schedule == "oneshot":
            return self._simulate_oneshot(
                fault, injected, profile, sequences, meter
            )
        return self._simulate_iterative(
            fault, injected, profile, sequences, meter
        )

    def _simulate_oneshot(
        self,
        fault: Fault,
        injected: InjectedFault,
        profile: MotProfile,
        sequences: List[StateSequence],
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
        unresolved = self._resolve(injected, sequences, meter, first_only=True)
        if not unresolved:
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
        profile: MotProfile,
        sequences: List[StateSequence],
        meter: Optional[BudgetMeter] = None,
    ) -> FaultVerdict:
        expansions = 0
        aborted = False
        while sequences:
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
            sequences = self._resolve(injected, sequences, meter)
        if not sequences:
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

