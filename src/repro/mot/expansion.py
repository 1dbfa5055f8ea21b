"""State expansion: the paper's Procedure 2.

The expansion maintains a set ``S`` of state sequences, each a partially
specified trajectory of the faulty circuit.  Phase 1 applies every pair
whose backward implications closed one branch (conflict or detection):
the surviving value and all its implied extra values are written into the
base sequence without duplicating anything.  Phase 2 repeatedly selects
the best remaining pair by the paper's four ordered criteria and doubles
every sequence, writing ``extra(u, i, 0)`` into one copy and
``extra(u, i, 1)`` into the other, until ``N_STATES`` sequences exist or
no selectable pair remains.

(The published Step 8 assigns both extra sets to the copy ``S''`` -- an
obvious typo; we assign ``extra(., 0)`` to ``S'`` and ``extra(., 1)`` to
``S''``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.logic.values import UNKNOWN
from repro.mot.backward import PairInfo, PairKey
from repro.mot.conditions import MotProfile
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.runner.budget import BudgetMeter

#: Default limit on the number of state sequences (paper Section 4).
DEFAULT_N_STATES = 64


@dataclass
class StateSequence:
    """One partially specified state trajectory plus its dirty time units.

    ``states[u][i]`` is the value of ``y_i`` at time ``u``; ``marked``
    holds the time units whose frames must be (re)simulated because a
    state value was specified there (paper Section 3.4).
    """

    states: List[List[int]]
    marked: Set[int] = field(default_factory=set)

    def copy(self) -> "StateSequence":
        return StateSequence(
            states=[row.copy() for row in self.states],
            marked=set(self.marked),
        )

    def assign(self, u: int, flop_index: int, value: int) -> bool:
        """Specify ``y_flop_index = value`` at time *u*.

        Returns False when the position already holds the opposite
        specified value (the caller decides what a clash means); marking
        happens only on actual changes.
        """
        current = self.states[u][flop_index]
        if current == value:
            return True
        if current != UNKNOWN:
            return False
        self.states[u][flop_index] = value
        self.marked.add(u)
        return True


@dataclass
class ExpansionOutcome:
    """Result of Procedure 2.

    ``detected_in_phase1`` is set when mutually conflicting phase-1
    restrictions prove that every not-yet-detected state is impossible --
    i.e. the fault is detected without any duplication.
    """

    sequences: List[StateSequence]
    phase1_pairs: List[Tuple[PairKey, int]]  # (pair, closed alpha)
    phase2_pairs: List[PairKey]
    detected_in_phase1: bool = False


def _sv_set(pair: PairInfo) -> Set[int]:
    """``sv(u, i)``: state variables assigned by either extra set."""
    return {j for alpha in (0, 1) for (j, _val) in pair.extra[alpha]}


def _select_pair(
    candidates: List[PairKey],
    info: Dict[PairKey, PairInfo],
    profile: MotProfile,
) -> Optional[PairKey]:
    """Steps 4-7 of Procedure 2: filter by the four ordered criteria."""
    if not candidates:
        return None
    # (1) maximize N_out(u).
    best = max(profile.n_out[u] for (u, _i) in candidates)
    candidates = [key for key in candidates if profile.n_out[key[0]] == best]
    # (2) minimize N_sv(u).
    best = min(profile.n_sv[u] for (u, _i) in candidates)
    candidates = [key for key in candidates if profile.n_sv[key[0]] == best]
    # (3) maximize min(N_extra(u,i,0), N_extra(u,i,1)).
    best = max(
        min(info[key].n_extra(0), info[key].n_extra(1)) for key in candidates
    )
    candidates = [
        key
        for key in candidates
        if min(info[key].n_extra(0), info[key].n_extra(1)) == best
    ]
    # (4) maximize max(N_extra(u,i,0), N_extra(u,i,1)).
    best = max(
        max(info[key].n_extra(0), info[key].n_extra(1)) for key in candidates
    )
    candidates = [
        key
        for key in candidates
        if max(info[key].n_extra(0), info[key].n_extra(1)) == best
    ]
    # Deterministic tie-break.
    return min(candidates)


def expand(
    conventional_states: Sequence[Sequence[int]],
    info: Dict[PairKey, PairInfo],
    profile: MotProfile,
    n_states: int = DEFAULT_N_STATES,
    meter: Optional[BudgetMeter] = None,
) -> ExpansionOutcome:
    """Run Procedure 2 and return the expanded sequence set.

    Parameters
    ----------
    conventional_states:
        The faulty circuit's state trajectory from conventional
        simulation (``L + 1`` rows) -- the paper's ``S_0``.
    info:
        Backward-implication information from
        :class:`~repro.mot.backward.BackwardCollector`.
    profile:
        ``N_sv`` / ``N_out`` profile of the same conventional results.
    n_states:
        The ``N_STATES`` sequence limit.
    meter:
        Optional budget meter; every sequence created by a phase-2
        duplication is charged as one work event, so an expansion
        blow-up trips :class:`~repro.errors.BudgetExceeded` instead of
        exhausting memory and time.
    """
    metrics = get_metrics()
    tracer = get_tracer()
    base = StateSequence(states=[list(row) for row in conventional_states])
    sequences = [base]
    phase1_pairs: List[Tuple[PairKey, int]] = []

    # ------------------------------------------------------------- phase 1
    for key in sorted(info):
        pair = info[key]
        closed = pair.resolved_alpha
        if closed is None:
            continue
        surviving = 1 - closed
        phase1_pairs.append((key, closed))
        if metrics.enabled:
            metrics.counter("mot.expansion.phase1_restrictions")
        if tracer.active:
            tracer.emit("phase1", u=key[0], i=key[1], closed=closed)
        for flop_index, value in pair.extra[surviving]:
            if not base.assign(key[0], flop_index, value):
                # Mutually conflicting restrictions: no feasible
                # not-yet-detected state remains (see module docstring of
                # repro.mot.simulator for the soundness argument).
                if metrics.enabled:
                    metrics.counter("mot.expansion.phase1_conflict")
                if tracer.active:
                    tracer.emit(
                        "phase1_conflict", u=key[0], i=flop_index
                    )
                return ExpansionOutcome(
                    sequences=[],
                    phase1_pairs=phase1_pairs,
                    phase2_pairs=[],
                    detected_in_phase1=True,
                )

    # ------------------------------------------------------------- phase 2
    # A pair is a candidate while none of its sv(u, i) positions is
    # specified in any sequence.  Phase 2 only ever specifies the chosen
    # pairs' extra positions, so the specified positions are those of the
    # base sequence after phase 1 plus the chosen pairs' sv sets: test
    # the base once, then drop the pairs each choice blocks.
    candidates: List[Tuple[PairKey, Set[int]]] = []
    for key in sorted(info):
        u, _i = key
        pair = info[key]
        if pair.resolved_alpha is not None or pair.both_branches_closed:
            continue
        if profile.n_out[u] <= 0 or profile.n_sv[u] <= 0:
            continue
        sv = _sv_set(pair)
        if sv and all(base.states[u][j] == UNKNOWN for j in sv):
            candidates.append((key, sv))
    phase2_pairs: List[PairKey] = []
    while len(sequences) < n_states:
        chosen = _select_pair([key for key, _sv in candidates], info, profile)
        if chosen is None:
            break
        phase2_pairs.append(chosen)
        pair = info[chosen]
        u = chosen[0]
        taken = _sv_set(pair)
        candidates = [
            (key, sv)
            for key, sv in candidates
            if key[0] != u or taken.isdisjoint(sv)
        ]
        if meter is not None:
            meter.charge(len(sequences))  # one event per sequence created
        duplicates: List[StateSequence] = []
        for seq in sequences:
            twin = seq.copy()
            for flop_index, value in pair.extra[0]:
                seq.assign(u, flop_index, value)
            for flop_index, value in pair.extra[1]:
                twin.assign(u, flop_index, value)
            duplicates.append(twin)
        sequences.extend(duplicates)
        if metrics.enabled:
            metrics.counter("mot.expansion.branches")
        if tracer.active:
            tracer.emit(
                "branch", u=u, i=chosen[1], sequences=len(sequences)
            )

    ceiling = len(sequences) >= n_states
    if metrics.enabled:
        metrics.counter("mot.expansion.runs")
        metrics.observe("mot.expansion.sequences", len(sequences))
        if ceiling:
            metrics.counter("mot.expansion.ceiling")
    if tracer.active:
        tracer.emit(
            "expansion_done",
            sequences=len(sequences),
            branches=len(phase2_pairs),
            ceiling=ceiling,
        )
    return ExpansionOutcome(
        sequences=sequences,
        phase1_pairs=phase1_pairs,
        phase2_pairs=phase2_pairs,
    )
