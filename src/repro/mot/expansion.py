"""State expansion: the paper's Procedure 2.

The expansion maintains a set ``S`` of state sequences, each a partially
specified trajectory of the faulty circuit.  Phase 1 applies every pair
whose backward implications closed one branch (conflict or detection):
the surviving value and all its implied extra values are written into the
base sequence without duplicating anything.  Phase 2 repeatedly selects
the best remaining pair by the paper's four ordered criteria and doubles
every sequence, writing ``extra(u, i, 0)`` into one copy and
``extra(u, i, 1)`` into the other, until ``N_STATES`` sequences exist or
no selectable pair remains.  The criteria never change during phase 2,
so the pairs are sorted once and taken in that order, skipping each
pair whose ``sv`` set meets an earlier choice at its time unit.

(The published Step 8 assigns both extra sets to the copy ``S''`` -- an
obvious typo; we assign ``extra(., 0)`` to ``S'`` and ``extra(., 1)`` to
``S''``.)

The set is bit-sliced (:class:`SequenceSet`): sequence *k* is slot *k*
of one plane pair per flip-flop and time unit, over the shared base
trajectory, so a duplication is a shift-or of the touched rows instead
of a copy of every row of every sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.logic.values import ONE, UNKNOWN, ZERO
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


class SequenceSet:
    """Expanded state sequences as the bit-slots of one plane set.

    ``base`` is the shared base trajectory (``L + 1`` state rows: the
    faulty circuit's conventional states).  Slot *k* holds sequence
    *k*.  A time unit that some assignment touched keeps one
    ``(ones, zeros)`` plane pair per flip-flop across all slots
    (:attr:`ones` / :attr:`zeros`, ``None`` for untouched units, whose
    rows are the base's), and :attr:`marks` holds per time unit the
    mask of slots that must be resimulated there (paper Section 3.4).

    Assignment and resimulation only ever write positions the base
    leaves X, so a position the base specifies holds the base value in
    every slot and has no plane bits.  A duplication
    (:meth:`double`) shift-ors the touched rows and the marks by the
    current width: slot *k*'s twin is slot ``k + width``, the order in
    which a list of sequences appends its duplicates.
    """

    __slots__ = ("base", "width", "ones", "zeros", "marks")

    def __init__(self, base: Sequence[Sequence[int]], width: int = 1) -> None:
        self.base = base
        self.width = width
        self.ones: List[Optional[List[int]]] = [None] * len(base)
        self.zeros: List[Optional[List[int]]] = [None] * len(base)
        self.marks: List[int] = [0] * len(base)

    def __len__(self) -> int:
        return self.width

    def planes(self, u: int) -> Tuple[List[int], List[int]]:
        """The ``(ones, zeros)`` plane pair of time unit *u*, created on
        first use."""
        ones = self.ones[u]
        zeros = self.zeros[u]
        if ones is None or zeros is None:
            ones = [0] * len(self.base[u])
            zeros = [0] * len(self.base[u])
            self.ones[u] = ones
            self.zeros[u] = zeros
        return ones, zeros

    def assign(self, u: int, flop_index: int, value: int, slots: int) -> int:
        """Specify ``y_flop_index = value`` at time *u* in *slots*.

        Only X positions are written, and *u* is marked for the slots
        that changed.  Returns the mask of *slots* that already held
        the opposite value (the caller decides what a clash means).
        """
        fixed = self.base[u][flop_index]
        if fixed != UNKNOWN:
            return 0 if fixed == value else slots
        ones, zeros = self.planes(u)
        one = ones[flop_index]
        zero = zeros[flop_index]
        new = slots & ~(one | zero)
        if value == ONE:
            ones[flop_index] = one | new
            clash = zero & slots
        else:
            zeros[flop_index] = zero | new
            clash = one & slots
        if new:
            self.marks[u] |= new
        return clash

    def double(
        self,
        u: int,
        extra0: Sequence[Tuple[int, int]],
        extra1: Sequence[Tuple[int, int]],
    ) -> None:
        """Duplicate every sequence: *extra0* goes to the original slots,
        *extra1* to their twins ``k + width``."""
        width = self.width
        for planes in (self.ones, self.zeros):
            for row in planes:
                if row is not None:
                    for index, bits in enumerate(row):
                        if bits:
                            row[index] = bits | bits << width
        marks = self.marks
        for t, bits in enumerate(marks):
            if bits:
                marks[t] = bits | bits << width
        low = (1 << width) - 1
        self.width = 2 * width
        for flop_index, value in extra0:
            self.assign(u, flop_index, value, low)
        for flop_index, value in extra1:
            self.assign(u, flop_index, value, low << width)

    def compact(self, keep: int) -> None:
        """Keep only the slots in mask *keep*, renumbered in slot order."""
        # Runs of consecutive kept slots move as one shifted field.
        runs: List[Tuple[int, int, int]] = []  # (first slot, mask, target)
        target = 0
        rest = keep
        while rest:
            first = (rest & -rest).bit_length() - 1
            tail = rest >> first
            length = (tail ^ (tail + 1)).bit_length() - 1
            runs.append((first, (1 << length) - 1, target))
            target += length
            rest &= ~(((1 << length) - 1) << first)

        def gather(bits: int) -> int:
            out = 0
            for first, mask, to in runs:
                out |= (bits >> first & mask) << to
            return out

        for planes in (self.ones, self.zeros):
            for row in planes:
                if row is not None:
                    for index, bits in enumerate(row):
                        if bits:
                            row[index] = gather(bits)
        marks = self.marks
        for t, bits in enumerate(marks):
            if bits:
                marks[t] = gather(bits)
        self.width = target

    def free(self, u: int) -> List[int]:
        """The flops that no slot specifies at time *u*."""
        base = self.base[u]
        ones = self.ones[u]
        zeros = self.zeros[u]
        if ones is None or zeros is None:
            return [i for i, value in enumerate(base) if value == UNKNOWN]
        return [
            i
            for i, value in enumerate(base)
            if value == UNKNOWN and not (ones[i] | zeros[i])
        ]

    def row(self, slot: int, u: int) -> List[int]:
        """Sequence *slot*'s state row at time *u*."""
        base = self.base[u]
        ones = self.ones[u]
        zeros = self.zeros[u]
        if ones is None or zeros is None:
            return list(base)
        return [
            value if value != UNKNOWN
            else ONE if ones[i] >> slot & 1
            else ZERO if zeros[i] >> slot & 1
            else UNKNOWN
            for i, value in enumerate(base)
        ]

    def states(self, slot: int) -> List[List[int]]:
        """Sequence *slot*'s whole trajectory (``L + 1`` rows)."""
        return [self.row(slot, u) for u in range(len(self.base))]

    def assignments(self, slot: int) -> Dict[Tuple[int, int], int]:
        """The values sequence *slot* specifies beyond the base, keyed by
        ``(time unit, flop index)``."""
        found: Dict[Tuple[int, int], int] = {}
        for u, (ones, zeros) in enumerate(zip(self.ones, self.zeros)):
            if ones is None or zeros is None:
                continue
            for i, (one, zero) in enumerate(zip(ones, zeros)):
                if one >> slot & 1:
                    found[(u, i)] = ONE
                elif zero >> slot & 1:
                    found[(u, i)] = ZERO
        return found

    def marked(self, slot: int) -> Set[int]:
        """The time units marked for sequence *slot*."""
        return {u for u, bits in enumerate(self.marks) if bits >> slot & 1}


@dataclass
class ExpansionOutcome:
    """Result of Procedure 2.

    ``detected_in_phase1`` is set when mutually conflicting phase-1
    restrictions prove that every not-yet-detected state is impossible --
    i.e. the fault is detected without any duplication, and
    ``sequences`` is empty (width 0).
    """

    sequences: SequenceSet
    phase1_pairs: List[Tuple[PairKey, int]]  # (pair, closed alpha)
    phase2_pairs: List[PairKey]
    detected_in_phase1: bool = False


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
        simulation (``L + 1`` rows) -- the paper's ``S_0`` and the
        shared base of the returned :class:`SequenceSet`.
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
    sequences = SequenceSet(conventional_states)
    phase1_pairs: List[Tuple[PairKey, int]] = []
    open_pairs: List[PairKey] = []  # neither branch closed

    # ------------------------------------------------------------- phase 1
    for key in sorted(info):
        pair = info[key]
        closed0 = pair.conf[0] or pair.detect[0]
        closed1 = pair.conf[1] or pair.detect[1]
        if closed0 == closed1:  # both open, or both closed (Section 3.2)
            if not closed0:
                open_pairs.append(key)
            continue
        closed = 0 if closed0 else 1
        phase1_pairs.append((key, closed))
        if tracer.active:
            tracer.emit("phase1", u=key[0], i=key[1], closed=closed)
        for flop_index, value in pair.extra[1 - closed]:
            if sequences.assign(key[0], flop_index, value, 1):
                # Mutually conflicting restrictions: no feasible
                # not-yet-detected state remains (see module docstring of
                # repro.mot.simulator for the soundness argument).
                if metrics.enabled:
                    metrics.counter(
                        "mot.expansion.phase1_restrictions", len(phase1_pairs)
                    )
                    metrics.counter("mot.expansion.phase1_conflict")
                if tracer.active:
                    tracer.emit(
                        "phase1_conflict", u=key[0], i=flop_index
                    )
                return ExpansionOutcome(
                    sequences=SequenceSet(conventional_states, width=0),
                    phase1_pairs=phase1_pairs,
                    phase2_pairs=[],
                    detected_in_phase1=True,
                )

    # ------------------------------------------------------------- phase 2
    # A pair is a candidate while none of its sv(u, i) positions is
    # specified in any sequence.  Phase 2 only ever specifies the chosen
    # pairs' sv positions, so a pair eligible against the base after
    # phase 1 leaves the candidates exactly when its sv set meets that
    # of an earlier choice at its time unit.  The four criteria read
    # only the fixed profile and extra sets, so the best candidate of
    # each round is the first unblocked pair of one static sort.
    ranked: List[Tuple[Tuple[int, int, int, int, PairKey], Set[int]]] = []
    free: Dict[int, Set[int]] = {}  # time unit -> flops still X there
    for key in open_pairs:
        u = key[0]
        if profile.n_out[u] <= 0 or profile.n_sv[u] <= 0:
            continue
        if u not in free:
            free[u] = set(sequences.free(u))
        extra0, extra1 = info[key].extra
        sv = {j for j, _value in extra0} | {j for j, _value in extra1}
        if sv and sv <= free[u]:
            n0, n1 = len(extra0), len(extra1)
            rank = (
                -profile.n_out[u],  # (1) maximize N_out(u)
                profile.n_sv[u],  # (2) minimize N_sv(u)
                -min(n0, n1),  # (3) maximize min N_extra(u, i, .)
                -max(n0, n1),  # (4) maximize max N_extra(u, i, .)
                key,  # deterministic tie-break
            )
            ranked.append((rank, sv))
    ranked.sort(key=lambda entry: entry[0])
    phase2_pairs: List[PairKey] = []
    taken: Dict[int, Set[int]] = {}  # time unit -> sv positions chosen
    for rank, sv in ranked:
        if len(sequences) >= n_states:
            break
        chosen = rank[-1]
        u = chosen[0]
        blocked = taken.setdefault(u, set())
        if not blocked.isdisjoint(sv):
            continue
        blocked |= sv
        phase2_pairs.append(chosen)
        pair = info[chosen]
        if meter is not None:
            meter.charge(len(sequences))  # one event per sequence created
        sequences.double(u, pair.extra[0], pair.extra[1])
        if tracer.active:
            tracer.emit(
                "branch", u=u, i=chosen[1], sequences=len(sequences)
            )

    ceiling = len(sequences) >= n_states
    if metrics.enabled:
        if phase1_pairs:
            metrics.counter(
                "mot.expansion.phase1_restrictions", len(phase1_pairs)
            )
        if phase2_pairs:
            metrics.counter("mot.expansion.branches", len(phase2_pairs))
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
