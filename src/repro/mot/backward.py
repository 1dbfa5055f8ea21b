"""Collection of backward-implication information (paper Section 3.1-3.2).

For every unspecified present-state variable ``y_i`` at time unit ``u``
(with resolvable outputs remaining at ``u-1`` or later), the corresponding
next-state line ``Y_i`` is assigned 0 and 1 in turn at time unit ``u-1``,
implications are run inside frame ``u-1``, and the first applicable
outcome is recorded:

1. ``conf(u, i, a)``   -- the implications conflict: ``y_i`` cannot be
   ``a`` at time ``u``;
2. ``detect(u, i, a)`` -- a primary output at ``u-1`` becomes specified
   opposite to the fault-free value: the fault is detected for every
   state with ``y_i = a``;
3. ``extra(u, i, a)``  -- the set of present-state variables (including
   ``(i, a)`` itself) that become specified at time ``u`` when ``Y_i = a``
   at ``u-1``, each listed once, in flop order.

Pseudo-entries for ``u = 0`` allow plain state expansion at time 0.

No probe ``(u, i, a)`` reads another's result, so each is one bit-slot
of a :class:`~repro.mot.implication.SlotPlanes` set, starting from the
stored faulty frame ``u-1`` plus its forced value, and one
:class:`~repro.mot.implication.PlaneEngine` run implies them all.

``depth > 1`` enables the paper's noted multi-time-unit generalization,
in rounds: the probes still open (no conflict, no detection, an earlier
frame exists) move one frame back, seeded with the present-state values
the previous round newly specified, on their next-state lines.
Conflicts and detections found at deeper frames are forced consequences
of the original assignment and are recorded the same way; *extra*
values are still taken at frame ``u-1`` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.faults.injection import InjectedFault
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.conditions import MotProfile
from repro.mot.implication import PlaneEngine, SlotPlanes
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.sim.sequential import SequentialResult

#: Trace/metric spelling of each probe outcome, by outcome code:
#: 0 extra, 1 conflict, 2 detection.
_OUTCOME_NAMES = ("no_info", "conflict", "detection")

PairKey = Tuple[int, int]


@dataclass
class PairInfo:
    """Backward-implication outcome for one (time unit, state variable)."""

    u: int
    i: int
    conf: List[bool] = field(default_factory=lambda: [False, False])
    detect: List[bool] = field(default_factory=lambda: [False, False])
    extra: List[List[Tuple[int, int]]] = field(default_factory=lambda: [[], []])
    #: (time unit, output position) witnessing each detect branch.
    detect_site: List[Optional[Tuple[int, int]]] = field(
        default_factory=lambda: [None, None]
    )

    def n_extra(self, alpha: int) -> int:
        """``N_extra(u, i, alpha)``: size of the extra set."""
        return len(self.extra[alpha])

    @property
    def both_branches_closed(self) -> bool:
        """Both values lead to conflict or detection (Section 3.2)."""
        return (self.conf[0] or self.detect[0]) and (
            self.conf[1] or self.detect[1]
        )

    @property
    def establishes_detection(self) -> bool:
        """Section 3.2: every branch is closed and at least one closes by
        detection.  (Both branches conflicting cannot happen for a
        consistent conventional trajectory.)"""
        return self.both_branches_closed and (self.detect[0] or self.detect[1])


class BackwardCollector:
    """Runs Section 3.1 for one injected fault.

    Every probe ``(u, i, a)`` is one bit-slot of a
    :class:`~repro.mot.implication.SlotPlanes` set: slot ``2p + a`` is
    value ``a`` of the ``p``-th pair in ``(u, i)`` order, so the probes
    of one time unit are contiguous, and each slot starts from the
    stored faulty frame ``u-1`` plus its forced next-state value.  One
    :class:`~repro.mot.implication.PlaneEngine` run per backward frame
    implies them all, under the configured schedule (*mode*
    ``"two_pass"``, or the fixpoint otherwise).
    """

    def __init__(
        self,
        injected: InjectedFault,
        faulty: SequentialResult,
        reference_outputs: Sequence[Sequence[int]],
        profile: MotProfile,
        mode: str = "fixpoint",
        depth: int = 1,
    ) -> None:
        if faulty.frames is None:
            raise ValueError("faulty result must be simulated with keep_frames")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.injected = injected
        self.circuit = injected.circuit
        self.faulty = faulty
        self.reference_outputs = reference_outputs
        self.profile = profile
        self.mode = mode
        self.depth = depth
        self.engine = PlaneEngine(self.circuit)
        #: implication runs so far (one per frame a probe implies in)
        self.runs = 0
        #: the flops whose state is not stuck by the fault, ascending
        self._free = [
            index
            for index in range(self.circuit.num_flops)
            if index not in injected.forced_ps
        ]

    # ------------------------------------------------------------------
    def _rounds(
        self, pairs: List[PairKey], blocks: List[Tuple[int, int]]
    ) -> Tuple[int, int, Dict[int, Tuple[int, int]], SlotPlanes]:
        """Imply every probe of *pairs*, one frame further back per
        round, up to ``depth`` frames.

        *blocks* holds ``(u, slot mask)`` per time unit.  Returns the
        conflicted slots, the detected slots with each one's
        ``(time, output)`` site, and round 0's planes (the ``extra``
        sets are read from them).
        """
        flops = self.circuit.flops
        frames = self.faulty.frames
        assert frames is not None
        num_lines = self.circuit.num_lines
        imply = (
            self.engine.imply_two_pass
            if self.mode == "two_pass"
            else self.engine.imply
        )
        # Round 0: slot 2p + a assigns Y_i = a for pair p = (u, i).
        alpha0: Dict[int, int] = {}
        for p, (_u, flop_index) in enumerate(pairs):
            line = flops[flop_index].ns
            alpha0[line] = alpha0.get(line, 0) | 1 << 2 * p
        seeds = [(line, bits, bits << 1) for line, bits in alpha0.items()]
        live = (1 << 2 * len(pairs)) - 1
        dead = 0
        found = 0
        sites: Dict[int, Tuple[int, int]] = {}
        first: Optional[SlotPlanes] = None
        for back in range(self.depth):
            frame_blocks = [
                (u - 1 - back, mask) for u, mask in blocks if mask & live
            ]
            planes = SlotPlanes(
                num_lines, [(frames[t], mask) for t, mask in frame_blocks], live
            )
            self.runs += bin(live).count("1")
            imply(planes, seeds)
            dead |= live & ~planes.live
            hit = self._detections(planes, frame_blocks, pairs, back, sites)
            found |= hit
            if first is None:
                first = planes
            if back + 1 == self.depth:
                break
            # Open slots move one frame back, seeded with the present-
            # state values this round specified, on their next-state
            # lines.
            open_slots = planes.live & ~hit
            for u, mask in blocks:
                if u - 1 - back < 1:
                    open_slots &= ~mask
            seeds = []
            live = 0
            for flop_index in self._free:
                line = flops[flop_index].ps
                zero = planes.gain(line, 0) & open_slots
                one = planes.gain(line, 1) & open_slots
                if zero | one:
                    seeds.append((flops[flop_index].ns, zero, one))
                    live |= zero | one
            if not live:
                break
        assert first is not None
        return dead, found, sites, first

    def _detections(
        self,
        planes: SlotPlanes,
        frame_blocks: List[Tuple[int, int]],
        pairs: List[PairKey],
        back: int,
        sites: Dict[int, Tuple[int, int]],
    ) -> int:
        """Live slots whose outputs contradict the fault-free response
        at their frame; records each one's first ``(time, output)``."""
        reference = self.reference_outputs
        rails = planes.rails
        live = planes.live
        found = 0
        for position, line in enumerate(self.circuit.outputs):
            planes.load(line)
            ref0 = ref1 = 0
            for t, mask in frame_blocks:
                value = reference[t][position]
                if value == ONE:
                    ref1 |= mask
                elif value == ZERO:
                    ref0 |= mask
            hit = (rails[1][line] & ref0 | rails[0][line] & ref1) & live & ~found
            if hit:
                found |= hit
                for slot in _slots(hit):
                    sites[slot] = (pairs[slot >> 1][0] - 1 - back, position)
        return found

    def collect(self) -> Dict[PairKey, PairInfo]:
        """Run the full Section 3.1 collection (plus ``u = 0`` entries).

        The ``mot.backward.<outcome>`` and ``mot.implication.runs``
        counters are emitted once, with the collection's totals.
        """
        info: Dict[PairKey, PairInfo] = {}
        states = self.faulty.states
        # u = 0: plain expansion entries, no backward implication possible.
        for flop_index in self._free:
            if states[0][flop_index] == UNKNOWN:
                info[(0, flop_index)] = PairInfo(
                    0, flop_index, extra=[[(flop_index, 0)], [(flop_index, 1)]]
                )
        # 0 < u <= L: backward implications into frame u-1.
        pairs: List[PairKey] = []
        blocks: List[Tuple[int, int]] = []
        for u in range(1, self.faulty.length + 1):
            if self.profile.n_out[u - 1] <= 0:
                continue
            row = states[u]
            start = len(pairs)
            pairs.extend((u, i) for i in self._free if row[i] == UNKNOWN)
            if len(pairs) > start:
                width = 2 * (len(pairs) - start)
                blocks.append((u, ((1 << width) - 1) << 2 * start))
        runs_before = self.runs
        outcomes = self._decode(pairs, blocks, info) if pairs else bytearray()
        metrics = get_metrics()
        if metrics.enabled:
            for code, name in enumerate(_OUTCOME_NAMES):
                total = outcomes.count(code)
                if total:
                    metrics.counter(f"mot.backward.{name}", total)
            if self.runs > runs_before:
                metrics.counter(
                    "mot.implication.runs", self.runs - runs_before
                )
        return info

    def _decode(
        self,
        pairs: List[PairKey],
        blocks: List[Tuple[int, int]],
        info: Dict[PairKey, PairInfo],
    ) -> bytearray:
        """Imply every probe and file each pair's outcomes in *info*;
        returns each slot's outcome code."""
        dead, found, sites, first = self._rounds(pairs, blocks)
        num_slots = 2 * len(pairs)
        outcomes = bytearray(num_slots)
        for slot in _slots(dead):
            outcomes[slot] = 1
        for slot in _slots(found):
            outcomes[slot] = 2
        # extra(u, i, a): the free flops whose next-state line round 0
        # specified, one entry per flop, in flop order.
        extras: List[List[Tuple[int, int]]] = [[] for _ in range(num_slots)]
        open_slots = ~(dead | found)
        flops = self.circuit.flops
        for flop_index in self._free:
            line = flops[flop_index].ns
            for value in (0, 1):
                entry = (flop_index, value)
                for slot in _slots(first.gain(line, value) & open_slots):
                    extras[slot].append(entry)
        for (u, i), code0, code1, extra0, extra1 in zip(
            pairs, outcomes[0::2], outcomes[1::2], extras[0::2], extras[1::2]
        ):
            info[(u, i)] = PairInfo(
                u,
                i,
                [code0 == 1, code1 == 1],
                [code0 == 2, code1 == 2],
                [extra0, extra1],
                [None, None],
            )
        for slot, site in sites.items():
            info[pairs[slot >> 1]].detect_site[slot & 1] = site
        tracer = get_tracer()
        if tracer.active:
            for slot, code in enumerate(outcomes):
                u, i = pairs[slot >> 1]
                tracer.emit(
                    "implication",
                    u=u,
                    i=i,
                    alpha=slot & 1,
                    outcome=_OUTCOME_NAMES[code],
                    extra=len(extras[slot]),
                )
        return outcomes


def _slots(mask: int) -> Iterator[int]:
    """The set bits of *mask*, ascending."""
    bits = bin(mask)[:1:-1]
    slot = bits.find("1")
    while slot >= 0:
        yield slot
        slot = bits.find("1", slot + 1)


def detection_from_info(info: Dict[PairKey, PairInfo]) -> Optional[PairKey]:
    """Section 3.2: find a pair proving detection from implications alone.

    Returns the first (deterministically ordered) pair for which every
    branch is closed and at least one branch closes by detection, or
    ``None``.
    """
    for key in sorted(info):
        if info[key].establishes_detection:
            return key
    return None
