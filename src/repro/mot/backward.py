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
   at ``u-1``.

Pseudo-entries for ``u = 0`` allow plain state expansion at time 0 with
``extra = {(i, a)}``.

``depth > 1`` enables the paper's noted multi-time-unit generalization:
present-state variables newly specified at ``u-1`` are pushed to the
next-state lines of frame ``u-2`` and implications continue backward.
Conflicts and detections found at deeper frames are forced consequences
of the original assignment and are recorded the same way; *extra* values
are still taken at frame ``u-1`` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.injection import InjectedFault
from repro.logic.implication import Conflict
from repro.logic.values import UNKNOWN
from repro.mot.conditions import MotProfile
from repro.mot.implication import FrameEngine
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.sim.sequential import SequentialResult

#: Trace/metric spelling of each probe outcome.
_OUTCOME_NAMES = {"conf": "conflict", "detect": "detection",
                  "extra": "no_info"}

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
    def resolved_alpha(self) -> Optional[int]:
        """The value whose branch is closed by conflict or detection, if
        exactly one branch is closed (the phase-1 case)."""
        closed0 = self.conf[0] or self.detect[0]
        if closed0 == (self.conf[1] or self.detect[1]):
            return None
        return 0 if closed0 else 1

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
    """Runs Section 3.1 for one injected fault."""

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
        self.engine = FrameEngine(self.circuit)
        #: implication runs so far (one per frame a probe implies in)
        self.runs = 0
        flops = self.circuit.flops
        self._ns_line_of: List[int] = [f.ns for f in flops]
        self._flops_of_ns: Dict[int, List[int]] = {}
        self._flop_of_ps: Dict[int, int] = {}
        for index, flop in enumerate(flops):
            if index in injected.forced_ps:
                continue
            self._flops_of_ns.setdefault(flop.ns, []).append(index)
            self._flop_of_ps[flop.ps] = index

    # ------------------------------------------------------------------
    def _imply(self, values, assignments, record):
        self.runs += 1
        if self.mode == "two_pass":
            self.engine.imply_two_pass(values, assignments, record)
        else:
            self.engine.imply(values, assignments, record)

    def _detection_site(
        self, values: List[int], time: int
    ) -> Optional[Tuple[int, int]]:
        """First (time, output position) where a frame's output values
        contradict the fault-free response at *time*, or None."""
        reference = self.reference_outputs[time]
        for position, line in enumerate(self.circuit.outputs):
            value = values[line]
            ref = reference[position]
            if value != UNKNOWN and ref != UNKNOWN and value != ref:
                return (time, position)
        return None

    def probe(
        self, u: int, flop_index: int, alpha: int
    ) -> Tuple[str, List[Tuple[int, int]], Optional[Tuple[int, int]]]:
        """Assign ``Y_i = alpha`` in frame ``u-1`` and run implications.

        Returns ``(outcome, extra, site)`` where outcome is ``"conf"``,
        ``"detect"`` or ``"extra"``; *extra* lists the newly specified
        present-state variables at time ``u`` (outcome ``"extra"`` only);
        *site* is the (time, output) witnessing a ``"detect"`` outcome.
        """
        frames = self.faulty.frames
        assert frames is not None
        values = frames[u - 1].copy()
        record: List[Tuple[int, int]] = []
        try:
            self._imply(values, [(self._ns_line_of[flop_index], alpha)], record)
        except Conflict:
            return "conf", [], None
        site = self._detection_site(values, u - 1)
        if site is not None:
            return "detect", [], site
        # Multi-frame backward implications (depth > 1 extension).
        frame_time = u - 1
        frame_record = record
        for _ in range(self.depth - 1):
            if frame_time == 0:
                break
            ps_assignments = [
                (self._ns_line_of[self._flop_of_ps[line]], value)
                for line, value in frame_record
                if line in self._flop_of_ps
                and self.faulty.states[frame_time][self._flop_of_ps[line]]
                == UNKNOWN
            ]
            if not ps_assignments:
                break
            frame_time -= 1
            deeper_values = frames[frame_time].copy()
            frame_record = []
            try:
                self._imply(deeper_values, ps_assignments, frame_record)
            except Conflict:
                return "conf", [], None
            site = self._detection_site(deeper_values, frame_time)
            if site is not None:
                return "detect", [], site
        extra: List[Tuple[int, int]] = []
        states_u = self.faulty.states[u]
        for line, value in record:
            for flop in self._flops_of_ns.get(line, ()):
                if states_u[flop] == UNKNOWN:
                    extra.append((flop, value))
        return "extra", extra, None

    def collect(self) -> Dict[PairKey, PairInfo]:
        """Run the full Section 3.1 collection (plus ``u = 0`` entries).

        The ``mot.backward.<outcome>`` and ``mot.implication.runs``
        counters are emitted once, with the collection's totals.
        """
        info: Dict[PairKey, PairInfo] = {}
        states = self.faulty.states
        length = self.faulty.length
        forced = self.injected.forced_ps
        num_flops = self.circuit.num_flops
        # u = 0: plain expansion entries, no backward implication possible.
        for flop_index in range(num_flops):
            if flop_index in forced or states[0][flop_index] != UNKNOWN:
                continue
            pair = PairInfo(0, flop_index)
            pair.extra[0] = [(flop_index, 0)]
            pair.extra[1] = [(flop_index, 1)]
            info[(0, flop_index)] = pair
        # 0 < u <= L: backward implications into frame u-1.
        tracer = get_tracer()
        outcomes = {"conf": 0, "detect": 0, "extra": 0}
        runs_before = self.runs
        for u in range(1, length + 1):
            if self.profile.n_out[u - 1] <= 0:
                continue
            row = states[u]
            for flop_index in range(num_flops):
                if flop_index in forced or row[flop_index] != UNKNOWN:
                    continue
                pair = PairInfo(u, flop_index)
                for alpha in (0, 1):
                    outcome, extra, site = self.probe(u, flop_index, alpha)
                    if outcome == "conf":
                        pair.conf[alpha] = True
                    elif outcome == "detect":
                        pair.detect[alpha] = True
                        pair.detect_site[alpha] = site
                    else:
                        pair.extra[alpha] = extra
                    outcomes[outcome] += 1
                    if tracer.active:
                        tracer.emit(
                            "implication",
                            u=u,
                            i=flop_index,
                            alpha=alpha,
                            outcome=_OUTCOME_NAMES[outcome],
                            extra=len(extra),
                        )
                info[(u, flop_index)] = pair
        metrics = get_metrics()
        if metrics.enabled:
            for outcome, total in outcomes.items():
                if total:
                    metrics.counter(
                        f"mot.backward.{_OUTCOME_NAMES[outcome]}", total
                    )
            if self.runs > runs_before:
                metrics.counter(
                    "mot.implication.runs", self.runs - runs_before
                )
        return info


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
