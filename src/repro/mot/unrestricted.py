"""Unrestricted multiple observation time fault simulation.

The paper (Section 2, last paragraph) notes: "If state expansion is
performed in the fault free circuit, multiple fault free responses may be
obtained.  In this work, we use state expansion and backward implications
only in the faulty circuit" -- i.e. the published procedure implements
the *restricted* MOT approach [2,3].  This module implements the
generalization the paper leaves on the table: the **unrestricted** MOT
approach of [2], where the fault-free circuit's unknown initial state is
also handled by expansion.

Detection criterion (unrestricted MOT): a fault is detected when the set
of possible faulty responses (over faulty initial states) is disjoint
from the set of possible fault-free responses (over fault-free initial
states) -- any observed response then classifies the circuit.

Procedure: expand the *fault-free* circuit's unspecified state variables
into up to ``n_references`` partially specified response sequences (every
concrete fault-free response completes one of them), then require the
fault to be detected under the restricted procedure **against every one
of those references**.  Soundness: if, for each expanded reference ``r``,
every faulty initial state's response conflicts with ``r`` at a position
where ``r`` is specified, then every (faulty response, fault-free
response) pair differs at such a position, so the response sets are
disjoint.

Because expansion *specifies more reference values*, the unrestricted
procedure can detect faults the restricted one cannot (responses that
conflict with every individual fault-free behaviour but not with their
three-valued join), at the price of ``n_references`` restricted runs per
fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.errors import BudgetExceeded
from repro.faults.model import Fault
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.baseline import trial_gains
from repro.mot.expansion import SequenceSet
from repro.mot.resimulate import SequenceStatus, resolve_sequences
from repro.mot.simulator import (
    Campaign,
    FaultVerdict,
    MotConfig,
    ProcedureFront,
    ProposedSimulator,
)
from repro.runner.budget import BudgetMeter
from repro.sim.kernel import eval_frame_planes
from repro.sim.sequential import simulate_sequence


@dataclass(frozen=True)
class UnrestrictedConfig:
    """Tuning knobs of the unrestricted procedure."""

    #: Limit on expanded fault-free reference sequences.
    n_references: int = 8
    #: Configuration of each per-reference restricted run.
    restricted: MotConfig = field(default_factory=MotConfig)


def expand_fault_free_references(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    n_references: int = 8,
) -> List[List[List[int]]]:
    """Expand the fault-free circuit into multiple response sequences.

    Greedy, on the machinery of Procedure 2: the sequences are the
    slots of one :class:`~repro.mot.expansion.SequenceSet` over the
    good machine's trajectory.  Each round picks the (time unit, state
    variable) that no sequence specifies and whose trial expansion
    specifies the most new output values in the first sequence
    (:func:`~repro.mot.baseline.trial_gains` on the PO lines; ties go
    to the lowest ``(u, i)``), doubles every sequence with both values,
    and forward-fills every slot with
    :func:`~repro.mot.resimulate.resolve_sequences` against an all-X
    reference, which never detects.  Infeasible slots (next-state
    contradictions) are dropped -- no concrete response completes
    them.  The rounds stop at the reference limit or when no pair
    gains anything.

    Returns one output sequence (``L`` rows) per surviving slot,
    evaluated from its final state rows, in the order of the chosen
    values (lexicographic, the first choice most significant; the
    "first sequence" is the first in this order).  Every concrete
    fault-free response is a completion of at least one returned
    sequence.
    """
    good = simulate_sequence(circuit, patterns, engine="ir", keep_frames=True)
    length = len(patterns)
    all_x = [[UNKNOWN] * len(circuit.outputs) for _ in range(length)]
    sequences = SequenceSet(good.states)
    # Per slot, its chosen values as a binary number, first choice most
    # significant: the order of the returned references.
    ranks = [0]
    while 2 * len(sequences) <= n_references:
        first = ranks.index(min(ranks))
        pairs = [(u, i) for u in range(length) for i in sequences.free(u)]
        gains = trial_gains(
            circuit, patterns, sequences, first, pairs, circuit.outputs
        )
        best = max(gains, default=0)
        if best <= 0:
            break
        u, flop_index = pairs[gains.index(best)]
        sequences.double(u, [(flop_index, ZERO)], [(flop_index, ONE)])
        ranks = [2 * rank for rank in ranks] + [2 * rank + 1 for rank in ranks]
        statuses = resolve_sequences(
            circuit, good.frames, all_x, sequences
        ).statuses
        keep = sum(
            1 << slot
            for slot, status in enumerate(statuses)
            if status is SequenceStatus.UNRESOLVED
        )
        sequences.compact(keep)
        ranks = [rank for slot, rank in enumerate(ranks) if keep >> slot & 1]
    order = sorted(range(len(sequences)), key=ranks.__getitem__)
    references: List[List[List[int]]] = [[] for _ in order]
    for u, pattern in enumerate(patterns):
        planes = eval_frame_planes(
            circuit,
            [pattern] * len(order),
            [sequences.row(slot, u) for slot in order],
        )
        for k, reference in enumerate(references):
            reference.append(planes.output_values(k))
    return references


class UnrestrictedSimulator:
    """MOT fault simulation without the single-response restriction."""

    def __init__(
        self,
        circuit: Circuit,
        patterns: Sequence[Sequence[int]],
        config: Optional[UnrestrictedConfig] = None,
        reference_outputs: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        """*reference_outputs* is the good machine's response (see
        :class:`~repro.mot.simulator.ProcedureFront`).  Only the
        conventional front reads it, to tell ``conv`` from ``mot``; the
        per-reference runners compare with the expanded references, and
        the reference expansion simulates the good machine's frames
        itself."""
        self.circuit = circuit
        self.patterns = [list(p) for p in patterns]
        self.config = config or UnrestrictedConfig()
        self.references = expand_fault_free_references(
            circuit, self.patterns, self.config.n_references
        )
        # Conventional simulation against the good machine's response:
        # only its front is used, to tell ``conv`` from ``mot``.
        self._conventional = ProcedureFront(
            circuit,
            self.patterns,
            self.config.restricted,
            reference_outputs=reference_outputs,
        )
        self._runners = [
            ProposedSimulator(
                circuit,
                self.patterns,
                self.config.restricted,
                reference_outputs=reference,
            )
            for reference in self.references
        ]

    @property
    def n_references(self) -> int:
        return len(self.references)

    def prefilter(self, faults: Iterable[Fault]) -> None:
        """Run the good machine's front and every per-reference runner's
        over *faults* (:meth:`~repro.mot.simulator.ProcedureFront.prefilter`).

        Every front is filled even when one raises; the first error is
        re-raised at the end."""
        fault_list = list(faults)
        errors: List[Exception] = []
        for front in [self._conventional, *self._runners]:
            try:
                front.prefilter(fault_list)
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    def simulate_fault(
        self, fault: Fault, meter: Optional[BudgetMeter] = None
    ) -> FaultVerdict:
        """Detected iff the fault is detected against every expanded
        fault-free reference.

        A fault that conventional simulation against the good machine's
        response detects is ``conv`` at once, for one event of the
        budget and no per-reference run: three-valued simulation is
        monotone, so it is also detected against each reference, which
        only specifies more outputs.  Any other detected fault is
        ``mot`` with ``how="unrestricted"``.

        One meter bounds the whole fault: a caller-supplied *meter*, or
        else one built from ``config.restricted.budget``, is shared by
        the per-reference runs, so the budget bounds their combined
        effort.  A caller's :class:`~repro.errors.BudgetExceeded`
        propagates to the caller; an exhausted budget of the
        simulator's own ends the fault as ``"aborted"``/``"budget"``,
        as :meth:`~repro.mot.simulator.ProcedureFront.simulate_fault`
        does.
        """
        owned = meter is None
        budget = self.config.restricted.budget
        if owned and budget is not None and budget.bounded:
            meter = BudgetMeter(budget)
        verdicts = []
        try:
            if self._conventional.front_outcome(fault) == "conv":
                if meter is not None:
                    meter.charge()  # the conventional step
                return FaultVerdict(fault, "conv")
            for runner in self._runners:
                verdict = runner.simulate_fault(fault, meter)
                if not verdict.detected:
                    return FaultVerdict(
                        fault,
                        verdict.status if verdict.status == "dropped" else "undetected",
                        how=verdict.how,
                    )
                verdicts.append(verdict)
        except BudgetExceeded as exc:
            if not owned:
                raise
            return FaultVerdict(fault, "aborted", how="budget",
                                detail=str(exc))
        merged = FaultVerdict(fault, "mot", how="unrestricted")
        for verdict in verdicts:
            merged.counters.n_det += verdict.counters.n_det
            merged.counters.n_conf += verdict.counters.n_conf
            merged.counters.n_extra += verdict.counters.n_extra
        return merged

    def run(self, faults: Iterable[Fault]) -> Campaign:
        fault_list = list(faults)
        self.prefilter(fault_list)
        verdicts = [self.simulate_fault(fault) for fault in fault_list]
        return Campaign(circuit_name=self.circuit.name, verdicts=verdicts)
