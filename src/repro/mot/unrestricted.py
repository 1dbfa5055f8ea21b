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
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.logic.values import UNKNOWN
from repro.mot.expansion import StateSequence
from repro.mot.simulator import (
    Campaign,
    FaultVerdict,
    MotConfig,
    ProposedSimulator,
)
from repro.runner.budget import BudgetMeter
from repro.sim.frame import eval_frame
from repro.sim.goodcache import GoodMachineCache
from repro.sim.sequential import SequentialResult, simulate_sequence


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
    reference: Optional[SequentialResult] = None,
) -> List[List[List[int]]]:
    """Expand the fault-free circuit into multiple response sequences.

    Greedy: repeatedly pick the unspecified (time, state variable) whose
    trial expansion specifies the most new output values, duplicate every
    sequence with both values, and forward-fill, until the reference
    limit is reached or everything useful is specified.  Infeasible
    branches (next-state contradictions) are dropped -- no concrete
    response completes them.

    Returns a list of output sequences (``L`` rows each).  Every concrete
    fault-free response is a completion of at least one returned
    sequence.  *reference* supplies a precomputed fault-free trajectory
    (e.g. from a :class:`~repro.sim.goodcache.GoodMachineCache`) so the
    good machine is not re-simulated here.
    """
    if reference is None:
        reference = simulate_sequence(circuit, patterns, engine="ir")
    base = StateSequence(states=[list(row) for row in reference.states])
    sequences: List[Tuple[StateSequence, List[List[int]]]] = [
        (base, [list(row) for row in reference.outputs])
    ]

    def forward_fill(seq: StateSequence) -> Optional[List[List[int]]]:
        """Forward-simulate marked frames; None when infeasible."""
        outputs = [list(row) for row in reference.outputs]
        length = len(patterns)
        u = min(seq.marked) if seq.marked else length
        while u < length:
            if u not in seq.marked:
                u += 1
                continue
            seq.marked.discard(u)
            values = eval_frame(circuit, patterns[u], seq.states[u])
            for position, line in enumerate(circuit.outputs):
                if values[line] != UNKNOWN:
                    outputs[u][position] = values[line]
            next_row = seq.states[u + 1]
            for flop_index, flop in enumerate(circuit.flops):
                computed = values[flop.ns]
                if computed == UNKNOWN:
                    continue
                stored = next_row[flop_index]
                if stored == UNKNOWN:
                    next_row[flop_index] = computed
                    seq.marked.add(u + 1)
                elif stored != computed:
                    return None
            u += 1
        seq.marked.clear()
        return outputs

    def output_gain(seq: StateSequence, u: int, flop_index: int) -> int:
        values_base = eval_frame(circuit, patterns[u], seq.states[u])
        gain = 0
        for alpha in (0, 1):
            row = list(seq.states[u])
            row[flop_index] = alpha
            values = eval_frame(circuit, patterns[u], row)
            gain += sum(
                1
                for line in circuit.outputs
                if values_base[line] == UNKNOWN and values[line] != UNKNOWN
            )
        return gain

    length = len(patterns)
    while len(sequences) * 2 <= n_references:
        # Choose the globally best (u, i) over the first sequence.
        best: Optional[Tuple[int, int, int]] = None
        seq0 = sequences[0][0]
        for u in range(length):
            for flop_index in range(circuit.num_flops):
                if any(
                    seq.states[u][flop_index] != UNKNOWN
                    for seq, _out in sequences
                ):
                    continue
                gain = output_gain(seq0, u, flop_index)
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, u, flop_index)
        if best is None:
            break
        _gain, u, flop_index = best
        expanded: List[Tuple[StateSequence, List[List[int]]]] = []
        for seq, _outputs in sequences:
            twin = seq.copy()
            seq.assign(u, flop_index, 0)
            twin.assign(u, flop_index, 1)
            for candidate in (seq, twin):
                filled = forward_fill(candidate)
                if filled is not None:
                    expanded.append((candidate, filled))
        if not expanded:  # pragma: no cover - defensive
            break
        sequences = expanded
    return [outputs for _seq, outputs in sequences]


class UnrestrictedSimulator:
    """MOT fault simulation without the single-response restriction."""

    def __init__(
        self,
        circuit: Circuit,
        patterns: Sequence[Sequence[int]],
        config: Optional[UnrestrictedConfig] = None,
        good_cache: Optional[GoodMachineCache] = None,
    ) -> None:
        """*good_cache* supplies the shared fault-free trajectory (see
        :class:`~repro.mot.simulator.ProposedSimulator`): the reference
        expansion and every per-reference runner reuse it instead of
        re-simulating the good machine ``n_references + 1`` times."""
        self.circuit = circuit
        self.patterns = [list(p) for p in patterns]
        self.config = config or UnrestrictedConfig()
        self.good_cache = (
            good_cache.require_match(circuit, self.patterns)
            if good_cache is not None
            else None
        )
        self.references = expand_fault_free_references(
            circuit,
            self.patterns,
            self.config.n_references,
            reference=(
                self.good_cache.result if self.good_cache is not None else None
            ),
        )
        self._runners = [
            ProposedSimulator(
                circuit,
                self.patterns,
                self.config.restricted,
                reference_outputs=reference,
                good_cache=self.good_cache,
            )
            for reference in self.references
        ]

    @property
    def n_references(self) -> int:
        return len(self.references)

    def prefilter(self, faults: Iterable[Fault]) -> None:
        """Run every per-reference runner's batched front over *faults*
        (:meth:`~repro.mot.simulator.ProcedureFront.prefilter`)."""
        fault_list = list(faults)
        for runner in self._runners:
            runner.prefilter(fault_list)

    def simulate_fault(
        self, fault: Fault, meter: Optional[BudgetMeter] = None
    ) -> FaultVerdict:
        """Detected iff the fault is detected against every expanded
        fault-free reference.

        A caller-supplied *meter* is shared by the per-reference runs,
        so the fault's budget bounds their combined effort, and its
        :class:`~repro.errors.BudgetExceeded` propagates to the caller.
        """
        verdicts = []
        for runner in self._runners:
            verdict = runner.simulate_fault(fault, meter)
            if not verdict.detected:
                return FaultVerdict(
                    fault,
                    verdict.status if verdict.status == "dropped" else "undetected",
                    how=verdict.how,
                )
            verdicts.append(verdict)
        if all(v.status == "conv" for v in verdicts):
            return FaultVerdict(fault, "conv")
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
