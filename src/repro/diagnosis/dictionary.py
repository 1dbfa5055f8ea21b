"""Fault dictionaries and response-based diagnosis.

A *fault dictionary* maps each modelled fault to its simulated response
signature under a fixed test sequence; *diagnosis* then inverts it:
given the response observed from a failing chip, which modelled faults
explain it?

With the unknown power-up state of unscanned circuits, a fault's
signature is three-valued: an ``x`` position means "depends on the
initial state".  An observed (binary) response *matches* a candidate
when it completes the candidate's signature -- the same abstraction
argument the MOT procedures build on.  Candidates are ranked by how many
specified positions of their signature the observation pins down, and
faults whose signature provably conflicts with the observation are
eliminated.

For high-resolution diagnosis on oracle-sized circuits,
``per_state_signatures`` enumerates the faulty initial states, turning
the x's into the exact set of possible responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.injection import inject_fault
from repro.faults.model import Fault
from repro.logic.values import UNKNOWN
from repro.sim.sequential import simulate_injected, simulate_sequence
from repro.verify.states import response_set

Signature = Tuple[Tuple[int, ...], ...]


@dataclass
class FaultDictionary:
    """Signatures of every modelled fault under one test sequence."""

    circuit: Circuit
    patterns: List[List[int]]
    reference: Signature
    signatures: Dict[Fault, Signature]

    @property
    def num_faults(self) -> int:
        return len(self.signatures)


def build_fault_dictionary(
    circuit: Circuit,
    faults: Sequence[Fault],
    patterns: Sequence[Sequence[int]],
) -> FaultDictionary:
    """Simulate every fault and record its three-valued signature."""
    patterns = [list(p) for p in patterns]
    reference = simulate_sequence(circuit, patterns)
    signatures: Dict[Fault, Signature] = {}
    for fault in faults:
        injected = inject_fault(circuit, fault)
        response = simulate_injected(injected, patterns)
        signatures[fault] = tuple(tuple(row) for row in response.outputs)
    return FaultDictionary(
        circuit=circuit,
        patterns=patterns,
        reference=tuple(tuple(row) for row in reference.outputs),
        signatures=signatures,
    )


@dataclass
class DiagnosisCandidate:
    """One fault consistent with the observed response."""

    fault: Fault
    #: Specified signature positions confirmed by the observation.
    matched: int
    #: Signature positions left unspecified (initial-state dependent).
    unknown: int

    @property
    def score(self) -> Tuple[int, int]:
        """Sort key: more confirmations first, fewer unknowns first."""
        return (-self.matched, self.unknown)


def diagnose(
    dictionary: FaultDictionary,
    observed: Sequence[Sequence[int]],
) -> List[DiagnosisCandidate]:
    """Rank the faults consistent with an observed binary response.

    A candidate is *eliminated* when its signature specifies a value the
    observation contradicts; the survivors are ranked by
    :attr:`DiagnosisCandidate.score`.
    """
    if len(observed) != len(dictionary.patterns):
        raise ValueError("observed response length mismatch")
    candidates: List[DiagnosisCandidate] = []
    for fault, signature in dictionary.signatures.items():
        matched = 0
        unknown = 0
        consistent = True
        for sig_row, obs_row in zip(signature, observed):
            for sig, obs in zip(sig_row, obs_row):
                if sig == UNKNOWN:
                    unknown += 1
                elif obs == UNKNOWN:
                    continue
                elif sig == obs:
                    matched += 1
                else:
                    consistent = False
                    break
            if not consistent:
                break
        if consistent:
            candidates.append(
                DiagnosisCandidate(fault=fault, matched=matched, unknown=unknown)
            )
    candidates.sort(key=lambda c: c.score)
    return candidates


def per_state_signatures(
    circuit: Circuit,
    fault: Fault,
    patterns: Sequence[Sequence[int]],
) -> List[Signature]:
    """The exact response set of *fault* over all initial states."""
    injected = inject_fault(circuit, fault)
    return sorted(response_set(injected.circuit, patterns, injected.forced_ps))


def observed_from_chip(
    circuit: Circuit,
    fault: Fault,
    patterns: Sequence[Sequence[int]],
    initial_state: Sequence[int],
) -> List[List[int]]:
    """Simulate the response a failing chip with *fault* would show
    (test/demo helper)."""
    injected = inject_fault(circuit, fault)
    run = simulate_injected(
        injected, patterns, initial_state=list(initial_state)
    )
    return run.outputs
