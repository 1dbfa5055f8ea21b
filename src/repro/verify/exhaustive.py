"""Exhaustive ground-truth oracle for restricted-MOT detection.

Under the *restricted* multiple observation time approach, a fault is
detected by a test sequence exactly when, for **every** initial state of
the faulty circuit, the (fully binary) faulty response conflicts with the
single fault-free three-valued reference response at some position where
the reference is specified.

This module decides that definition directly by enumerating all ``2^k``
initial states of the faulty circuit (:mod:`repro.verify.states`) --
exponential, but exact, which makes it the correctness oracle for the
whole MOT pipeline on circuits with up to 25 free flip-flops: the
proposed procedure and the baseline must never declare a fault detected
that this oracle rejects (soundness), and with a generous ``N_STATES``
they should agree on tiny circuits (completeness in the limit).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.faults.injection import inject_fault
from repro.faults.model import Fault
from repro.logic.values import ONE, ZERO
from repro.sim.sequential import simulate_sequence
from repro.verify.states import initial_state_chunks, response_set


def exhaustive_unrestricted_mot(
    circuit: Circuit,
    fault: Fault,
    patterns: Sequence[Sequence[int]],
) -> bool:
    """Decide *unrestricted*-MOT detection of *fault* by enumeration.

    Under the unrestricted multiple observation time approach [2], a
    fault is detected exactly when the set of possible faulty responses
    (over faulty initial states) is disjoint from the set of possible
    fault-free responses (over fault-free initial states): any observed
    response then classifies the circuit as good or faulty.
    """
    injected = inject_fault(circuit, fault)
    good = response_set(circuit, patterns)
    faulty = response_set(injected.circuit, patterns, injected.forced_ps)
    return not (good & faulty)


def exhaustive_restricted_mot(
    circuit: Circuit,
    fault: Fault,
    patterns: Sequence[Sequence[int]],
    reference_outputs: Optional[Sequence[Sequence[int]]] = None,
) -> bool:
    """Decide restricted-MOT detection of *fault* by enumeration.

    Parameters
    ----------
    circuit:
        Fault-free circuit.
    fault:
        The fault to decide.
    patterns:
        The (fully specified) test sequence.
    reference_outputs:
        Precomputed fault-free response; recomputed when omitted.

    Raises
    ------
    ValueError
        If the faulty circuit has more than
        :data:`~repro.verify.states.MAX_FREE_FLOPS` free flip-flops.
    """
    if reference_outputs is None:
        reference_outputs = simulate_sequence(circuit, patterns).outputs
    injected = inject_fault(circuit, fault)
    for chunk in initial_state_chunks(
        injected.circuit, patterns, injected.forced_ps
    ):
        conflict = 0
        for u, reference in enumerate(reference_outputs[: len(patterns)]):
            ones, zeros = chunk.outputs(u)
            for expected, one, zero in zip(reference, ones, zeros):
                if expected == ONE:
                    conflict |= zero
                elif expected == ZERO:
                    conflict |= one
            if conflict == chunk.mask:
                break
        else:
            return False
    return True
