"""Behavioural equivalence checking (exhaustive, for small circuits).

Two flavours:

* :func:`frames_equivalent` -- the combinational frames compute the same
  outputs and next-state values for every (input, state) assignment
  (used e.g. to prove the ``.bench`` and ``.isc`` s27 netlists
  identical);
* :func:`sequentially_equivalent` -- the circuits produce the same
  output responses from every pair of identified initial states under a
  set of test sequences (a simulation-based check, not a formal proof;
  exhaustive over initial states, sampled over sequences).

Both require the circuits to agree on port and flip-flop *order* (the
correspondence is positional).
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.sim.frame import eval_frame
from repro.verify.states import initial_state_chunks, slot_values


def _check_interfaces(a: Circuit, b: Circuit) -> None:
    if a.num_inputs != b.num_inputs:
        raise ValueError("circuits differ in primary-input count")
    if a.num_outputs != b.num_outputs:
        raise ValueError("circuits differ in primary-output count")
    if a.num_flops != b.num_flops:
        raise ValueError("circuits differ in flip-flop count")


def frames_equivalent(
    a: Circuit, b: Circuit, max_vars: int = 16
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Exhaustively compare the combinational frames.

    Returns ``None`` when equivalent, else a counterexample
    ``(inputs, state)``.

    Raises
    ------
    ValueError
        On interface mismatch or more than *max_vars* free variables.
    """
    _check_interfaces(a, b)
    width = a.num_inputs + a.num_flops
    if width > max_vars:
        raise ValueError(f"{width} frame variables exceed max_vars={max_vars}")
    for bits in itertools.product((0, 1), repeat=width):
        pis = list(bits[: a.num_inputs])
        state = list(bits[a.num_inputs:])
        values_a = eval_frame(a, pis, state)
        values_b = eval_frame(b, pis, state)
        for out_a, out_b in zip(a.outputs, b.outputs):
            if values_a[out_a] != values_b[out_b]:
                return tuple(pis), tuple(state)
        for flop_a, flop_b in zip(a.flops, b.flops):
            if values_a[flop_a.ns] != values_b[flop_b.ns]:
                return tuple(pis), tuple(state)
    return None


def sequentially_equivalent(
    a: Circuit,
    b: Circuit,
    sequences: Sequence[Sequence[Sequence[int]]],
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Simulation-based sequential equivalence over *sequences*.

    Every binary initial state (applied to both circuits positionally)
    must produce identical output responses for every given sequence.
    Returns ``None`` or the first counterexample ``(sequence index,
    state)`` in :func:`itertools.product` order of the states.
    """
    _check_interfaces(a, b)
    for index, patterns in enumerate(sequences):
        for chunk_a, chunk_b in zip(
            initial_state_chunks(a, patterns),
            initial_state_chunks(b, patterns),
        ):
            differ = 0
            for u in range(len(patterns)):
                for one_a, zero_a, one_b, zero_b in zip(
                    *chunk_a.outputs(u), *chunk_b.outputs(u)
                ):
                    differ |= (one_a ^ one_b) | (zero_a ^ zero_b)
            if differ:
                slot = (differ & -differ).bit_length() - 1
                return index, slot_values(chunk_a.state(0), slot)
    return None
