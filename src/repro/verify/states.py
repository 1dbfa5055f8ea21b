"""Every binary initial state of a circuit, as the slots of kernel passes.

Every check that quantifies over the initial states of a circuit (both
MOT oracles, witness checking, pessimism, exact diagnosis, sequential
equivalence) runs on :func:`initial_state_chunks`: ``2^CHUNK_BITS``
states per chunk, one :func:`~repro.sim.kernel.eval_pass` per time unit.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.sim.ir import CircuitIR, compile_circuit
from repro.sim.kernel import broadcast_planes, eval_pass

#: Most free flip-flops an enumeration accepts (2^25 initial states).
MAX_FREE_FLOPS = 25
#: log2 of the number of initial states simulated per chunk.
CHUNK_BITS = 16

Planes = Tuple[List[int], List[int]]


def slot_values(planes: Planes, slot: int) -> Tuple[int, ...]:
    """Slot *slot* of one ``(ones, zeros)`` plane list, as values."""
    bit = 1 << slot
    return tuple(
        ONE if one & bit else (ZERO if zero & bit else UNKNOWN)
        for one, zero in zip(*planes)
    )


class StateChunk:
    """Initial states ``start .. start + width - 1``, simulated on demand.

    :meth:`state` and :meth:`outputs` return ``(ones, zeros)`` plane
    lists (bit *k* is state ``start + k``) and simulate only the frames
    they need, so a caller that has its answer early stops there.
    """

    def __init__(
        self,
        ir: CircuitIR,
        patterns: Sequence[Sequence[int]],
        forced: Mapping[int, int],
        start: int,
        mask: int,
        initial: Planes,
    ) -> None:
        self.start = start
        self.mask = mask
        self.width = mask.bit_length()
        self._ir = ir
        self._patterns = patterns
        self._forced = forced
        self._states: List[Planes] = [initial]
        self._outputs: List[Planes] = []

    def state(self, u: int) -> Planes:
        """Per-flop planes of the present state at time unit *u* (0..L)."""
        self._simulate(u)
        return self._states[u]

    def outputs(self, u: int) -> Planes:
        """Per-output planes of frame *u* (0..L-1)."""
        self._simulate(u + 1)
        return self._outputs[u]

    def _simulate(self, frames: int) -> None:
        ir = self._ir
        mask = self.mask
        while len(self._outputs) < frames:
            ones = [0] * ir.num_lines
            zeros = [0] * ir.num_lines
            pattern = self._patterns[len(self._outputs)]
            pi_ones, pi_zeros = broadcast_planes(pattern, mask)
            for line, v1, v0 in zip(ir.inputs, pi_ones, pi_zeros):
                ones[line], zeros[line] = v1, v0
            for line, v1, v0 in zip(ir.ps_lines, *self._states[-1]):
                ones[line], zeros[line] = v1, v0
            eval_pass(ir, ones, zeros, mask)
            self._outputs.append(
                ([ones[line] for line in ir.outputs],
                 [zeros[line] for line in ir.outputs])
            )
            state = ([ones[line] for line in ir.ns_lines],
                     [zeros[line] for line in ir.ns_lines])
            for flop_index, value in self._forced.items():
                state[0][flop_index] = mask if value == ONE else 0
                state[1][flop_index] = 0 if value == ONE else mask
            self._states.append(state)


def initial_state_chunks(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    forced: Optional[Mapping[int, int]] = None,
) -> Iterator[StateChunk]:
    """Every binary initial state of *circuit* under *patterns*, in
    chunks of ``2^CHUNK_BITS`` (fewer when fewer flops are free).

    States are numbered in :func:`itertools.product` order over the
    flops not in *forced*, so state ``chunk.start + k`` is slot *k*.
    *forced* maps flop index -> stuck value, held at every time unit as
    in :func:`~repro.sim.sequential.simulate_sequence`.  Raises
    :class:`ValueError` on the first ``next`` when more than
    :data:`MAX_FREE_FLOPS` flip-flops are free.
    """
    forced = dict(forced or {})
    ir = compile_circuit(circuit)
    num_flops = len(ir.ps_lines)
    free = [i for i in range(num_flops) if i not in forced]
    if len(free) > MAX_FREE_FLOPS:
        raise ValueError(
            f"{len(free)} free flip-flops exceed "
            f"MAX_FREE_FLOPS={MAX_FREE_FLOPS}"
        )
    low = min(len(free), CHUNK_BITS)
    mask = (1 << (1 << low)) - 1
    # Bit doubling: each low flop doubles the slots; the planes so far
    # repeat in the new upper half, where the new flop is 1.  The high
    # flops are constant across a chunk.
    low_planes = {}
    width = 1
    for flop_index in reversed(free[len(free) - low:]):
        for other, plane in low_planes.items():
            low_planes[other] = plane | plane << width
        low_planes[flop_index] = ((1 << width) - 1) << width
        width <<= 1
    for chunk in range(1 << (len(free) - low)):
        start = chunk << low
        state = [forced.get(i, ZERO) for i in range(num_flops)]
        for position, flop_index in enumerate(reversed(free)):
            state[flop_index] = (start >> position) & 1
        ones, zeros = broadcast_planes(state, mask)
        for flop_index, plane in low_planes.items():
            ones[flop_index] = plane
            zeros[flop_index] = mask ^ plane
        yield StateChunk(ir, patterns, forced, start, mask, (ones, zeros))


def response_set(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    forced: Optional[Mapping[int, int]] = None,
) -> Set[Tuple[Tuple[int, ...], ...]]:
    """Every distinct output response of *circuit* over its initial
    states (the ``outputs`` rows of :func:`simulate_sequence`)."""
    responses = set()
    for chunk in initial_state_chunks(circuit, patterns, forced):
        rows = [chunk.outputs(u) for u in range(len(patterns))]
        # Split the slots by every plane that is neither empty nor full:
        # each class left holds the states of one response.
        classes = [chunk.mask]
        for ones, zeros in rows:
            for plane in ones + zeros:
                if 0 < plane < chunk.mask:
                    classes = [
                        part
                        for members in classes
                        for part in (members & plane, members & ~plane)
                        if part
                    ]
        for members in classes:
            slot = (members & -members).bit_length() - 1
            responses.add(tuple(slot_values(row, slot) for row in rows))
    return responses
