"""Sequential (multi-frame) three-valued simulation.

Simulates a test sequence frame by frame from an (optionally) unspecified
initial state.  This is "conventional simulation" in the paper's sense:
three-valued logic, a single state/output trajectory.  Both the fault-free
reference response and the faulty-circuit starting point for the MOT
procedures come from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.faults.injection import InjectedFault
from repro.logic.values import UNKNOWN
from repro.sim.frame import eval_frame

Patterns = Sequence[Sequence[int]]


@dataclass
class SequentialResult:
    """Trajectory of a sequential simulation.

    Attributes
    ----------
    states:
        ``states[u][i]`` is the value of present-state variable ``y_i`` at
        time unit ``u``; the list has ``L + 1`` entries (the paper's
        "time unit L" state reached after the last pattern).
    outputs:
        ``outputs[u][o]`` is primary output ``o`` at time unit ``u``
        (``L`` entries).
    frames:
        When requested, ``frames[u]`` holds every line value of frame
        ``u`` -- the starting point for backward implications.
    """

    states: List[List[int]]
    outputs: List[List[int]]
    frames: Optional[List[List[int]]] = None

    @property
    def length(self) -> int:
        return len(self.outputs)


def simulate_sequence(
    circuit: Circuit,
    patterns: Patterns,
    initial_state: Optional[Sequence[int]] = None,
    forced_ps: Optional[Dict[int, int]] = None,
    keep_frames: bool = False,
    engine: str = "interp",
) -> SequentialResult:
    """Simulate *patterns* on *circuit* with three-valued logic.

    Parameters
    ----------
    circuit:
        Netlist to simulate (fault-free, or the transformed circuit of an
        :class:`~repro.faults.injection.InjectedFault`).
    patterns:
        The test sequence ``T``: one primary-input pattern per time unit.
    initial_state:
        Present-state values at time 0.  Defaults to all-unspecified,
        which models the unknown power-up state of ISCAS-89 circuits.
    forced_ps:
        Flop index -> value for state variables whose flip-flop output
        stem is stuck (see :mod:`repro.faults.injection`); those state
        entries are pinned to the stuck value at every time unit.
    keep_frames:
        Keep all per-frame line values (needed by backward implications).
    engine:
        ``"interp"`` (per-gate plan interpreter, the default and the
        oracle) or ``"ir"`` (compiled two-plane kernel, used for the
        good machine of every campaign); the trajectories are
        bit-identical, asserted by the differential suite.
    """
    if engine == "ir":
        from repro.sim.kernel import simulate_sequence_ir

        result: SequentialResult = simulate_sequence_ir(
            circuit,
            patterns,
            initial_state=initial_state,
            forced_ps=forced_ps,
            keep_frames=keep_frames,
        )
        return result
    if engine != "interp":
        raise ValueError(f"unknown simulation engine {engine!r}")
    num_flops = circuit.num_flops
    if initial_state is None:
        state = [UNKNOWN] * num_flops
    else:
        if len(initial_state) != num_flops:
            raise ValueError(
                f"expected {num_flops} state values, got {len(initial_state)}"
            )
        state = list(initial_state)
    if forced_ps:
        for flop_index, value in forced_ps.items():
            state[flop_index] = value
    states = [list(state)]
    outputs: List[List[int]] = []
    frames: Optional[List[List[int]]] = [] if keep_frames else None
    output_lines = circuit.outputs
    ns_lines = [flop.ns for flop in circuit.flops]
    for pattern in patterns:
        values = eval_frame(circuit, pattern, state)
        outputs.append([values[line] for line in output_lines])
        state = [values[line] for line in ns_lines]
        if forced_ps:
            for flop_index, value in forced_ps.items():
                state[flop_index] = value
        states.append(list(state))
        if frames is not None:
            frames.append(values)
    return SequentialResult(states=states, outputs=outputs, frames=frames)


def simulate_injected(
    injected: InjectedFault,
    patterns: Patterns,
    initial_state: Optional[Sequence[int]] = None,
    keep_frames: bool = False,
) -> SequentialResult:
    """Simulate the faulty circuit of *injected* (convenience wrapper)."""
    return simulate_sequence(
        injected.circuit,
        patterns,
        initial_state=initial_state,
        forced_ps=injected.forced_ps,
        keep_frames=keep_frames,
    )


def outputs_conflict(
    reference: Sequence[Sequence[int]], response: Sequence[Sequence[int]]
) -> Optional[tuple]:
    """First (time, output) where two output sequences hold opposite
    *specified* values, or ``None`` when they are three-valued consistent.

    This is the single-observation-time detection check: a fault is
    conventionally detected when the faulty response provably differs from
    the fault-free response at some specified position.
    """
    for time, (ref_row, resp_row) in enumerate(zip(reference, response)):
        for position, (ref, resp) in enumerate(zip(ref_row, resp_row)):
            if ref != resp and ref != UNKNOWN and resp != UNKNOWN:
                return (time, position)
    return None
