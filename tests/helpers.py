"""Shared fixtures for the test suite: small hand-built circuits and
the standard s27 campaign builders.

Each helper returns freshly built objects, so tests can never leak
state into one another through cached structures.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from repro.circuit.bench import parse_bench
from repro.circuit.netlist import Circuit
from repro.circuits.library import s27
from repro.faults.collapse import collapse_faults
from repro.faults.injection import inject_fault
from repro.logic.values import UNKNOWN
from repro.mot.simulator import MotConfig, ProposedSimulator
from repro.patterns.random_gen import random_patterns
from repro.sim.sequential import (
    outputs_conflict,
    simulate_injected,
    simulate_sequence,
)

#: Fault-free output is constant 0; with Z stuck-at-1 the output follows
#: the free-running toggle flop Q, whose phase depends on the unknown
#: initial state -- the paper's introductory example, as a netlist.
TOGGLE_BENCH = """
INPUT(A)
OUTPUT(O)
Q = DFF(QN)
NA = NOT(A)
Z = AND(A, NA)
QN = XOR(Q, A)
O = AND(Q, Z)
"""

#: Like TOGGLE_BENCH but observing both polarities of Q: with Z stuck-at
#: 1, *both* values of the next-state variable produce an output value
#: conflicting with the (constant 0) reference, so backward implications
#: alone prove detection (paper Section 3.2).
BOTH_BENCH = """
INPUT(A)
OUTPUT(O1)
OUTPUT(O2)
Q = DFF(QN)
NA = NOT(A)
NQ = NOT(Q)
Z = AND(A, NA)
QN = XOR(Q, A)
O1 = AND(Q, Z)
O2 = AND(NQ, Z)
"""

#: A two-flop circuit with a comparator output: handy for expansion
#: tests (the output resolves only when both flops are specified).
PAIR_BENCH = """
INPUT(A)
INPUT(B)
OUTPUT(O)
Q0 = DFF(D0)
Q1 = DFF(D1)
D0 = AND(Q0, A)
D1 = OR(Q1, B)
O = XNOR(Q0, Q1)
"""

#: Single flop, single inverter in a loop: output observes the flop.
LOOP_BENCH = """
INPUT(EN)
OUTPUT(O)
Q = DFF(D)
NQ = NOT(Q)
D = AND(NQ, EN)
O = OR(Q, EN)
"""

#: Purely combinational circuit (no flops) for degenerate-case tests.
COMB_BENCH = """
INPUT(A)
INPUT(B)
OUTPUT(Y)
N = NAND(A, B)
Y = XOR(N, A)
"""


def toggle_circuit() -> Circuit:
    return parse_bench(TOGGLE_BENCH, "toggle")


def both_circuit() -> Circuit:
    return parse_bench(BOTH_BENCH, "both")


def pair_circuit() -> Circuit:
    return parse_bench(PAIR_BENCH, "pair")


def loop_circuit() -> Circuit:
    return parse_bench(LOOP_BENCH, "loop")


def comb_circuit() -> Circuit:
    return parse_bench(COMB_BENCH, "comb")


def s27_patterns(length: int = 16, seed: int = 1) -> List[List[int]]:
    """The standard random input sequence for s27 campaign tests."""
    return random_patterns(4, length, seed=seed)


def s27_faults():
    """The collapsed fault list of s27 (32 faults)."""
    return collapse_faults(s27())


def s27_simulator(
    seed: int = 1,
    length: int = 16,
    config: Optional[MotConfig] = None,
) -> ProposedSimulator:
    """A :class:`ProposedSimulator` over s27 with the standard patterns."""
    circuit = s27()
    if config is None:
        return ProposedSimulator(circuit, s27_patterns(length, seed))
    return ProposedSimulator(circuit, s27_patterns(length, seed), config)


def serial_detected(circuit, faults, patterns, initial_state):
    """Faults detected from one known *initial_state*, fault by fault.

    With every flop specified the simulation is two-valued, so this is
    the exact per-state detection set: the faulty response conflicts
    with the fault-free one at some output and time unit.
    """
    reference = simulate_sequence(circuit, patterns, initial_state=initial_state)
    detected = set()
    for fault in faults:
        injected = inject_fault(circuit, fault)
        state = list(initial_state)
        for flop_index, value in injected.forced_ps.items():
            state[flop_index] = value
        response = simulate_injected(injected, patterns, initial_state=state)
        if outputs_conflict(reference.outputs, response.outputs) is not None:
            detected.add(fault)
    return detected


def serial_runs(circuit, patterns, forced=None):
    """``(initial state, simulate_sequence result)`` for every binary
    initial state, one state at a time.

    States come in ``itertools.product`` order over the flops not in
    *forced* (flop index -> stuck value, pinned at every time unit).
    This is the serial reference that the packed enumeration of
    :mod:`repro.verify.states` is checked against.
    """
    forced = forced or {}
    free = [i for i in range(circuit.num_flops) if i not in forced]
    for bits in itertools.product((0, 1), repeat=len(free)):
        state = [forced.get(i, 0) for i in range(circuit.num_flops)]
        for flop_index, bit in zip(free, bits):
            state[flop_index] = bit
        yield state, simulate_sequence(
            circuit, patterns, initial_state=state, forced_ps=forced
        )


def serial_restricted_mot(circuit, fault, patterns, reference_outputs):
    """Restricted-MOT detection decided one initial state at a time:
    every faulty response conflicts with the reference."""
    injected = inject_fault(circuit, fault)
    return all(
        outputs_conflict(reference_outputs, run.outputs) is not None
        for _state, run in serial_runs(
            injected.circuit, patterns, injected.forced_ps
        )
    )


def crash_on(simulator, crash_index, exc=None):
    """Instance-patch ``simulate_fault`` to raise on the Nth call.

    Returns the call counter dict so tests can assert how far the
    campaign got before the injected failure.
    """
    if exc is None:
        exc = RuntimeError("injected crash")
    original = simulator.simulate_fault
    calls = {"n": 0}

    def simulate_fault(fault, meter=None):
        index = calls["n"]
        calls["n"] += 1
        if index == crash_index:
            raise exc
        return original(fault, meter=meter)

    simulator.simulate_fault = simulate_fault
    return calls


def completions(values: Sequence[int]) -> List[Tuple[int, ...]]:
    """All binary completions of a three-valued vector."""
    choices = [(v,) if v != UNKNOWN else (0, 1) for v in values]
    return list(itertools.product(*choices))


def consistent(specified: Sequence[int], binary: Sequence[int]) -> bool:
    """True when *binary* completes the three-valued vector *specified*."""
    return all(s == UNKNOWN or s == b for s, b in zip(specified, binary))
