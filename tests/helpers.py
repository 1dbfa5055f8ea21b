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
from repro.logic.implication import Conflict
from repro.logic.values import UNKNOWN
from repro.mot.implication import FrameEngine
from repro.mot.simulator import MotConfig, ProposedSimulator
from repro.patterns.random_gen import random_patterns
from repro.sim.ir import KIND_CONST, KIND_COPY, KIND_PAIR
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


class SerialBackwardCollector:
    """Section 3.1 one probe at a time: the reference for
    :class:`repro.mot.backward.BackwardCollector`'s plane run.

    Each probe ``(u, i, a)`` copies the stored frame ``u-1``, assigns
    ``Y_i = a`` and runs :class:`~repro.mot.implication.FrameEngine`
    (``imply`` or ``imply_two_pass``); with ``depth > 1`` the
    present-state values a frame newly specified are pushed onto the
    next-state lines of the frame before it.  ``extra`` lists each
    state variable once, in the order the implication recorded it.
    """

    def __init__(
        self, injected, faulty, reference_outputs, profile,
        mode="fixpoint", depth=1,
    ):
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
        self._ns_line_of = [f.ns for f in flops]
        self._flops_of_ns = {}
        self._flop_of_ps = {}
        for index, flop in enumerate(flops):
            if index in injected.forced_ps:
                continue
            self._flops_of_ns.setdefault(flop.ns, []).append(index)
            self._flop_of_ps[flop.ps] = index

    def _imply(self, values, assignments, record):
        self.runs += 1
        if self.mode == "two_pass":
            self.engine.imply_two_pass(values, assignments, record)
        else:
            self.engine.imply(values, assignments, record)

    def _detection_site(self, values, time):
        reference = self.reference_outputs[time]
        for position, line in enumerate(self.circuit.outputs):
            value = values[line]
            ref = reference[position]
            if value != UNKNOWN and ref != UNKNOWN and value != ref:
                return (time, position)
        return None

    def probe(self, u, flop_index, alpha):
        """``(outcome, extra, site)`` of assigning ``Y_i = alpha`` in
        frame ``u-1``; outcome is ``"conf"``, ``"detect"`` or
        ``"extra"``."""
        frames = self.faulty.frames
        values = frames[u - 1].copy()
        record = []
        try:
            self._imply(values, [(self._ns_line_of[flop_index], alpha)], record)
        except Conflict:
            return "conf", [], None
        site = self._detection_site(values, u - 1)
        if site is not None:
            return "detect", [], site
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
        extra = []
        states_u = self.faulty.states[u]
        for line, value in record:
            for flop in self._flops_of_ns.get(line, ()):
                if states_u[flop] == UNKNOWN and (flop, value) not in extra:
                    extra.append((flop, value))
        return "extra", extra, None

    def collect(self):
        """Every probe's ``(outcome, extra, site)``, keyed by
        ``(u, i, alpha)``, in the collector's pair order."""
        states = self.faulty.states
        forced = self.injected.forced_ps
        probes = {}
        for u in range(1, self.faulty.length + 1):
            if self.profile.n_out[u - 1] <= 0:
                continue
            for flop_index in range(self.circuit.num_flops):
                if flop_index in forced or states[u][flop_index] != UNKNOWN:
                    continue
                for alpha in (0, 1):
                    probes[(u, flop_index, alpha)] = self.probe(
                        u, flop_index, alpha
                    )
        return probes


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


def program_entries(program):
    """Every gate entry of a kernel program in schedule order, decoded to
    ``(opcode, kind, output, fanins, pin forces, line force)`` whatever
    the entry's shape; *pin forces* has one force or ``None`` per fanin.
    """
    for op, kind, gates in program:
        for entry in gates:
            if kind == KIND_CONST:
                out, force = entry
                fanins, pins = (), ()
            elif kind == KIND_COPY:
                out, a, pin, force = entry
                fanins, pins = (a,), (pin,)
            elif kind == KIND_PAIR:
                out, a, b, pin_a, pin_b, force = entry
                fanins, pins = (a, b), (pin_a, pin_b)
            else:
                out, first, rest, pin_first, rest_pins, force = entry
                fanins = (first,) + rest
                pins = (pin_first,) + (rest_pins or (None,) * len(rest))
            yield op, kind, out, fanins, pins, force
