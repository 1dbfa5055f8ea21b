"""Every force shape on every gate family, against the injected circuit.

A compiled fault batch (:func:`repro.sim.kernel.compile_fault_batch`)
stores each stuck line or pin as a force oriented to the planes its run
reads or writes, and applies a force that holds only stuck-at-1 or only
stuck-at-0 slots with one operation per plane.  A slip in an
orientation or in a one-sided branch gives wrong values only for some
gate families and some mixes of stuck values, so each circuit's fault
universe runs three times -- every fault, the stuck-at-1 faults alone
and the stuck-at-0 faults alone -- and the ``detected`` and
``condition_c`` bits of every fault must equal those of
``inject_fault`` plus ``simulate_injected``.  The corpus is the random
Moore machines of ``test_fault_batch_masks`` plus a hand-built netlist
with what they lack: one-input AND, NAND, OR and NOR gates, a gate
reading one line twice, an 8-input OR, XNOR gates and constants.
"""

import functools

import pytest

from repro.circuit.bench import parse_bench
from repro.circuits.generators import random_moore
from repro.logic.values import ONE, ZERO
from repro.patterns.random_gen import random_patterns
from repro.sim.ir import (
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    READS_SWAPPED,
    WRITES_SWAPPED,
)
from repro.sim.kernel import compile_fault_batch
from repro.sim.sequential import simulate_sequence
from tests.helpers import program_entries
from tests.sim.test_fault_batch_masks import (
    assert_masks_agree,
    fault_universe,
    interpreted,
    with_unknown_inputs,
)

#: Every gate shape the random machines lack, with each gate family
#: reading a line of two or more consumers (so its pins carry branch
#: faults) and every flop and output fed by a different family.
EVERY_SHAPE_BENCH = """
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(o1)
OUTPUT(o2)
OUTPUT(o3)
q0 = DFF(d0)
q1 = DFF(d1)
k0 = CONST0()
k1 = CONST1()
u1 = AND(a)
u2 = NAND(b)
u3 = OR(c)
u4 = NOR(q0)
v1 = BUFF(a)
v2 = NOT(b)
t1 = AND(a, a)
t2 = NAND(u1, q1)
t3 = OR(u2, k0)
t4 = NOR(u3, k1)
w8 = OR(a, b, c, q0, q1, u1, u2, u3)
x1 = XOR(t1, b)
x2 = XNOR(u4, c, q1)
d0 = AND(w8, x2, t2)
d1 = NOR(x1, t3, v1)
o1 = NAND(t4, v2, q0)
o2 = XNOR(d0, a)
o3 = XOR(d1, b)
"""

FAMILY = {
    OP_AND: "AND", OP_NAND: "NAND", OP_OR: "OR", OP_NOR: "NOR",
    OP_XOR: "XOR", OP_XNOR: "XNOR", OP_NOT: "NOT", OP_BUF: "BUF",
    OP_CONST0: "CONST", OP_CONST1: "CONST",
}

#: Random machines of the corpus, by seed.
RANDOM_SEEDS = range(8)


@functools.lru_cache(maxsize=None)
def corpus():
    return (parse_bench(EVERY_SHAPE_BENCH, "every_shape"),) + tuple(
        random_moore(seed, num_inputs=2, num_flops=3, num_gates=14)
        for seed in RANDOM_SEEDS
    )


def fault_sets(circuit):
    """The universe, its stuck-at-1 faults and its stuck-at-0 faults."""
    faults = fault_universe(circuit)
    return {
        "all": faults,
        "sa1": [f for f in faults if f.stuck_at == ONE],
        "sa0": [f for f in faults if f.stuck_at == ZERO],
    }


@functools.lru_cache(maxsize=None)
def workload(index):
    circuit = corpus()[index]
    patterns = with_unknown_inputs(
        random_patterns(circuit.num_inputs, 10, seed=index), index
    )
    reference = simulate_sequence(circuit, patterns).outputs
    return circuit, patterns, reference


@pytest.mark.parametrize("subset", ["all", "sa1", "sa0"])
@pytest.mark.parametrize("index", range(1 + len(RANDOM_SEEDS)))
def test_one_sided_and_two_sided_forces_match_injection(index, subset):
    circuit, patterns, reference = workload(index)
    faults = fault_sets(circuit)[subset]
    expected = [interpreted(circuit, f, patterns, reference) for f in faults]
    for batch in (len(faults), 5):
        assert_masks_agree(
            circuit, faults, patterns, reference, batch, expected
        )


def force_shape(force, swapped):
    """``"one"``, ``"zero"`` or ``"both"``: the stuck values of an
    oriented *force* (``swapped`` when its planes are ``(zeros, ones)``)."""
    force_p, _, force_q, _ = force
    one, zero = (force_q, force_p) if swapped else (force_p, force_q)
    return "both" if one and zero else ("one" if one else "zero")


def test_programs_hold_every_family_force_shape_and_site():
    """The corpus is not vacuous: its compiled programs force a gate
    pin and a gate output of every family with stuck-at-1 slots only,
    stuck-at-0 slots only and both (a constant has an output only)."""
    seen = set()
    for circuit in corpus():
        for faults in fault_sets(circuit).values():
            program = compile_fault_batch(circuit, faults).program
            for op, _, _, _, pins, force in program_entries(program):
                family = FAMILY[op]
                for pin in pins:
                    if pin is not None:
                        shape = force_shape(pin, READS_SWAPPED[op])
                        seen.add((family, shape, "pin"))
                if force is not None:
                    shape = force_shape(force, WRITES_SWAPPED[op])
                    seen.add((family, shape, "output"))
    shapes = ("one", "zero", "both")
    want = {
        (family, shape, site)
        for family in ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF")
        for shape in shapes
        for site in ("pin", "output")
    }
    want |= {("CONST", shape, "output") for shape in shapes}
    assert seen == want
