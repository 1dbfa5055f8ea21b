"""Structural stand-ins for the paper's benchmark circuits.

The paper's Table 2/3 circuits are the ISCAS-89 benchmarks plus three
circuits from Rudnick's dissertation [8].  Only ``s27`` is reproduced
verbatim (it is printed in the paper).  For the rest we *construct*
circuits from the module kit with comparable characteristics -- flip-flop
counts, controller+datapath structure, unresettable state, reconvergent
fan-out -- at sizes a pure-Python fault simulator can sweep.  The largest
circuits are deliberately scaled down; the scaling is recorded in
:mod:`repro.circuits.registry` and surfaced by the benchmark output.

What matters for reproducing the paper's *claims* is not gate-for-gate
identity but that the circuits exhibit the behaviours the procedures
exploit:

* flip-flops that stay unspecified under three-valued simulation (so
  conventional simulation under-reports detections),
* reconvergent present-state fan-out (so backward implications find
  conflicts, as in Figure 4),
* state observed through comparators/parity (so expansions specify
  output values).
"""

from __future__ import annotations

from typing import List

from repro.circuit.netlist import Circuit
from repro.circuits.modules import ModuleKit


def s208_like() -> Circuit:
    """Stand-in for s208: an 8-bit loadable counter with compare output.

    (The real s208 is a digital fractional multiplier: 8 flip-flops of
    counter-like state observed through a single output.)
    """
    kit = ModuleKit("s208_like")
    enable = kit.input("en")
    load = kit.input("ld")
    data = kit.inputs(8, "d")
    count = kit.counter(8, enable=enable, load=load, din=data)
    match = kit.equals_bus(count, data)
    kit.output(kit.and_(match, enable))
    kit.output(kit.parity(count[:4]))
    # Three cells of 3v-opaque state observed behind a tautology mask:
    # the fault population whose detection needs the MOT approach.
    cells = kit.opaque_cluster(3, data[1], data[6])
    kit.output(kit.masked_observation(data[4], cells))
    return kit.build()


def s298_like() -> Circuit:
    """Stand-in for s298: a traffic-controller-style FSM.

    Two interacting phase counters plus a 6-bit one-hot-ish state ring
    observed through decoded "lights" (the real s298 is a traffic light
    controller with 14 flip-flops and 6 outputs).
    """
    kit = ModuleKit("s298_like")
    car = kit.input("car")
    walk = kit.input("walk")
    tick = kit.input("tick")
    sync = kit.and_(car, walk)  # synchronous preset path
    preset = [tick, car, walk, kit.not_(tick)]
    phase = kit.counter(4, enable=tick, load=sync, din=preset, prefix="ph")
    expired = kit.equals_const(phase, 12)
    slot = kit.counter(
        4, enable=kit.and_(tick, car), load=sync, din=preset[::-1], prefix="sl"
    )
    # 6-bit twisted ring (Johnson-style) advanced when the phase expires;
    # reconvergent taps create implication/conflict opportunities.  The
    # feedback is gated by `walk` so the ring can initialize.
    ring: List[str] = [f"ring{k}" for k in range(6)]
    feedback = kit.and_(kit.xnor_(ring[5], ring[2]), walk)
    advance = kit.or_(expired, kit.and_(car, kit.not_(walk)))
    previous = feedback
    for k in range(6):
        kit.builder.add_flop(ring[k], kit.mux2(advance, ring[k], previous))
        previous = ring[k]
    for k in range(0, 6, 2):
        kit.output(kit.and_(ring[k], kit.not_(ring[k + 1])))
    kit.output(kit.equals_bus(phase, slot))
    kit.output(kit.parity(ring[:3] + [slot[0]]))
    cells = kit.opaque_cluster(4, car, tick)
    kit.output(kit.masked_observation(walk, cells))
    return kit.build()


def s344_like() -> Circuit:
    """Stand-in for s344: a 4x4 shift-add multiplier controller.

    Accumulator, multiplier shift register, step counter and a busy flag
    (the real s344/s349 is a 4-bit multiplier with 15 flip-flops).
    """
    kit = ModuleKit("s344_like")
    start = kit.input("start")
    a_in = kit.inputs(4, "a")
    b_in = kit.inputs(4, "b")
    zero = kit.xor_(a_in[0], a_in[0])  # structurally constant 0
    busy = "busy"
    step = kit.counter(
        2, enable=busy, load=start, din=[zero, zero], prefix="st"
    )
    done = kit.equals_const(step, 3)
    kit.builder.add_flop(busy, kit.mux2(done, kit.or_(busy, start), start))
    mult = kit.loadable_register(4, start, b_in, prefix="m")
    # Accumulator adds (a << step?) -- simplified: add a when mult LSB set.
    acc = [f"acc{k}" for k in range(8)]
    addend = [kit.and_(a, mult[0]) for a in a_in] + [
        kit.and_(a_in[3], kit.and_(mult[0], step[1])) for _ in range(4)
    ]
    summed, _carry = kit.ripple_adder(acc, addend)
    shifted = summed[1:] + [kit.xor_(summed[0], summed[7])]
    nxt = kit.mux2_bus(start, kit.mux2_bus(busy, acc, shifted), addend)
    for q, d in zip(acc, nxt):
        kit.builder.add_flop(q, d)
    kit.outputs(acc)
    kit.output(busy)
    kit.output(kit.parity(mult))
    cells = kit.opaque_cluster(3, b_in[2], a_in[1])
    kit.output(kit.masked_observation(a_in[3], cells))
    return kit.build()


def s420_like() -> Circuit:
    """Stand-in for s420: two chained 8-bit counter stages.

    (The real s420 is literally two s208 slices; we chain two counter
    stages the same way, the second enabled by the first's terminal
    count.)
    """
    kit = ModuleKit("s420_like")
    enable = kit.input("en")
    load = kit.input("ld")
    data = kit.inputs(8, "d")
    low = kit.counter(8, enable=enable, load=load, din=data, prefix="lo")
    terminal = kit.equals_const(low, 255)
    high = kit.counter(
        8, enable=kit.and_(enable, terminal), load=load, din=data, prefix="hi"
    )
    kit.output(kit.equals_bus(high, data))
    kit.output(kit.and_(kit.equals_bus(low, data), enable))
    kit.output(kit.parity(high[:4] + low[:2]))
    # Two masked observation points over a five-cell opaque cluster --
    # the fractional-multiplier-style precision loss that gives s208/s420
    # their large MOT-only fault population in Table 2.
    cells = kit.opaque_cluster(5, data[2], data[5])
    kit.output(kit.masked_observation(data[0], cells))
    kit.output(kit.masked_observation(data[7], cells[1:]))
    return kit.build()


def _alu(kit: ModuleKit, a, b, op):
    """Four-function ALU (add / and / or / xor) behind a mux tree."""
    add, carry = kit.ripple_adder(a, b)
    band = [kit.and_(x, y) for x, y in zip(a, b)]
    bor = [kit.or_(x, y) for x, y in zip(a, b)]
    bxor = [kit.xor_(x, y) for x, y in zip(a, b)]
    return kit.mux_tree(op, [add, band, bor, bxor]), carry


def s641_like() -> Circuit:
    """Stand-in for s641: a registered 8-bit four-function ALU with flags.

    Two loadable operand registers, an op select, and carry/zero/parity
    flags (the real s641 has 19 flip-flops and wide PI/PO counts).
    """
    kit = ModuleKit("s641_like")
    load_a = kit.input("lda")
    load_b = kit.input("ldb")
    op = kit.inputs(2, "op")
    data = kit.inputs(8, "d")
    reg_a = kit.loadable_register(8, load_a, data, prefix="a")
    reg_b = kit.loadable_register(8, load_b, data, prefix="b")
    result, carry = _alu(kit, reg_a, reg_b, op)
    zero = kit.nor_(*result)
    flags = kit.register([carry, zero, kit.parity(result)], prefix="f")
    kit.outputs(result)
    kit.outputs(flags)
    cells = kit.opaque_cluster(4, data[3], load_a)
    kit.output(kit.masked_observation(data[6], cells))
    return kit.build()


def s713_like() -> Circuit:
    """Stand-in for s713: the s641 datapath plus redundant reconvergence.

    (The real s713 is s641 with added redundant logic; its fault list
    contains undetectable faults.  We add a consensus term -- provably
    constant reconvergent logic -- so the fault list gains genuinely
    redundant faults.)
    """
    kit = ModuleKit("s713_like")
    load_a = kit.input("lda")
    load_b = kit.input("ldb")
    op = kit.inputs(2, "op")
    data = kit.inputs(8, "d")
    reg_a = kit.loadable_register(8, load_a, data, prefix="a")
    reg_b = kit.loadable_register(8, load_b, data, prefix="b")
    result, carry = _alu(kit, reg_a, reg_b, op)
    zero = kit.nor_(*result)
    # Consensus redundancy: x&y | x&~y | ~x&y == x | y; the consensus
    # term x&y is redundant, so its faults are undetectable.
    x, y = result[0], result[1]
    redundant = kit.or_(
        kit.and_(x, y), kit.and_(x, kit.not_(y)), kit.and_(kit.not_(x), y)
    )
    flags = kit.register(
        [carry, zero, kit.parity(result), redundant], prefix="f"
    )
    kit.outputs(result)
    kit.outputs(flags)
    cells = kit.opaque_cluster(4, data[2], load_b)
    kit.output(kit.masked_observation(data[5], cells))
    return kit.build()


def s1423_like() -> Circuit:
    """Stand-in for s1423 (scaled): a four-register mixing datapath.

    Four 8-bit registers written round-robin from an adder/xor mixing
    network, a phase counter, and comparator observability -- deep
    sequential behaviour like the real s1423 (74 FFs), scaled to 39 FFs
    for pure-Python simulation.
    """
    kit = ModuleKit("s1423_like")
    mode = kit.input("mode")
    stir = kit.input("stir")
    data = kit.inputs(8, "d")
    phase = kit.counter(
        2,
        enable=stir,
        load=kit.and_(mode, stir),
        din=[data[0], data[1]],
        prefix="ph",
    )
    write = kit.decoder(phase)
    banks: List[List[str]] = []
    for bank in range(4):
        banks.append([f"bk{bank}_{k}" for k in range(8)])
    mix01, _c = kit.ripple_adder(banks[0], banks[1])
    mix23 = [kit.xor_(x, y) for x, y in zip(banks[2], banks[3])]
    mixed = kit.mux2_bus(mode, mix01, mix23)
    # AND/OR injection so the banks can initialize from the data bus
    # (pure XOR mixing would keep the unknown power-up state forever).
    injected = [
        kit.and_(kit.or_(m, d), data[(k + 5) % 8])
        for k, (m, d) in enumerate(zip(mixed, data))
    ]
    for bank in range(4):
        load = kit.and_(stir, write[bank])
        for k in range(8):
            kit.builder.add_flop(
                banks[bank][k], kit.mux2(load, banks[bank][k], injected[k])
            )
    kit.outputs([kit.equals_bus(banks[0], data), kit.equals_bus(banks[2], data)])
    kit.output(kit.parity([banks[1][k] for k in range(0, 8, 2)]))
    kit.output(kit.parity([banks[3][k] for k in range(1, 8, 2)]))
    kit.outputs(phase)
    cells = kit.opaque_cluster(5, data[4], mode)
    kit.output(kit.masked_observation(data[2], cells))
    return kit.build()


def s5378_like() -> Circuit:
    """Stand-in for s5378 (scaled): a controller + FIFO-ish datapath.

    The real s5378 (179 FFs, ~2800 gates) mixes counters, shifters and
    control; this scaled version (50 FFs) keeps that mix: two LFSR
    scramblers, a shift pipeline, a counter and decode-heavy control.
    """
    kit = ModuleKit("s5378_like")
    enable = kit.input("en")
    sel = kit.inputs(2, "sel")
    din = kit.inputs(4, "din")
    ctl = kit.counter(4, enable=enable, load=sel[0], din=din, prefix="ct")
    lfsr_a = kit.lfsr(
        8, taps=(0, 3, 4, 7), enable=enable, prefix="la", gate=din[0]
    )
    lfsr_b = kit.lfsr(
        8,
        taps=(1, 5, 7),
        enable=kit.or_(enable, sel[0]),
        prefix="lb",
        gate=din[1],
    )
    pipe = kit.shift_register(
        8, kit.xor_(lfsr_a[0], lfsr_b[3]), kit.and_(enable, sel[1]), prefix="pp"
    )
    mixed = [kit.xor_(a, b) for a, b in zip(lfsr_a, lfsr_b)]
    folded, _c = kit.ripple_adder(mixed[:4], pipe[:4])
    hold = kit.loadable_register(4, kit.equals_const(ctl, 9), folded, prefix="hd")
    stamp = kit.loadable_register(
        4, kit.and_(enable, kit.equals_bus(hold, din)), din, prefix="tm"
    )
    match = kit.equals_bus(stamp, din)
    ring = kit.shift_register(6, match, enable, prefix="rg")
    kit.outputs([kit.parity(pipe[:4]), kit.parity(lfsr_a[:3])])
    kit.outputs(hold)
    kit.outputs(stamp)
    kit.outputs(pipe[4:])
    kit.output(match)
    kit.output(kit.and_(ring[5], kit.not_(ring[0])))
    kit.outputs(ctl[:2])
    # The paper's headline case: an eight-cell opaque cluster observed at
    # three masked points.  With eight unknowns, plain state expansion
    # needs 2^8 sequences and aborts at the 64-sequence limit, while
    # backward implications close every branch for free -- reproducing
    # "[4] detects 0 extra faults on s5378, the proposed procedure 11".
    cells = kit.opaque_cluster(8, din[2], din[3])
    kit.output(kit.masked_observation(sel[0], cells))
    kit.output(kit.masked_observation(din[0], cells[1:]))
    kit.output(kit.masked_observation(din[1], cells[:7]))
    return kit.build()


def s15850_like() -> Circuit:
    """Stand-in for s15850 (heavily scaled): wide control over datapath.

    The real s15850 (597 FFs) is dominated by weakly observable control
    state; this stand-in (63 FFs) couples three counter/shift chains so
    most state stays unspecified under random patterns -- the regime in
    which the paper's Table 2 shows only a couple of extra detections.
    """
    kit = ModuleKit("s15850_like")
    go = kit.input("go")
    halt = kit.input("halt")
    addr = kit.inputs(4, "ad")
    run = "run"
    kit.builder.add_flop(run, kit.mux2(halt, kit.or_(run, go), go))
    pc = kit.counter(8, enable=run, prefix="pc")
    window = kit.shift_register(12, kit.equals_bus(pc[:4], addr), run, prefix="wn")
    tagbits = kit.lfsr(10, taps=(0, 2, 9), enable=kit.and_(run, window[3]), prefix="tg")
    score = kit.counter(
        6, enable=kit.and_(window[11], tagbits[0]), prefix="sc"
    )
    bank = kit.loadable_register(8, kit.equals_const(score, 17), pc, prefix="bk")
    deep = kit.shift_register(11, kit.parity(bank[:3]), kit.and_(run, go), prefix="dp")
    kit.output(kit.equals_bus(bank[:4], addr))
    kit.output(kit.parity(deep[8:]))
    kit.output(kit.and_(score[5], window[0]))
    kit.output(run)
    cells = kit.opaque_cluster(7, addr[1], go)
    kit.output(kit.masked_observation(addr[3], cells))
    return kit.build()


def s35932_like() -> Circuit:
    """Stand-in for s35932 (heavily scaled): wide, shallow, replicated.

    The real s35932 (1728 FFs) is a sea of identical shallow slices with
    high observability; this stand-in (71 FFs) replicates eight 8-FF
    slices of XOR-mix pipelines, each directly observed, plus a 7-cell
    opaque cluster -- matching the regime where most faults are
    conventionally detected and expansions close quickly.
    """
    kit = ModuleKit("s35932_like")
    enable = kit.input("en")
    data = kit.inputs(8, "d")
    carry_in = kit.input("ci")
    previous = carry_in
    for slice_index in range(8):
        qs = [f"sl{slice_index}_{k}" for k in range(8)]
        # AND/OR mixing (not pure XOR) so constants from the data inputs
        # initialize the slice state, as the real s35932's highly
        # observable slices do.
        source = data if slice_index % 2 == 0 else data[::-1]
        mixed = [
            kit.and_(kit.or_(qs[k], source[k]), source[(k + 3) % 8])
            for k in range(8)
        ]
        chained = [
            kit.or_(m, previous) if k == 0 else m for k, m in enumerate(mixed)
        ]
        for q, d_wire in zip(qs, kit.mux2_bus(enable, qs, chained)):
            kit.builder.add_flop(q, d_wire)
        previous = qs[7]
        kit.output(kit.parity(qs[:4]))
        kit.output(qs[0])
    cells = kit.opaque_cluster(7, data[1], data[4])
    kit.output(kit.masked_observation(data[6], cells))
    kit.output(kit.masked_observation(data[3], cells[1:]))
    kit.output(kit.masked_observation(enable, cells[:7]))
    return kit.build()


def am2910_like() -> Circuit:
    """Stand-in for am2910: a microprogram address sequencer.

    4-bit address version of the Am2910 architecture: a microprogram
    counter, a 4-deep subroutine stack, a loop counter and a next-address
    multiplexer selecting among uPC+1 / direct / stack / counter-test,
    driven by a 2-bit instruction and a condition-code input.
    """
    kit = ModuleKit("am2910_like")
    instr = kit.inputs(2, "i")
    cond = kit.input("cc")
    direct = kit.inputs(4, "dd")
    upc = [f"upc{k}" for k in range(4)]
    inc = kit.incrementer(upc, cond)
    sel = kit.decoder(instr)  # jump-zero / jump / call / return-loop
    push = kit.and_(sel[2], cond)
    pop = kit.and_(sel[3], cond)
    # Instruction 0 is the Am2910 RESET (jump-zero): address 0, pointer
    # cleared -- also the only initialization path for the sequencer.
    top = kit.stack(4, 2, push, pop, upc, prefix="st", clear=sel[0])
    counter = kit.loadable_register(
        4, kit.and_(sel[1], kit.not_(cond)), direct, prefix="cn"
    )
    count_done = kit.equals_const(counter, 0)
    loop_target = kit.mux2_bus(count_done, top, inc)
    zero = kit.xor_(cond, cond)
    nxt = kit.mux_tree(instr, [[zero] * 4, direct, inc, loop_target])
    for q, d in zip(upc, nxt):
        kit.builder.add_flop(q, d)
    kit.outputs(upc)
    kit.output(kit.equals_bus(upc, direct))
    kit.output(count_done)
    # Mixed opaque population: the four-cell cluster is within reach of
    # plain expansion, the eight-cell cluster is not -- proposed detects
    # both groups, [4] only the first (Table 2: 38 vs 25 extra).
    small = kit.opaque_cluster(4, direct[0], cond, prefix="ocs")
    big = kit.opaque_cluster(8, direct[2], instr[0], prefix="ocb")
    kit.output(kit.masked_observation(direct[1], small))
    kit.output(kit.masked_observation(direct[3], big))
    kit.output(kit.masked_observation(instr[1], big[1:]))
    return kit.build()


def mp1_16_like() -> Circuit:
    """Stand-in for Rudnick's mp1_16: a minimal accumulator processor.

    8-bit accumulator, 4-bit program counter, carry/zero flags; the
    instruction (op + immediate) is applied at the primary inputs, as in
    a test-mode processor core.
    """
    kit = ModuleKit("mp1_16_like")
    op = kit.inputs(2, "op")
    imm = kit.inputs(8, "im")
    jump = kit.input("jmp")
    acc = [f"ac{k}" for k in range(8)]
    alu_out, carry = _alu(kit, acc, imm, op)
    for q, d in zip(acc, alu_out):
        kit.builder.add_flop(q, d)
    zero = kit.nor_(*alu_out)
    flags = kit.register([carry, zero], prefix="fl")
    pc = kit.counter(4, enable=kit.not_(jump), load=jump, din=imm[:4], prefix="pc")
    kit.outputs(pc)
    kit.output(flags[0])
    kit.output(flags[1])
    kit.output(kit.parity(acc))
    kit.outputs(acc[:4])
    small = kit.opaque_cluster(4, imm[1], jump, prefix="ocs")
    big = kit.opaque_cluster(7, imm[5], op[0], prefix="ocb")
    kit.output(kit.masked_observation(imm[2], small))
    kit.output(kit.masked_observation(imm[6], big))
    return kit.build()


def mp2_like() -> Circuit:
    """Stand-in for Rudnick's mp2: a larger two-register processor.

    Accumulator + index register, 6-bit PC with relative branch, a small
    status word, and weaker observability (only flags and a bus parity
    are visible), matching mp2's low conventional coverage in Table 2.
    """
    kit = ModuleKit("mp2_like")
    op = kit.inputs(2, "op")
    use_x = kit.input("ux")
    wr_x = kit.input("wx")
    branch = kit.input("br")
    imm = kit.inputs(8, "im")
    acc = [f"ac{k}" for k in range(8)]
    xreg = [f"xr{k}" for k in range(8)]
    operand = kit.mux2_bus(use_x, imm, xreg)
    alu_out, carry = _alu(kit, acc, operand, op)
    for q, d in zip(acc, alu_out):
        kit.builder.add_flop(q, d)
    for q, d in zip(xreg, kit.mux2_bus(wr_x, xreg, alu_out)):
        kit.builder.add_flop(q, d)
    zero = kit.nor_(*alu_out)
    negative = kit.buf(alu_out[7])
    flags = kit.register([carry, zero, negative], prefix="fl")
    take = kit.and_(branch, flags[1])
    target = imm[:6]  # absolute branch target (the PC's only init path)
    pc = [f"pc{k}" for k in range(6)]
    inc = kit.incrementer(pc, kit.not_(take))
    for q, d in zip(pc, kit.mux2_bus(take, inc, target)):
        kit.builder.add_flop(q, d)
    kit.output(flags[0])
    kit.output(flags[1])
    kit.output(flags[2])
    kit.output(kit.parity(acc + xreg))
    kit.output(kit.equals_const(pc, 0))
    small = kit.opaque_cluster(3, imm[3], branch, prefix="ocs")
    big = kit.opaque_cluster(9, imm[7], use_x, prefix="ocb")
    kit.output(kit.masked_observation(imm[0], small))
    kit.output(kit.masked_observation(imm[4], big))
    kit.output(kit.masked_observation(op[1], big[2:]))
    return kit.build()
