"""Unit coverage for the block builder (:mod:`repro.avr.blocks`) and the
compiled engine's cold tier.

The contract under test: the fusion rules (terminators, cap, misaligned
entries) cut blocks where documented, and cold-tier retirement — block
heads below the warm threshold, retired per instruction up to the next
terminator — is *observably identical* to the interpreter: interrupts
serviced at the exact same points with correct vector priority,
identical crashes with identical fault state, no stale decode executed
after a flash write, exact budget tails and hook degradation.  The hot
tier's compiled bodies are covered in ``test_compiled.py``.
"""

import pytest

from repro.avr import (
    AvrCpu,
    AvrProfiler,
    CpuStateStream,
    Instruction,
    Mnemonic,
    diff_state_streams,
    encode,
    encode_stream,
)
from repro.avr.blocks import FUSE_CAP, TERMINATORS, WRITE_CAPABLE
from repro.avr.compiled import BLOCK_STORE
from repro.errors import CpuFault, IllegalExecutionError

I = Instruction
M = Mnemonic

HOOK_ADDR = 0x0300  # an ordinary SRAM byte, hooked like a peripheral register
NEVER = 1 << 62  # a warm threshold no head ever reaches: all cold


@pytest.fixture(autouse=True)
def cold_block_store():
    """Fusion counts below assume no block bytes were entered earlier in
    the process, so every test starts with an empty block store."""
    BLOCK_STORE.clear()


def _cpu(program, engine="compiled", setup=None, warm=NEVER):
    """A core on ``program``; the compiled engine runs all-cold unless
    ``warm`` lowers its threshold (``warm=1`` fuses every head at once)."""
    cpu = AvrCpu(engine=engine)
    cpu.load_program(encode_stream(program))
    cpu.reset()
    if engine == "compiled":
        cpu.engine.WARM_THRESHOLD = warm
    if setup:
        setup(cpu)
    return cpu


def _state(cpu):
    return (
        cpu.pc,
        cpu.data.sp,
        cpu.sreg.byte,
        cpu.cycles,
        cpu.instructions_retired,
        cpu.halted,
        bytes(cpu.data.read_reg(r) for r in range(32)),
    )


def _hot_loop(body_len=6):
    body = [I(M.INC, rd=16 + (i % 4)) for i in range(body_len)]
    return body + [I(M.RJMP, k=-(body_len + 1))]


# -- terminator set -------------------------------------------------------


def test_terminator_set_covers_every_write_capable_mnemonic():
    # every store/out/sbi/cbi/push mnemonic must end a block: write hooks
    # (peripherals, interrupt requests, SPM self-writes) may only fire at
    # a boundary where the architectural counters are exact
    for mnemonic in WRITE_CAPABLE:
        assert mnemonic in TERMINATORS, mnemonic


# -- fusion rules ---------------------------------------------------------


def test_straight_line_loop_fuses_once_and_is_reused():
    cpu = _cpu(_hot_loop(6), warm=1)  # 6 INCs + RJMP = one 7-insn block
    engine = cpu.engine
    executed = cpu.run(70)
    assert executed == 70
    assert engine.fusion_lengths == [7]
    assert engine.blocks_built == 1
    assert engine.compiled_entered == 10


def test_fuse_cap_bounds_block_length():
    body = [I(M.INC, rd=16) for _ in range(FUSE_CAP + 8)]
    cpu = _cpu(body + [I(M.RJMP, k=-(len(body) + 1))], warm=1)
    cpu.run(len(body) + 1)
    assert cpu.engine.fusion_lengths[0] == FUSE_CAP


def test_cold_runs_stop_where_blocks_would():
    """A cold run retires up to the next terminator or the fuse cap, so
    cold and hot tiers see the same block heads."""
    body = [I(M.INC, rd=16) for _ in range(FUSE_CAP + 8)]
    cpu = _cpu(body + [I(M.RJMP, k=-(len(body) + 1))])
    cpu.run(2 * (len(body) + 1))
    counts = {head: record.count for head, record in cpu.engine._records.items()}
    assert counts == {0: 2, FUSE_CAP: 2}
    assert cpu.engine.blocks_built == 0


def test_sei_terminates_hot_blocks_but_sram_sts_does_not():
    program = [
        I(M.INC, rd=16),
        I(M.STS, k=HOOK_ADDR, rr=16),  # SRAM store -> fuses through
        I(M.INC, rd=17),
        I(M.BSET, b=7),                # sei -> terminator
        I(M.INC, rd=18),
        I(M.BREAK),
    ]
    cpu = _cpu(program, warm=1)
    cpu.run(100)
    assert cpu.halted
    # [inc, sts, inc, sei] [inc, break]
    assert cpu.engine.fusion_lengths == [4, 2]


def test_hot_blocks_end_at_register_sreg_pointer_and_bit_stores():
    """Hot fusion runs through SRAM/I-O `sts`, `out` and `push`, and still
    stops at every store the body cannot do as one guarded byte store;
    cold runs stop at every store."""
    program = [
        I(M.PUSH, rr=16), I(M.OUT, a=0x0A, rr=16), I(M.OUT, a=0x3D, rr=28),
        I(M.STS, k=0x0020, rr=16), I(M.STS, k=0x21FF, rr=16),
        I(M.STS, k=0x0010, rr=17),     # register: ends the first block
        I(M.STS, k=0x005F, rr=17),     # SREG
        I(M.OUT, a=0x3F, rr=0),        # out SREG
        I(M.SBI, a=0x0A, b=1),
        I(M.ST_X, rr=0),
        I(M.BREAK),
    ]
    cpu = _cpu(program, warm=1, setup=lambda c: c.data.write_block(26, b"\x00\x03"))
    cpu.data.sp = 0x21F0
    cpu.run(100)
    assert cpu.halted
    assert cpu.engine.fusion_lengths == [6, 1, 1, 1, 1, 1]
    cold = _cpu(program, setup=lambda c: c.data.write_block(26, b"\x00\x03"))
    cold.data.sp = 0x21F0
    cold.run(100)
    assert sorted(cold.engine._records) == [0, 1, 2, 3, 5, 7, 9, 11, 12, 13, 14]


def test_bclr_of_i_flag_does_not_terminate():
    # cli *clears* I — it can only delay servicing, never enable it
    # mid-block, so it fuses like any other flag instruction
    program = [I(M.BCLR, b=7), I(M.INC, rd=16), I(M.BREAK)]
    cpu = _cpu(program, warm=1)
    cpu.run(10)
    assert cpu.engine.fusion_lengths == [3]


# -- interrupt latency ----------------------------------------------------


def _interrupt_program():
    """A store whose write hook latches vectors 3 then 2 mid-execution.

    Vector 2's handler loads a marker; vector 3's handler *copies* it —
    so the copy observes the marker iff vector 2 (the lower number,
    higher priority) was serviced first.
    """
    return [
        I(M.JMP, k=8),                    # vector 0 -> main
        I(M.NOP), I(M.NOP),               # words 2-3 (vector slot padding)
        I(M.LDI, rd=20, k=1),             # vector 2 handler (word 4)
        I(M.RETI),
        I(M.MOV, rd=21, rr=20),           # vector 3 handler (word 6)
        I(M.RETI),
        I(M.BSET, b=7),                   # main (word 8): sei
        I(M.LDI, rd=26, k=HOOK_ADDR & 0xFF),
        I(M.LDI, rd=27, k=HOOK_ADDR >> 8),
        I(M.ST_X, rr=0),                  # hook latches both interrupts
        I(M.INC, rd=16), I(M.INC, rd=16), I(M.INC, rd=16),
        I(M.INC, rd=16), I(M.INC, rd=16), I(M.INC, rd=16),
        I(M.BREAK),
    ]


def _arm_interrupt_hook(cpu):
    def hook(address, value):
        cpu.request_interrupt(3)
        cpu.request_interrupt(2)
        return None

    cpu.data.add_write_hook(HOOK_ADDR, hook)


def test_interrupt_latched_mid_block_serviced_at_boundary_with_priority():
    states = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(_interrupt_program(), engine=engine,
                   setup=_arm_interrupt_hook)
        cpu.run(100)
        assert cpu.halted
        assert cpu.interrupts_serviced == 2
        # vector 2 before vector 3: the copy in vector 3's handler saw
        # the marker vector 2's handler loaded
        assert cpu.data.read_reg(20) == 1
        assert cpu.data.read_reg(21) == 1
        states[engine] = _state(cpu)
    # exact-latency: cold runs serviced at the very same points, so
    # cycles/PC/SP/registers agree bit for bit
    assert states["compiled"] == states["interpreter"]


def test_interrupt_latency_stays_bounded_inside_long_straight_line_runs():
    """Even a cap-length block delays service by at most FUSE_CAP retires."""
    filler = [I(M.INC, rd=16) for _ in range(FUSE_CAP * 2)]
    program = [
        I(M.JMP, k=8),
        I(M.NOP), I(M.NOP),
        I(M.LDI, rd=20, k=1),             # vector 2 handler
        I(M.RETI),
        I(M.NOP), I(M.NOP),
        I(M.BSET, b=7),                   # main (word 8)
        *filler,
        I(M.BREAK),
    ]
    cpu = _cpu(program)
    cpu.request_interrupt(2)
    # sei ends its own block, so the pending interrupt is serviced at the
    # first boundary after it — before a single filler instruction runs
    cpu.run(3)
    assert cpu.interrupts_serviced == 1
    assert cpu.data.read_reg(20) == 1


# -- generation fence -----------------------------------------------------


def test_spm_write_mid_run_invalidates_cached_blocks():
    """A store hook rewrites an already-decoded instruction word; the
    stale decode must never execute again (the paper's reflash safety
    rule)."""
    new_word = encode(I(M.LDI, rd=16, k=99))[0]
    program = [
        I(M.LDI, rd=26, k=HOOK_ADDR & 0xFF),   # word 0
        I(M.LDI, rd=27, k=HOOK_ADDR >> 8),     # word 1
        I(M.ST_X, rr=0),                       # word 2: hook may reflash
        I(M.INC, rd=16),                       # word 3: the rewrite target
        I(M.BREAK),                            # word 4
    ]
    states = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(program, engine=engine)
        armed = [False]

        def hook(address, value, cpu=cpu, armed=armed):
            if armed[0]:
                cpu.flash.write_word(3, new_word)
            return None

        cpu.data.add_write_hook(HOOK_ADDR, hook)
        # first pass, hook disarmed: caches the decode of `inc r16`
        cpu.run(100)
        assert cpu.halted and cpu.data.read_reg(16) == 1
        if engine == "compiled":
            assert cpu.engine._cache[3][1].mnemonic is M.INC
        # second pass: the store rewrites word 3 under the cached decode
        armed[0] = True
        cpu.reset()
        cpu.run(100)
        assert cpu.halted
        # a stale decode would have executed `inc` (r16 == 2); the fence
        # forces a re-decode and the new `ldi r16, 99` runs instead
        assert cpu.data.read_reg(16) == 99
        states[engine] = _state(cpu)
    assert states["compiled"] == states["interpreter"]


# -- misaligned entry (the ROP gadget property) ---------------------------


def test_misaligned_entry_starts_its_own_block():
    # `call 0` encodes as 0x940e 0x0000 and word 0x0000 is a `nop`:
    # entering at word 1 must fuse a fresh [nop, break] block, exactly
    # how the gadget finder's misaligned gadgets execute
    program = [I(M.CALL, k=0), I(M.BREAK)]
    states = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(program, engine=engine)
        cpu.run(3)  # aligned: three recursive `call 0`s
        assert cpu.instructions_retired == 3
        cpu.pc = 1  # jump into the second word of the call
        cpu.run(10)
        assert cpu.halted
        states[engine] = _state(cpu)
    assert states["compiled"] == states["interpreter"]

    cpu = _cpu(program, warm=1)
    cpu.run(3)
    records = cpu.engine._records
    assert records[0].block.count == 1   # [call] — control flow terminates
    cpu.pc = 1
    cpu.run(10)
    assert records[1].block.count == 2   # [nop, break] fused from word 1
    assert cpu.engine.blocks_built == 2


# -- one block, many heads ------------------------------------------------


@pytest.mark.parametrize("warm", (1, 8, NEVER), ids=("hot", "default", "cold"))
def test_block_profile_attributes_per_pc_when_bytes_run_at_two_heads(warm):
    """Two subroutines with the same bytes share one record and one fused
    block; block-mode profiling still charges each head's own PCs,
    exactly as per-instruction profiling does."""
    program = [
        I(M.LDI, rd=20, k=5),
        I(M.RCALL, k=4),                 # word 1 -> first copy (word 6)
        I(M.RCALL, k=6),                 # word 2 -> second copy (word 9)
        I(M.DEC, rd=20),
        I(M.BRBC, b=1, k=-4),            # brne word 1
        I(M.BREAK),                      # word 5
        I(M.INC, rd=16), I(M.INC, rd=17), I(M.RET),  # words 6-8
        I(M.INC, rd=16), I(M.INC, rd=17), I(M.RET),  # words 9-11
    ]
    samples = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(program, engine=engine, warm=warm)
        profiler = AvrProfiler(mode="block").attach(cpu, cpu.engine)
        cpu.run(200)
        assert cpu.halted
        samples[engine] = profiler._expanded_samples()
    # per-PC hits everywhere; cycles too on the copies, which take no
    # branch (block mode cannot see a taken branch's extra cycle)
    assert ({pc: hits for pc, (hits, _) in samples["compiled"].items()}
            == {pc: hits for pc, (hits, _) in samples["interpreter"].items()})
    copies = range(12, 24, 2)  # byte addresses of words 6-11
    assert ([samples["compiled"][pc] for pc in copies]
            == [samples["interpreter"][pc] for pc in copies])
    assert samples["compiled"][12][0] == samples["compiled"][18][0] == 5
    records = cpu.engine._records
    assert records[6] is records[9]  # one record and one block, two heads
    assert records[6].block is not None


# -- budget exactness -----------------------------------------------------


def test_run_budget_is_exact_even_mid_block():
    for budget in (1, 2, 6, 7, 13, 37):
        reference = _cpu(_hot_loop(6), engine="interpreter")
        subject = _cpu(_hot_loop(6))
        assert reference.run(budget) == budget
        assert subject.run(budget) == budget
        assert _state(subject) == _state(reference), budget


# -- trace hooks degrade to exact per-instruction retirement --------------


def test_trace_hooks_force_per_instruction_fallback():
    reference = _cpu(_interrupt_program(), engine="interpreter",
                     setup=_arm_interrupt_hook)
    subject = _cpu(_interrupt_program(), setup=_arm_interrupt_hook)
    ref_stream = CpuStateStream().attach(reference)
    sub_stream = CpuStateStream().attach(subject)
    reference.run(100)
    subject.run(100)
    assert subject.halted
    divergence = diff_state_streams(ref_stream, sub_stream)
    assert divergence is None, divergence
    # the cold tier never ran while a hook was attached
    assert subject.engine.blocks_entered == 0


def test_fusion_resumes_after_hooks_detach():
    cpu = _cpu(_hot_loop(6), warm=1)
    stream = CpuStateStream().attach(cpu)
    cpu.run(14)
    assert cpu.engine.blocks_built == 0
    cpu.trace_hooks.remove(stream._on_retire)
    cpu.run(14)
    assert cpu.engine.blocks_built > 0


# -- crash parity ---------------------------------------------------------


def test_out_of_image_and_undecodable_crash_parity():
    # head decode error, out-of-image mid-run, undecodable word mid-run
    nops = encode_stream([I(M.NOP), I(M.NOP)])
    for raw in (b"\xff\xff", encode_stream([I(M.NOP)]), nops + b"\xff\xff"):
        errors = []
        for engine, warm in (("interpreter", None), ("compiled", NEVER),
                             ("compiled", 1)):
            cpu = AvrCpu(engine=engine)
            cpu.load_program(raw)
            cpu.reset()
            if warm is not None:
                cpu.engine.WARM_THRESHOLD = warm
            with pytest.raises(IllegalExecutionError) as excinfo:
                cpu.run(10)
            errors.append((str(excinfo.value), cpu.pc, cpu.cycles,
                           cpu.instructions_retired))
        assert errors[0] == errors[1] == errors[2]


def test_mid_block_body_fault_reconstructs_exact_state():
    # `lds` reads out of the data space mid-body; fault address, cycle
    # count and retire count must match per-instruction execution
    program = [
        I(M.LDI, rd=16, k=5),          # word 0
        I(M.LDS, rd=17, k=0xBEEF),     # words 1-2: out-of-range read
        I(M.INC, rd=16),
        I(M.BREAK),
    ]
    faults = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(program, engine=engine)
        with pytest.raises(CpuFault) as excinfo:
            cpu.run(10)
        fault = excinfo.value
        faults[engine] = (str(fault), fault.pc, fault.cycles,
                          cpu.pc, cpu.cycles, cpu.instructions_retired)
    assert faults["compiled"] == faults["interpreter"]
    assert faults["compiled"][1] == 2  # byte address of the faulting lds


def test_block_cache_metrics_reach_the_telemetry_snapshot(testapp):
    """avr.blocks.* gauges + the fusion-length histogram are sampled
    pull-style at snapshot time when the protected board runs."""
    from repro.core import MavrSystem
    from repro.telemetry import Telemetry

    tel = Telemetry(enabled=True)
    system = MavrSystem(testapp, seed=7, telemetry=tel, engine="compiled")
    system.boot()
    system.run(5)
    engine = system.autopilot.cpu.engine
    assert engine.blocks_entered > 0

    registry = tel.registry
    registry.snapshot()  # collectors are pull-style: sample now
    built = registry.value("avr.blocks.built", component="cpu")
    entered = registry.value("avr.blocks.entered", component="cpu")
    assert built == engine.blocks_built > 0  # hot heads were fused
    assert entered == engine.blocks_entered > built  # cold-tier entries
    [histogram] = registry.find("avr.blocks.fusion_length", component="cpu")
    assert histogram.count == engine.blocks_built
    assert 1 <= histogram.min and histogram.max <= FUSE_CAP
    # a second snapshot must not re-observe builds already folded in
    registry.snapshot()
    assert histogram.count == engine.blocks_built


def test_terminator_fault_reconstructs_exact_state():
    # the block's *last* handler faults: st through X at an invalid address
    program = [
        I(M.LDI, rd=26, k=0xFF),
        I(M.LDI, rd=27, k=0xFF),
        I(M.ST_X, rr=0),
    ]
    faults = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(program, engine=engine)
        with pytest.raises(CpuFault) as excinfo:
            cpu.run(10)
        fault = excinfo.value
        faults[engine] = (str(fault), fault.pc, fault.cycles,
                          cpu.pc, cpu.cycles, cpu.instructions_retired)
    assert faults["compiled"] == faults["interpreter"]
