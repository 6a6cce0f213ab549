"""Unit coverage for the execution engines.

The contract under test: the compiled engine's decode cache is
*observably identical* to the reference interpreter — same architectural
state per retired instruction, same crashes with the same messages —
while never executing a decode that is stale with respect to the current
flash contents.
"""

import pytest

from repro.avr import (
    AvrCpu,
    FlashMemory,
    Instruction,
    Mnemonic,
    encode,
    encode_stream,
    run_lockstep,
)
from repro.avr.engine import CYCLES_BY_MNEMONIC, ENGINES, HANDLERS
from repro.errors import CpuFault, IllegalExecutionError, LockstepDivergenceError

I = Instruction
M = Mnemonic


def _pair(program, max_instructions=10_000, setup=None):
    """Run ``program`` on both engines; return (interpreter, compiled)."""
    cpus = []
    for engine in ("interpreter", "compiled"):
        cpu = AvrCpu(engine=engine)
        cpu.load_program(encode_stream(program))
        cpu.reset()
        if setup:
            setup(cpu)
        cpus.append(cpu)
    return cpus


# -- dispatch table ------------------------------------------------------


def test_every_mnemonic_has_handler_and_cycle_cost():
    assert set(HANDLERS) == set(Mnemonic)
    assert set(CYCLES_BY_MNEMONIC) == set(Mnemonic)


def test_unknown_engine_name_rejected():
    with pytest.raises(ValueError, match="unknown execution engine"):
        AvrCpu(engine="jit")
    assert sorted(ENGINES) == ["compiled", "interpreter"]


# -- flash generation counter -------------------------------------------


def test_generation_bumps_on_every_write_path():
    flash = FlashMemory()
    start = flash.generation
    flash.load(b"\x00\x00")
    after_load = flash.generation
    assert after_load > start
    flash.write_page(0, b"\x12\x34")
    after_page = flash.generation
    assert after_page > after_load
    flash.write_word(0, 0x9508)
    after_word = flash.generation
    assert after_word > after_page
    flash.erase()
    assert flash.generation > after_word


def test_reads_do_not_bump_generation():
    flash = FlashMemory()
    flash.load(b"\x00\x00\x08\x95")
    generation = flash.generation
    flash.read_byte(0)
    flash.read_word(1)
    flash.dump(0, 4)
    assert flash.generation == generation


# -- lockstep equivalence ------------------------------------------------


def test_lockstep_mixed_program():
    """ALU + stack + control flow + loads/stores agree step for step."""
    program = [
        I(M.LDI, rd=16, k=200), I(M.LDI, rd=17, k=100),
        I(M.ADD, rd=16, rr=17),          # carry out
        I(M.ADC, rd=17, rr=16),
        I(M.PUSH, rr=16), I(M.PUSH, rr=17),
        I(M.RCALL, k=3),                 # over the next three words
        I(M.POP, rd=18), I(M.POP, rd=19),
        I(M.RJMP, k=2),
        I(M.SUBI, rd=16, k=1),           # subroutine body
        I(M.RET),
        I(M.LDI, rd=26, k=0x00), I(M.LDI, rd=27, k=0x03),  # X = 0x0300
        I(M.ST_X_INC, rr=16), I(M.ST_X, rr=17),
        I(M.LD_X_DEC, rd=20),
        I(M.CPI, rd=16, k=0),
        I(M.BRBS, b=1, k=1),             # breq over the inc
        I(M.INC, rd=21),
        I(M.BREAK),
    ]
    reference, subject = _pair(program)
    run_lockstep(reference, subject)
    assert reference.halted and subject.halted
    assert reference.instructions_retired == subject.instructions_retired


def test_lockstep_interrupts():
    def arm(cpu):
        cpu.sreg.i = True
        cpu.request_interrupt(2)

    program = [
        I(M.JMP, k=8),                   # vector 0: jump to main
        I(M.NOP), I(M.NOP),
        I(M.RETI),                       # vector 2 handler at word 4
        I(M.NOP), I(M.NOP), I(M.NOP),
        I(M.NOP),
        I(M.LDI, rd=16, k=5),            # main at word 8
        I(M.DEC, rd=16),
        I(M.BRBC, b=1, k=-2),
        I(M.BREAK),
    ]
    reference, subject = _pair(program, setup=arm)
    run_lockstep(reference, subject)
    assert reference.interrupts_serviced == subject.interrupts_serviced == 1


def test_lockstep_detects_seeded_divergence():
    """The harness itself must catch a real mismatch, not just pass."""
    program = [I(M.LDI, rd=16, k=1), I(M.BREAK)]
    reference, subject = _pair(program)
    subject.cycles += 7  # sabotage
    with pytest.raises(LockstepDivergenceError, match="cycles"):
        run_lockstep(reference, subject)


# -- crash parity --------------------------------------------------------


def test_crash_parity_undecodable_and_out_of_image():
    # 0xFFFF does not decode; walking past code_limit is a crash too.
    for raw in (b"\xff\xff", encode_stream([I(M.NOP)])):
        errors = []
        for engine in ("interpreter", "compiled"):
            cpu = AvrCpu(engine=engine)
            cpu.load_program(raw)
            cpu.reset()
            with pytest.raises(IllegalExecutionError) as excinfo:
                cpu.run(10)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]


def test_crash_parity_memory_fault():
    # lds from far outside the data space faults identically.
    program = [I(M.LDI, rd=30, k=0xFF), I(M.LDI, rd=31, k=0xFF),
               I(M.LD_Z_INC, rd=4), I(M.BREAK)]

    def hoist_sp(cpu):
        cpu.data.sp = 0x21F0

    messages = []
    for cpu in _pair(program, setup=hoist_sp):
        with pytest.raises(CpuFault) as excinfo:
            cpu.run(10)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


# -- misaligned execution (the gadget-finder property) -------------------


def test_misaligned_fetch_decodes_second_word_independently():
    # call 0x0000 encodes as 0x940E 0x0000; landing on the second word
    # must decode it as its own instruction (nop), same on both engines.
    raw = encode_stream([I(M.CALL, k=0), I(M.BREAK)])
    for engine in ("interpreter", "compiled"):
        cpu = AvrCpu(engine=engine)
        cpu.load_program(raw)
        cpu.reset()
        cpu.pc = 1  # inside the call
        insn = cpu.step()
        assert insn.mnemonic is M.NOP, engine


# -- cache invalidation --------------------------------------------------


def test_stale_decode_never_executes_after_reprogram():
    """Reprogramming the same addresses must execute the *new* words."""
    cpu = AvrCpu(engine="compiled")
    cpu.load_program(encode_stream([I(M.LDI, rd=16, k=1), I(M.BREAK)]))
    cpu.reset()
    cpu.run(10)
    assert cpu.data.read_reg(16) == 1

    # Same length, same addresses, different immediate: a stale cache
    # would happily run the old ldi again.
    cpu.load_program(encode_stream([I(M.LDI, rd=16, k=2), I(M.BREAK)]))
    cpu.reset()
    cpu.run(10)
    assert cpu.data.read_reg(16) == 2


def test_spm_style_self_write_invalidates():
    cpu = AvrCpu(engine="compiled")
    cpu.load_program(encode_stream([I(M.LDI, rd=16, k=1), I(M.BREAK)]))
    cpu.reset()
    cpu.run(10)
    # overwrite the ldi word in place with ldi r16, 9
    cpu.flash.write_word(0, encode(I(M.LDI, rd=16, k=9))[0])
    cpu.reset()
    cpu.run(10)
    assert cpu.data.read_reg(16) == 9


def test_cache_reused_across_runs_until_flash_changes():
    cpu = AvrCpu(engine="compiled")
    cpu.load_program(encode_stream([
        I(M.INC, rd=16), I(M.RJMP, k=-2),
    ]))
    cpu.reset()
    cpu.run(100)
    rebuilds_after_first_run = cpu.engine.rebuilds
    cpu.run(100)
    cpu.run(100)
    assert cpu.engine.rebuilds == rebuilds_after_first_run
    cpu.flash.write_word(0, encode(I(M.LDI, rd=16, k=5))[0])
    cpu.run(1)
    assert cpu.engine.rebuilds == rebuilds_after_first_run + 1


def test_step_also_sees_invalidation():
    """step() goes through the same cache, so it must invalidate too."""
    cpu = AvrCpu(engine="compiled")
    cpu.load_program(encode_stream([I(M.LDI, rd=16, k=1), I(M.BREAK)]))
    cpu.reset()
    assert cpu.step().k == 1
    cpu.flash.write_word(0, encode(I(M.LDI, rd=16, k=4))[0])
    cpu.reset()
    assert cpu.step().k == 4
    assert cpu.data.read_reg(16) == 4
