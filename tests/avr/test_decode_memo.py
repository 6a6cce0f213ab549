"""The compiled engine's decode miss path: flash edges and memo entries.

A decode miss reads the flash bytes directly and looks one int key up in
the process-wide decode memo.  These tests pin it to the interpreter's
``AvrCpu.fetch`` at the edges of flash, and every memo entry to the
decoder and both tiers' fusion rules.
"""

import pytest

from repro.avr import AvrCpu, CompiledEngine, Instruction, Mnemonic, encode_stream
from repro.avr import compiled
from repro.avr.blocks import READ_CAPABLE, SYNC, ends_hot_block, is_terminator
from repro.avr.compiled import DECODE_MEMO
from repro.avr.decoder import needs_second_word
from repro.avr.engine import CYCLES_BY_MNEMONIC, HANDLERS
from repro.avr.memory import FLASH_WORDS, FlashMemory
from repro.errors import AvrError, IllegalExecutionError

I = Instruction
M = Mnemonic

NEVER = 1 << 62
TIERS = {"hot": 1, "default": CompiledEngine.WARM_THRESHOLD, "cold": NEVER}

# A loop that gets hot at the default threshold, then falls through to the
# end of flash: into the word past it, or into a two-word opcode whose
# second word would lie past it.
_LOOP = [I(M.LDI, rd=17, k=10), I(M.INC, rd=16), I(M.DEC, rd=17),
         I(M.BRBC, b=1, k=-3), I(M.INC, rd=18)]
EDGES = {
    "past_last_word": encode_stream(_LOOP),
    "two_word_opcode_in_last_word": (
        encode_stream(_LOOP) + encode_stream([I(M.LDS, rd=19, k=0x0200)])[:2]
    ),
}


@pytest.fixture(autouse=True)
def cold_memo():
    DECODE_MEMO.clear()
    yield
    DECODE_MEMO.clear()


def _edge_run(code, engine, threshold, step):
    """Run ``code`` placed at the very end of flash, with no code limit,
    until it fails; return the failure and the counters."""
    cpu = AvrCpu(engine=engine)
    start = FLASH_WORDS - len(code) // 2
    cpu.flash.load(code, start * 2)
    cpu.reset()
    cpu.pc = start
    assert cpu.code_limit is None
    if threshold is not None:
        cpu.engine.WARM_THRESHOLD = threshold
    with pytest.raises(AvrError) as info:
        if step:
            for _ in range(100):
                cpu.step()
        else:
            cpu.run(100)
    return (type(info.value), str(info.value), cpu.pc, cpu.cycles,
            cpu.instructions_retired)


@pytest.mark.parametrize("step", (False, True), ids=("run", "step"))
@pytest.mark.parametrize("edge", sorted(EDGES))
def test_flash_edges_fail_like_the_interpreter(edge, step):
    expected = _edge_run(EDGES[edge], "interpreter", None, step)
    assert expected[0] is IllegalExecutionError
    assert expected[1] == "flash word read out of range: word 0x20000"
    assert expected[4] == 32  # ldi, 10 x (inc, dec, brne), inc
    for tier, threshold in TIERS.items():
        assert _edge_run(EDGES[edge], "compiled", threshold, step) == expected, tier


def test_memo_entries_match_decoder_and_fusion_rules():
    """Every first word (a few second words for two-word opcodes) through
    the engine's miss path: the entry's instruction is the interpreter's,
    its fields are the instruction's size, base cycles, cold-tier ``ends``
    and hot-tier flag, and an undecodable word fails as the interpreter
    fails."""
    flash = FlashMemory()
    reference = AvrCpu(flash=flash, engine="interpreter")
    engine = AvrCpu(flash=flash, engine="compiled").engine
    pc = 0x100
    for word in range(0x10000):
        flash.write_word(pc, word)
        for next_word in (0x0000, 0x0060, 0x8001, 0xFFFF)[
            : 4 if needs_second_word(word) else 1
        ]:
            flash.write_word(pc + 1, next_word)
            reference.pc = pc
            try:
                insn = reference.fetch()
            except AvrError as exc:
                with pytest.raises(type(exc)) as info:
                    engine._entry_at(pc)
                assert str(info.value) == str(exc)
                assert str(exc).startswith("undecodable opcode")
                continue
            handler, entry_insn, size, base, ends, hot = engine._entry_at(pc)
            mnemonic = insn.mnemonic
            assert entry_insn == insn, hex(word)
            assert handler is HANDLERS[mnemonic]
            assert size == insn.size_words
            assert base == CYCLES_BY_MNEMONIC[mnemonic]
            if is_terminator(insn):
                assert ends is True
            else:
                assert ends == (SYNC if mnemonic in READ_CAPABLE else False)
            assert hot == ends_hot_block(insn)


def test_memo_starts_over_when_full(monkeypatch):
    monkeypatch.setattr(compiled, "_DECODE_MEMO_LIMIT", 4)
    program = [I(M.INC, rd=r) for r in range(16, 26)] + [I(M.BREAK)]
    reference = AvrCpu(engine="interpreter")
    subject = AvrCpu(engine="compiled")
    for cpu in (reference, subject):
        cpu.load_program(encode_stream(program))
        cpu.reset()
        cpu.run(100)
        assert cpu.halted
    assert len(DECODE_MEMO) <= 4
    assert subject.data.read_block(0, 32) == reference.data.read_block(0, 32)
