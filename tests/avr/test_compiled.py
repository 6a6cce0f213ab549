"""Unit coverage for the compiled engine's hot tier (:mod:`repro.avr.compiled`).

The contract under test: exec-generated block bodies are *observably
identical* to per-instruction retirement — identical flag algebra on
randomized ALU programs, interrupts serviced at the exact same points,
identical crashes with identical fault state, no stale code after a
flash write — while the tiering machinery itself (warm threshold, the
process-wide block store keyed by block bytes, the decode memo, liveness
elision, trace-hook degradation) behaves as documented.  The cold tier
and the fusion rules are covered in ``test_blocks.py``.
"""

import random

import pytest

from repro.avr import (
    AvrCpu,
    CompiledEngine,
    CpuStateStream,
    Instruction,
    Mnemonic,
    diff_state_streams,
    encode,
    encode_stream,
)
from repro.avr.blocks import FUSE_CAP, WRITE_CAPABLE
from repro.avr.compiled import (
    BLOCK_INDEX,
    BLOCK_STORE,
    DECODE_MEMO,
    SOURCE_TEMPLATES,
    SharedCache,
    compile_superblock,
)
from repro.avr.engine import ENGINES, HANDLERS
from repro.avr.memory import DATA_SPACE_SIZE
from repro.errors import AvrError, CpuFault, IllegalExecutionError

I = Instruction
M = Mnemonic

HOOK_ADDR = 0x0300  # an ordinary SRAM byte, hooked like a peripheral register
NEVER = 1 << 62  # a warm threshold no head ever reaches: all cold


@pytest.fixture(autouse=True)
def cold_shared_caches():
    """Compile counts below assume no body was compiled earlier in the
    process, so every test starts with empty process-wide caches."""
    BLOCK_STORE.clear()
    BLOCK_INDEX.clear()
    DECODE_MEMO.clear()


def _cpu(program, engine="compiled", setup=None, warm=None):
    cpu = AvrCpu(engine=engine)
    cpu.load_program(encode_stream(program))
    cpu.reset()
    if warm is not None and isinstance(cpu.engine, CompiledEngine):
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


# -- registry / template table -------------------------------------------


def test_compiled_engine_registered_and_selectable():
    assert ENGINES["compiled"] is CompiledEngine
    cpu = AvrCpu(engine="compiled")
    assert cpu.engine_name == "compiled"
    assert isinstance(cpu.engine, CompiledEngine)


def test_templates_cover_only_fusable_body_mnemonics():
    # every template shadows a real handler, and no store/out/push ever
    # gets a template — those must keep their hook-visible handler path
    assert set(SOURCE_TEMPLATES) <= set(HANDLERS)
    assert not (WRITE_CAPABLE & set(SOURCE_TEMPLATES))


# -- warm threshold ---------------------------------------------------------


def test_blocks_compile_only_after_warm_threshold_entries():
    cpu = _cpu(_hot_loop(6))
    engine = cpu.engine
    threshold = CompiledEngine.WARM_THRESHOLD
    cpu.run(7 * (threshold - 1))  # cold entries: the per-instruction tier
    assert engine.compiled_built == 0
    assert engine.compiled_entered == 0
    assert engine.blocks_entered == threshold - 1
    assert engine.blocks_built == 0  # cold heads are not even fused
    cpu.run(7)  # the threshold-th entry fuses, compiles and runs the body
    assert engine.blocks_built == 1
    assert engine.compiled_built == 1
    assert engine.compiled_entered == 1
    cpu.run(70)  # reused, never rebuilt
    assert engine.compiled_built == 1
    assert engine.compiled_entered == 11


def test_threshold_never_reached_runs_cold_tier_bit_exact():
    reference = _cpu(_hot_loop(6), engine="interpreter")
    subject = _cpu(_hot_loop(6), warm=NEVER)
    assert reference.run(70) == subject.run(70) == 70
    assert _state(subject) == _state(reference)
    assert subject.engine.compiled_built == 0
    assert subject.engine.compiled_entered == 0
    assert subject.engine.blocks_entered == 10
    assert subject.engine.blocks_built == 0


# -- generated source shape -----------------------------------------------


def test_generated_source_folds_terminator_and_elides_dead_flags():
    program = [
        I(M.ADD, rd=16, rr=17),  # every flag overwritten before any read
        I(M.ADD, rd=16, rr=17),  # H/C survive (inc only writes Z/N/V/S)
        I(M.INC, rd=20),
        I(M.RJMP, k=-4),
    ]
    cpu = _cpu(program, warm=1)
    cpu.run(8)
    [block] = [record.block for record in cpu.engine._records.values()]
    _fn, source = compile_superblock(block)
    # inline terminator: jump target (relative to the entry pc) and
    # retire count folded to constants, no handler call left in the body
    assert "cpu.pc = pc\n" in source
    assert "cpu.instructions_retired += 4" in source
    assert "_ht" not in source
    # liveness elision: only the second add's H/C and the inc's Z survive
    assert source.count("fh =") == 1
    assert source.count("fc =") == 1
    assert source.count("fz =") == 1


# -- randomized flag-algebra parity ---------------------------------------


def _random_alu_program(rng, length=48):
    program = []
    for _ in range(length):
        pick = rng.randrange(9)
        if pick == 0:
            program.append(I(M.LDI, rd=rng.randrange(16, 32), k=rng.randrange(256)))
        elif pick == 1:
            mnemonic = rng.choice([M.MOV, M.ADD, M.ADC, M.SUB, M.SBC, M.AND,
                                   M.OR, M.EOR, M.CP, M.CPC, M.MUL])
            program.append(I(mnemonic, rd=rng.randrange(32), rr=rng.randrange(32)))
        elif pick == 2:
            mnemonic = rng.choice([M.SUBI, M.SBCI, M.ANDI, M.ORI, M.CPI])
            program.append(I(mnemonic, rd=rng.randrange(16, 32), k=rng.randrange(256)))
        elif pick == 3:
            mnemonic = rng.choice([M.INC, M.DEC, M.COM, M.NEG, M.LSR, M.ASR,
                                   M.ROR, M.SWAP])
            program.append(I(mnemonic, rd=rng.randrange(32)))
        elif pick == 4:
            mnemonic = rng.choice([M.ADIW, M.SBIW])
            program.append(I(mnemonic, rd=rng.choice([24, 26, 28, 30]),
                             k=rng.randrange(64)))
        elif pick == 5:
            mnemonic = rng.choice([M.BST, M.BLD])
            program.append(I(mnemonic, rd=rng.randrange(32), b=rng.randrange(8)))
        elif pick == 6:
            program.append(I(rng.choice([M.BSET, M.BCLR]), b=rng.randrange(8)))
        elif pick == 7:
            program.append(I(M.MOVW, rd=rng.randrange(0, 32, 2),
                             rr=rng.randrange(0, 32, 2)))
        else:
            program.append(I(M.NOP))
    program.append(I(M.BREAK))
    return program


@pytest.mark.parametrize("seed", range(8))
def test_randomized_alu_programs_retire_bit_exact(seed):
    """The inlined flag formulas agree with the handlers on random mixes —
    including blocks cut at the fuse cap (handler-call pseudo-terminator)."""
    program = _random_alu_program(random.Random(seed))
    reference = _cpu(program, engine="interpreter")
    subject = _cpu(program, warm=1)
    reference.run(1_000)
    subject.run(1_000)
    assert reference.halted and subject.halted
    assert subject.engine.compiled_built > 0
    assert _state(subject) == _state(reference)


# -- interrupt latency ----------------------------------------------------


def _interrupt_program():
    """A store whose write hook latches vectors 3 then 2 mid-execution."""
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


def test_interrupt_latched_mid_compiled_block_serviced_with_priority():
    states = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(_interrupt_program(), engine=engine,
                   setup=_arm_interrupt_hook, warm=1)
        cpu.run(100)
        assert cpu.halted
        assert cpu.interrupts_serviced == 2
        # vector 2 (higher priority) serviced before vector 3: the copy in
        # vector 3's handler saw the marker vector 2's handler loaded
        assert cpu.data.read_reg(20) == 1
        assert cpu.data.read_reg(21) == 1
        states[engine] = _state(cpu)
    # exact-latency: compiled execution serviced at the very same points
    assert states["compiled"] == states["interpreter"]


def test_sei_terminates_compiled_block_so_latency_stays_exact():
    """sei is folded inline but still ends its block: a pending interrupt
    is serviced at the first boundary after it, before any filler runs."""
    program = [
        I(M.JMP, k=8),
        I(M.NOP), I(M.NOP),
        I(M.LDI, rd=20, k=1),             # vector 2 handler
        I(M.RETI),
        I(M.NOP), I(M.NOP),
        I(M.BSET, b=7),                   # main (word 8): sei
        *[I(M.INC, rd=16) for _ in range(32)],
        I(M.BREAK),
    ]
    cpu = _cpu(program, warm=1)
    cpu.request_interrupt(2)
    cpu.run(3)
    assert cpu.interrupts_serviced == 1
    assert cpu.data.read_reg(20) == 1


def test_interrupt_requested_by_a_mid_block_store_is_serviced_right_after_it():
    """`sts` no longer ends a hot block, but a store that reaches a hook
    leaves the body right after it, so the interrupts its hook requests
    are serviced exactly where the interpreter services them."""
    program = _interrupt_program()
    main = program.index(I(M.BSET, b=7))
    program[main + 1:main + 4] = [I(M.INC, rd=17), I(M.STS, k=HOOK_ADDR, rr=0)]
    states = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(program, engine=engine, setup=_arm_interrupt_hook, warm=1)
        cpu.run(100)
        assert cpu.halted
        assert cpu.interrupts_serviced == 2
        assert cpu.data.read_reg(21) == 1
        states[engine] = _state(cpu)
    assert states["compiled"] == states["interpreter"]


def test_failed_guard_leaves_the_body_after_that_instruction():
    """With a hook on its address, a mid-block store runs the hook at the
    interpreter's counters and the body returns right after it; without
    one, the same body runs through the store."""
    program = [
        I(M.LDI, rd=20, k=4),
        I(M.INC, rd=16),                  # loop head (word 1)
        I(M.STS, k=HOOK_ADDR, rr=16),     # words 2-3
        I(M.INC, rd=17),                  # word 4
        I(M.DEC, rd=20),
        I(M.BRBC, b=1, k=-6),             # brne to the loop head
        I(M.BREAK),
    ]
    runs = {}
    for hooked in (False, True):
        logs = []
        for engine in ("interpreter", "compiled"):
            log = []

            def setup(cpu, log=log):
                if hooked:
                    cpu.data.add_write_hook(HOOK_ADDR, lambda a, v, cpu=cpu: log.append(
                        (v, cpu.cycles, cpu.pc, cpu.instructions_retired)))

            cpu = _cpu(program, engine=engine, setup=setup, warm=1)
            cpu.run(100)
            assert cpu.halted
            logs.append((_state(cpu), cpu.data.read_block(HOOK_ADDR, 1), log))
        assert logs[0] == logs[1]
        runs[hooked] = cpu.engine
    assert len(logs[1][2]) == 4
    assert 4 not in runs[False]._hot  # the store fused through
    assert 4 in runs[True]._hot       # the body left after the store
    assert runs[True].compiled_entered > runs[False].compiled_entered


@pytest.mark.parametrize("sp, access", [
    (0x2200, I(M.PUSH, rr=17)),           # the pushed byte is out of range
    (0x21FF, I(M.POP, rd=18)),            # the popped byte is out of range
    (0x21FE, I(M.RET)),                   # the frame's second byte is
    (0x2201, I(M.RCALL, k=0)),            # the frame's first byte is
])
def test_failed_stack_guard_faults_like_the_interpreter(sp, access):
    """A stack access outside the data space fails its guard; the handler
    method it falls back to faults with the interpreter's pc, cycles,
    retire count and partial effects."""
    program = [
        I(M.LDI, rd=16, k=sp & 0xFF), I(M.OUT, a=0x3D, rr=16),
        I(M.LDI, rd=16, k=sp >> 8), I(M.OUT, a=0x3E, rr=16),
        I(M.INC, rd=17), access, I(M.INC, rd=19), I(M.BREAK),
    ]
    faults = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(program, engine=engine, warm=1)
        with pytest.raises(CpuFault) as excinfo:
            cpu.run(10)
        fault = excinfo.value
        faults[engine] = (str(fault), fault.pc, fault.cycles, _state(cpu))
    assert cpu.engine.compiled_built == 1  # the fault came from a body
    assert faults["compiled"] == faults["interpreter"]


# -- generation fence and cache eviction ----------------------------------


def test_spm_write_mid_run_invalidates_compiled_blocks():
    """A store hook rewrites an already-compiled instruction word; the
    stale callable must never execute again (the reflash safety rule)."""
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
        cpu = _cpu(program, engine=engine, warm=1)
        armed = [False]

        def hook(address, value, cpu=cpu, armed=armed):
            if armed[0]:
                cpu.flash.write_word(3, new_word)
            return None

        cpu.data.add_write_hook(HOOK_ADDR, hook)
        # first pass, hook disarmed: compiles the block holding `inc r16`
        cpu.run(100)
        assert cpu.halted and cpu.data.read_reg(16) == 1
        if engine == "compiled":
            assert 3 in cpu.engine._hot  # the block holding `inc` is hot
        # second pass: the store rewrites word 3 under the compiled block
        armed[0] = True
        cpu.reset()
        cpu.run(100)
        assert cpu.halted
        # stale code would have executed `inc` (r16 == 2); the fence
        # forces a recompile and the new `ldi r16, 99` runs instead
        assert cpu.data.read_reg(16) == 99
        states[engine] = _state(cpu)
    assert states["compiled"] == states["interpreter"]


def test_repeated_reflash_does_not_grow_the_compiled_cache():
    """Every generation change drops the per-generation state, and the
    shared block store serves the rebound block: N reflash cycles of the
    same bytes fuse and compile once and never accumulate records,
    bodies or decodes."""
    cpu = _cpu(_hot_loop(6), warm=1)
    engine = cpu.engine
    for generation in range(8):
        cpu.run(70)
        assert len(engine._hot) == 1  # one live block, nothing stale
        # reflash word 0 in place (same instruction, new generation)
        cpu.flash.write_word(0, encode(I(M.INC, rd=16))[0])
        cpu.reset()
    assert engine.blocks_built == 1  # fused once, by its bytes...
    assert engine.compiled_built == 1  # ...and compiled once
    assert len(engine.compile_times_ms) == 1
    assert len(BLOCK_STORE) == 1
    assert len(DECODE_MEMO) == 5  # four distinct `inc`s and the `rjmp`


# -- process-wide sharing ---------------------------------------------------


def _at_base(program, base, engine="compiled", warm=None):
    """``program`` loaded at word address ``base`` and entered there."""
    cpu = AvrCpu(engine=engine)
    cpu.load_program(encode_stream(program), offset=base * 2)
    cpu.reset()
    cpu.pc = base
    if warm is not None:
        cpu.engine.WARM_THRESHOLD = warm
    return cpu


def test_one_body_serves_the_same_bytes_at_any_address_on_any_core():
    """Bodies are position-independent: the same block bytes moved to a
    new address (what every MAVR re-randomization does) and run on a
    second core reuse the first core's body, with PCs still exact."""
    program = [
        I(M.LDI, rd=16, k=3),
        I(M.INC, rd=17),                # loop head
        I(M.DEC, rd=16),
        I(M.BRBC, b=1, k=-3),           # brne back to the loop head
        I(M.RCALL, k=1),
        I(M.BREAK),
        I(M.RET),
    ]
    states = []
    for base in (0x40, 0x1234):
        reference = _at_base(program, base, engine="interpreter")
        subject = _at_base(program, base, warm=1)
        reference.run(100)
        subject.run(100)
        assert subject.halted
        assert _state(subject) == _state(reference), hex(base)
        states.append(subject.engine)
    first, second = states
    assert first.compiled_built > 0
    assert second.compiled_built == 0  # every body came from the cache
    assert second.compiled_entered == first.compiled_entered


def test_different_bytes_never_share_a_body():
    """A ``call``/``jmp`` target is the body's argument, not part of its
    key: the same body bytes with another target share one body, and each
    core still lands on its own target.  Different body bytes never
    share."""
    def program(reg, branch, target):
        return [I(M.INC, rd=reg), I(branch, k=target),  # words 0-2
                I(M.INC, rd=17), I(M.BREAK),            # words 3-4
                I(M.INC, rd=18), I(M.BREAK)]            # words 5-6

    for branch in (M.JMP, M.CALL):
        BLOCK_STORE.clear()
        built = []
        for reg, target in ((16, 3), (16, 5), (19, 3)):
            reference = _at_base(program(reg, branch, target), 0,
                                 engine="interpreter")
            subject = _at_base(program(reg, branch, target), 0, warm=1)
            reference.run(10)
            subject.run(10)
            assert subject.halted
            assert _state(subject) == _state(reference), (branch, reg, target)
            built.append(subject.engine.compiled_built)
        # [inc r16, branch] compiles once for both targets, each landing
        # block once; [inc r19, branch] is other bytes and compiles anew
        assert built == [2, 1, 1], branch
        assert len(BLOCK_STORE) == 4


def test_block_warm_before_a_move_binds_on_its_first_entry_after_it():
    """Warm-up belongs to a block's bytes for the whole process: after a
    reflash moves a hot loop, its first entry at the new address runs the
    body, with no cold run, no fusion and no compile."""
    program = _hot_loop(6)
    cores = [_at_base(program, 0x40, engine=engine)
             for engine in ("interpreter", "compiled")]
    for cpu in cores:
        cpu.run(7 * (CompiledEngine.WARM_THRESHOLD + 2))
    engine = cores[1].engine
    assert engine.compiled_entered > 0
    counters = (engine.blocks_entered, engine.blocks_built, engine.compiled_built)
    entered = engine.compiled_entered
    for cpu in cores:
        cpu.load_program(encode_stream(program), offset=0x1234 * 2)  # the move
        cpu.reset()
        cpu.pc = 0x1234
        cpu.run(7)
    assert (engine.blocks_entered, engine.blocks_built,
            engine.compiled_built) == counters
    assert engine.compiled_entered == entered + 1
    assert _state(cores[1]) == _state(cores[0])


def test_never_threshold_engine_never_binds_to_known_bytes():
    """A threshold is the engine's own: bytes another core made warm (and
    compiled) still run on the cold tier of an engine whose threshold is
    never reached."""
    program = _hot_loop(6)
    warm = _at_base(program, 0x40, warm=1)
    warm.run(70)
    assert warm.engine.compiled_built == 1
    cold = _at_base(program, 0x40, warm=NEVER)
    reference = _at_base(program, 0x40, engine="interpreter")
    assert cold.run(70) == reference.run(70) == 70
    assert cold.engine.compiled_entered == 0
    assert cold.engine.blocks_entered == 10
    assert cold.engine.blocks_built == 0
    assert _state(cold) == _state(reference)


@pytest.mark.parametrize("program", [
    [I(M.LDI, rd=16, k=5), I(M.LDS, rd=17, k=0xBEEF),  # in-line callout
     I(M.INC, rd=16), I(M.BREAK)],
    [I(M.LDI, rd=16, k=0x00), I(M.OUT, a=0x3D, rr=16),  # SP = 0x2200, so the
     I(M.LDI, rd=16, k=0x22), I(M.OUT, a=0x3E, rr=16),  # push's guard fails
     I(M.INC, rd=17), I(M.PUSH, rr=17), I(M.INC, rd=19), I(M.BREAK)],
], ids=("callout", "guard-exit"))
def test_fault_in_a_body_bound_elsewhere_reconstructs_exact_state(program):
    """A body fused and compiled at one address faults at another with the
    interpreter's pc, cycles and retired count there."""
    first = _at_base(program, 0x40, warm=1)
    with pytest.raises(CpuFault):
        first.run(20)
    assert first.engine.compiled_built > 0
    faults = {}
    for engine in ("interpreter", "compiled"):
        cpu = _at_base(program, 0x1234, engine=engine, warm=1
                       if engine == "compiled" else None)
        with pytest.raises(CpuFault) as excinfo:
            cpu.run(20)
        fault = excinfo.value
        faults[engine] = (str(fault), fault.pc, fault.cycles, _state(cpu))
    assert 0x1234 in cpu.engine._hot  # the first core's body faulted...
    assert cpu.engine.compiled_built == 0  # ...bound, not compiled, here
    assert faults["compiled"] == faults["interpreter"]
    assert faults["compiled"][1] >= 0x1234 * 2


def test_block_store_stays_within_its_limit(monkeypatch):
    """Records beyond the store's limit evict the least recently used, so
    reflashing ever new bytes never grows the store past it."""
    monkeypatch.setattr(BLOCK_STORE, "limit", 3)
    cpu = _cpu([I(M.BREAK)], warm=1)
    for reg in range(16, 26):
        cpu.load_program(encode_stream([I(M.INC, rd=reg), I(M.BREAK)]))
        cpu.reset()
        cpu.run(10)
        assert cpu.data.read_reg(reg) == 1
        assert len(BLOCK_STORE) <= 3
    assert cpu.engine.compiled_built == 10


def test_decode_memo_turns_redecoding_moved_code_into_lookups():
    program = [I(M.INC, rd=16), I(M.LDS, rd=17, k=0x200), I(M.RJMP, k=-4)]
    cpu = _cpu(program, warm=NEVER)
    cpu.run(6)
    decoded = len(DECODE_MEMO)
    misses = cpu.engine.decode_misses
    # MAVR-style move: the same code one word further up
    cpu.load_program(encode_stream([I(M.NOP)] + program))
    cpu.reset()
    cpu.run(7)
    assert cpu.engine.decode_misses > misses  # new generation, cache refilled
    assert len(DECODE_MEMO) == decoded + 1  # ...but only the nop was decoded


# -- finding records by a byte probe -----------------------------------------


def _run_then_move(raw, code_limit=None, extra=()):
    """Run the program bytes ``raw`` from word 0 until it halts or fails,
    then load them one word up (MAVR-style), in a new flash generation,
    with the image limit moved up with them.  ``extra`` is ``(word,
    program)`` code outside the move.  Returns the core and the records
    its first generation found, by head."""
    cpu = AvrCpu(engine="compiled")
    cpu.flash.load(raw)
    for word, program in extra:
        cpu.flash.load(encode_stream(program), word * 2)
    cpu.code_limit = code_limit
    cpu.reset()
    try:
        cpu.run(200)
    except AvrError:
        pass
    records = dict(cpu.engine._records)
    cpu.flash.load(encode_stream([I(M.NOP)]) + raw)
    if code_limit is not None:
        cpu.code_limit = code_limit + 2
    return cpu, records


def _probe(cpu, head):
    """The record ``_record`` finds at ``head`` in the current generation
    and image limit, and how many extent walks it took."""
    engine = cpu.engine
    engine._sync_cache()
    engine._sync_limit()
    walks = []
    walk = engine._walk
    engine._walk = lambda pc: walks.append(pc) or walk(pc)
    try:
        record = engine._record(head)
    finally:
        del engine._walk
    return record, len(walks)


_CALL_JMP_FAR = 0x10006  # a target whose high bits lie in the first word


@pytest.mark.parametrize("program,extra,indexed", [
    # rcall; break; ret — one-word terminators
    ([I(M.RCALL, k=1), I(M.BREAK), I(M.RET)], (), 3),
    # call-only and jmp-only heads, each to a near and a far target: every
    # target shares the (empty prefix, mnemonic) key and its index slot;
    # then `inc` before a `call` and before a `jmp`: one slot, two keys
    ([I(M.CALL, k=12), I(M.CALL, k=_CALL_JMP_FAR),        # words 0-3
      I(M.INC, rd=16), I(M.CALL, k=12),                   # words 4-6
      I(M.INC, rd=16), I(M.JMP, k=10),                    # words 7-9
      I(M.JMP, k=13), I(M.RET),                           # words 10-12
      I(M.JMP, k=_CALL_JMP_FAR + 2)],                     # words 13-14
     ((_CALL_JMP_FAR, [I(M.RET), I(M.NOP), I(M.BREAK)]),), 6),
    # a block that ends at FUSE_CAP, then one that ends at its break
    ([I(M.INC, rd=16)] * (FUSE_CAP + 3) + [I(M.BREAK)], (), 2),
], ids=("ret", "call-jmp", "fuse-cap"))
def test_moved_natural_blocks_find_their_records_without_a_walk(
        program, extra, indexed):
    """After the move, every head's record comes from a byte probe — no
    extent walk, no decode — and is the record the first generation used
    and a fresh walk finds."""
    cpu, records = _run_then_move(encode_stream(program), extra=extra)
    assert cpu.halted
    moved = [head for head in records if head < len(encode_stream(program)) // 2]
    assert len(moved) >= 2
    assert len(BLOCK_INDEX) == indexed
    for head in moved:
        misses = cpu.engine.decode_misses
        record, walks = _probe(cpu, head + 1)
        assert walks == 0, head
        assert cpu.engine.decode_misses == misses
        assert record is records[head]
        assert BLOCK_STORE.get(cpu.engine._walk(head + 1)) is record
    assert len(BLOCK_INDEX) == indexed


@pytest.mark.parametrize("raw,code_limit", [
    # the image limit cuts the block after two `inc`s
    (encode_stream([I(M.INC, rd=16), I(M.INC, rd=17), I(M.INC, rd=18),
                    I(M.BREAK)]), 4),
    # an undecodable third word stops the block after two `inc`s
    (encode_stream([I(M.INC, rd=16), I(M.INC, rd=17)]) + b"\xff\xff", None),
], ids=("code-limit", "undecodable"))
def test_cut_blocks_are_never_indexed(raw, code_limit):
    """A block cut by the image limit or by an undecodable later word
    depends on where it lies: it walks on every generation, and its key
    never enters the index."""
    cpu, records = _run_then_move(raw, code_limit=code_limit)
    assert list(records) == [0]
    assert len(BLOCK_INDEX) == 0
    record, walks = _probe(cpu, 1)
    assert walks == 1
    assert record is records[0]
    assert len(BLOCK_INDEX) == 0


@pytest.mark.parametrize("insn", [I(M.CALL, k=2), I(M.LDS, rd=17, k=0x200)],
                         ids=("call", "lds"))
def test_two_word_opcode_in_the_last_flash_word_fails_with_the_index_warm(insn):
    """The index holds a block whose first word is the one in the last
    flash word, but it does not fit there: the head walks and fails like
    the interpreter."""
    warm = _cpu([insn, I(M.BREAK)])
    warm.run(10)
    assert warm.halted
    flash = warm.flash
    assert BLOCK_INDEX.find(flash._bytes, 0, flash.size) is not None
    errors = []
    for engine in ("interpreter", "compiled"):
        cpu = AvrCpu(engine=engine)
        last = cpu.flash.size // 2 - 1
        cpu.flash.load(encode_stream([insn])[:2], last * 2)
        cpu.reset()
        cpu.pc = last
        with pytest.raises(IllegalExecutionError) as excinfo:
            cpu.run(10)
        errors.append((str(excinfo.value), _state(cpu)))
    assert errors[0] == errors[1]
    assert BLOCK_INDEX.find(cpu.flash._bytes, last * 2, cpu.flash.size) is None


def test_block_index_stays_within_its_limit(monkeypatch):
    """An index that fills up starts over, so reflashing ever new bytes
    never grows it past its limit; every key it keeps still hits."""
    monkeypatch.setattr(BLOCK_INDEX, "limit", 3)
    cpu = _cpu([I(M.BREAK)])
    for reg in range(16, 26):
        cpu.load_program(encode_stream([I(M.INC, rd=reg), I(M.BREAK)]))
        cpu.reset()
        cpu.run(10)
        assert cpu.data.read_reg(reg) == 1
        assert 1 <= len(BLOCK_INDEX) <= 3
    record, walks = _probe(cpu, 0)
    assert walks == 0
    assert record is cpu.engine._records[0]


def test_shared_cache_is_a_bounded_lru():
    cache = SharedCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"
    cache.put("c", 3)  # evicts the least recently used: "b"
    assert cache.get("b") is None
    assert (cache.get("a"), cache.get("c"), len(cache)) == (1, 3, 2)
    cache.clear()
    assert len(cache) == 0


# -- misaligned entry (the ROP gadget property) ---------------------------


def test_misaligned_entry_compiles_its_own_block():
    raw = encode_stream([I(M.CALL, k=0), I(M.BREAK)])
    states = {}
    for engine in ("interpreter", "compiled"):
        cpu = AvrCpu(engine=engine)
        cpu.load_program(raw)
        cpu.reset()
        if engine == "compiled":
            cpu.engine.WARM_THRESHOLD = 1
        cpu.run(3)  # aligned: three recursive `call 0`s
        assert cpu.instructions_retired == 3
        cpu.pc = 1  # jump into the second word of the call
        cpu.run(10)
        assert cpu.halted
        states[engine] = _state(cpu)
    assert states["compiled"] == states["interpreter"]

    cpu = _cpu([I(M.CALL, k=0), I(M.BREAK)], warm=1)
    cpu.run(3)
    cpu.pc = 1
    cpu.run(10)
    hot = cpu.engine._hot
    assert hot[0][1] == 1                # [call] — control flow terminates
    assert hot[1][1] == 2                # [nop, break] compiled from word 1
    assert len(BLOCK_STORE) == 2         # two distinct bodies, no sharing


# -- image limit ------------------------------------------------------------


def test_shrunk_image_limit_refuses_hot_blocks_that_cross_it():
    """A hot block fused under one image limit must not run past a smaller
    one: the crash lands where per-instruction execution puts it."""
    faults = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(_hot_loop(6), engine=engine, warm=1)
        cpu.run(70)  # the whole 7-instruction loop is one hot block
        cpu.code_limit = 6  # now only the first three words are inside
        with pytest.raises(IllegalExecutionError) as excinfo:
            cpu.run(70)
        faults[engine] = (str(excinfo.value), _state(cpu))
    assert faults["compiled"] == faults["interpreter"]


# -- budget exactness -----------------------------------------------------


def test_run_budget_is_exact_even_mid_compiled_block():
    for budget in (1, 2, 6, 7, 13, 37):
        reference = _cpu(_hot_loop(6), engine="interpreter")
        subject = _cpu(_hot_loop(6), warm=1)
        assert reference.run(budget) == budget
        assert subject.run(budget) == budget
        assert _state(subject) == _state(reference), budget


# -- trace hooks degrade to exact per-instruction retirement --------------


def test_trace_hooks_force_per_instruction_fallback():
    reference = _cpu(_interrupt_program(), engine="interpreter",
                     setup=_arm_interrupt_hook)
    subject = _cpu(_interrupt_program(), engine="compiled",
                   setup=_arm_interrupt_hook, warm=1)
    ref_stream = CpuStateStream().attach(reference)
    sub_stream = CpuStateStream().attach(subject)
    reference.run(100)
    subject.run(100)
    assert subject.halted
    divergence = diff_state_streams(ref_stream, sub_stream)
    assert divergence is None, divergence
    # neither the compiled nor the cold tier ran under a hook
    assert subject.engine.compiled_entered == 0
    assert subject.engine.blocks_entered == 0


def test_compilation_resumes_after_hooks_detach():
    cpu = _cpu(_hot_loop(6), warm=1)
    stream = CpuStateStream().attach(cpu)
    cpu.run(14)
    assert cpu.engine.compiled_built == 0
    cpu.trace_hooks.remove(stream._on_retire)
    cpu.run(14)
    assert cpu.engine.compiled_built == 1
    assert cpu.engine.compiled_entered > 0


# -- crash parity ---------------------------------------------------------


def test_out_of_image_and_undecodable_crash_parity():
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


def test_mid_block_callout_fault_reconstructs_exact_state():
    # `lds` reads out of the data space mid-body; the compiled callable
    # raises through CompiledBodyFault and the engine must reconstruct the
    # per-instruction fault address, cycle count and retire count exactly
    program = [
        I(M.LDI, rd=16, k=5),          # word 0
        I(M.LDS, rd=17, k=0xBEEF),     # words 1-2: out-of-range read
        I(M.INC, rd=16),
        I(M.BREAK),
    ]
    faults = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(program, engine=engine, warm=1)
        with pytest.raises(CpuFault) as excinfo:
            cpu.run(10)
        fault = excinfo.value
        faults[engine] = (str(fault), fault.pc, fault.cycles,
                          cpu.pc, cpu.cycles, cpu.instructions_retired)
    assert faults["compiled"] == faults["interpreter"]
    assert faults["compiled"][1] == 2  # byte address of the faulting lds


def test_fault_in_second_of_two_identical_slots_reconstructs_that_slot():
    """The decode memo hands both `ld r4, Z+` slots the same Instruction
    object; the fault must still be pinned to the second slot's pc and
    cycles (by body index, not by object identity)."""
    last = DATA_SPACE_SIZE - 1
    program = [
        I(M.LDI, rd=30, k=last & 0xFF),  # Z = last data-space byte
        I(M.LDI, rd=31, k=last >> 8),
        I(M.LD_Z_INC, rd=4),             # word 2: reads the last byte
        I(M.LD_Z_INC, rd=4),             # word 3: Z is out of range
        I(M.BREAK),
    ]
    faults = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(program, engine=engine, warm=1)
        with pytest.raises(CpuFault) as excinfo:
            cpu.run(10)
        fault = excinfo.value
        faults[engine] = (str(fault), fault.pc, fault.cycles,
                          cpu.pc, cpu.cycles, cpu.instructions_retired)
    assert cpu.engine.compiled_built == 1  # the fault came from a body
    assert faults["compiled"] == faults["interpreter"]
    assert faults["compiled"][1] == 6  # byte address of the second ld


def test_terminator_fault_reconstructs_exact_state():
    # the block's terminator faults: st through X at an invalid address
    program = [
        I(M.LDI, rd=26, k=0xFF),
        I(M.LDI, rd=27, k=0xFF),
        I(M.ST_X, rr=0),
    ]
    faults = {}
    for engine in ("interpreter", "compiled"):
        cpu = _cpu(program, engine=engine, warm=1)
        with pytest.raises(CpuFault) as excinfo:
            cpu.run(10)
        fault = excinfo.value
        faults[engine] = (str(fault), fault.pc, fault.cycles,
                          cpu.pc, cpu.cycles, cpu.instructions_retired)
    assert faults["compiled"] == faults["interpreter"]


# -- telemetry ------------------------------------------------------------


def test_compiled_metrics_reach_the_telemetry_snapshot(testapp):
    """avr.compiled.* gauges + the compile-time histogram are sampled
    pull-style at snapshot time when the protected board runs compiled."""
    from repro.core import MavrSystem
    from repro.telemetry import Telemetry

    tel = Telemetry(enabled=True)
    system = MavrSystem(testapp, seed=7, telemetry=tel, engine="compiled")
    system.boot()
    system.run(5)
    engine = system.autopilot.cpu.engine
    assert engine.compiled_built > 0

    registry = tel.registry
    registry.snapshot()  # collectors are pull-style: sample now
    built = registry.value("avr.compiled.built", component="cpu")
    entered = registry.value("avr.compiled.entered", component="cpu")
    assert built == engine.compiled_built > 0
    assert entered == engine.compiled_entered > built  # callables are reused
    [histogram] = registry.find("avr.compiled.compile_ms", component="cpu")
    assert histogram.count == engine.compiled_built
    assert histogram.min > 0
    # a second snapshot must not re-observe builds already folded in
    registry.snapshot()
    assert histogram.count == engine.compiled_built
