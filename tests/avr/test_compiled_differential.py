"""Differential property test: shared compiled bodies vs the interpreter.

Generated programs mix ALU runs, forward branches, skips, counted loops,
``rcall``/``ret`` subroutines, pushes/pops, ``in``/``out``/``sbi``/``cbi``
(SREG and SPL included) and ``lds``/``sts``/``ld``/``st``/``ldd``/``std``
against write-hooked, read-hooked and plain SRAM addresses, registers,
SREG and SPL/SPH.  Indirect transfers load Z with an absolute word
address, resolved per copy: ``icall`` into a subroutine, subroutines
that tail-call a later one with ``ijmp``, and an ``ijmp`` onto the
operand word of a two-word ``lds``/``sts``, which then runs as an
instruction of its own.  They also drive SP to the edges of the guarded stack
range (around 0x5F/0x60 and RAMEND) before a push, pop, call or return,
and store to a peripheral whose write hook requests an interrupt, with
and without ``sei`` first, and store to a peripheral whose write hook
rewrites a flash word SPM-style, in the middle of a block: a word of the
running block (before or after the store), of a later block, or a word
written back with its own bytes, so the block holding it keeps bytes
the shared block store already knows.  Each program is loaded at two
base addresses on two cores — the swarm shape: the second core's blocks have the same
bytes at other addresses, so they run the first core's compiled bodies —
and the cores run alternately in small ``run(n)`` chunks, with hooks on
stack and SRAM bytes added or removed between chunks, and with flash
generation switches between chunks: the copy reloaded with its own bytes,
or one of its words rewritten through ``FlashMemory.write_word``, each
with a filled decode cache, fused blocks and hot bindings in place.
Loads and stores (``lds``/``sts``, pointer modes, ``in``/``out``/``sbi``/
``cbi``/skips) also reach a mirror, whose device byte the harness
changes between chunks, and a sink, whose list joins the compared
state, each in SRAM and in the I/O space; and between chunks the
harness may checkpoint the data space and write it back raw, whole (as
CToMP's restore does) or a window of it.
After every chunk each core must match an interpreter running the same
program at the same base, with no trace hooks attached: registers,
SREG, SP, PC, cycles, retired count, halt flag, interrupt state, the
whole data space, the hook log (with the counters each hook saw), the
sinks' bytes and any fault.  The compiled side runs at threshold 1
(every head hot at once), at the default threshold and with the
threshold never reached (all cold).  Each drawn program runs twice: with an empty block index
(heads walk their extents), then with the index warm from the first pass
(heads find their records by a byte probe).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avr import (
    AvrCpu,
    CompiledEngine,
    Instruction,
    Mnemonic,
    encode,
    encode_stream,
)
from repro.avr.compiled import BLOCK_INDEX, BLOCK_STORE
from repro.avr.iospace import IO_TO_DATA_OFFSET
from repro.avr.memory import DATA_SPACE_SIZE, RAMEND
from repro.errors import AvrError

I = Instruction
M = Mnemonic

NEVER = 1 << 62
THRESHOLDS = (1, CompiledEngine.WARM_THRESHOLD, NEVER)

WRITE_HOOKED = (0x0300, 0x0301)  # 0x0301's hook overrides the stored byte
READ_HOOKED = 0x0302  # reads return a running counter
IRQ_HOOKED = 0x0306  # writes request IRQ_VECTOR
SPM_HOOKED = 0x0308  # writes rewrite a flash word of the running copy
MIRRORED = 0x030A  # a mirror: the harness changes its device byte
SINK = 0x030C  # a sink: its list joins the compared state
ADDRESSES = (0x02FE, 0x0300, 0x0301, 0x0302, 0x0304, 0x0310, MIRRORED, SINK)
# sts/lds only: a register, SREG and SPL/SPH (never LOOP_REG)
CONSTANT_ONLY = (0x0005, 0x0010, 0x005F, 0x005D, 0x005E)
PLAIN_IO = 0x0A  # an unhooked I/O register
IO_MIRRORED = 0x0B  # a mirror and a sink among the I/O registers
IO_SINK = 0x0C
BIT_IO = (PLAIN_IO, IO_MIRRORED, IO_SINK)  # sbi/cbi/sbic/sbis targets
# plain, SREG, SPL (moves the stack), the mirror, the sink
IO_ADDRESSES = (PLAIN_IO, 0x3F, 0x3D, IO_MIRRORED, IO_SINK)
MIRRORS = (MIRRORED, IO_MIRRORED + IO_TO_DATA_OFFSET)
SINKS = (SINK, IO_SINK + IO_TO_DATA_OFFSET)
# Raw block writes of a checkpoint: the whole data space, as CToMP's
# restore writes it, the I/O space, and an SRAM window over the mirror
# and the sink.
WINDOWS = ((0, DATA_SPACE_SIZE), (0x0020, 0x0060), (0x0300, 0x0310))
LOOP_REG = 25  # the counted-loop register: nothing else writes it
WRITABLE = tuple(r for r in range(32) if r != LOOP_REG)
BASES = (0x0000, 0x0A31)  # word addresses of the two cores' copies
# The interrupt vector's handler is one `reti` at word IRQ_VECTOR * 2,
# above both copies; the image limit is raised to include it.
IRQ_VECTOR = 0x800
# SP values at the edges of the stack guard: the register file, SPL/SPH
# and SREG below 0x60, the end of the data space above RAMEND.
SP_EDGES = (0x0001, 0x005E, 0x005F, 0x0060, 0x0061, 0x0062,
            RAMEND - 2, RAMEND - 1, RAMEND)
# Hooks the harness adds or removes between chunks: write hooks observe,
# read hooks observe and return the stored byte.  They sit where pushes,
# calls, pops and returns from RAMEND land, on plain SRAM and on SPL.
TOGGLES = (("w", RAMEND), ("w", RAMEND - 1), ("w", RAMEND - 2),
           ("w", 0x0304), ("w", 0x005D), ("r", RAMEND), ("r", RAMEND - 1),
           ("r", RAMEND - 2), ("r", 0x0304))

_RR_OPS = (M.ADD, M.ADC, M.SUB, M.SBC, M.AND, M.OR, M.EOR, M.MOV, M.CP, M.CPC,
           M.MUL)
_IMM_OPS = (M.SUBI, M.SBCI, M.ANDI, M.ORI, M.CPI, M.LDI)
_ONE_OPS = (M.INC, M.DEC, M.COM, M.NEG, M.LSR, M.ASR, M.ROR, M.SWAP)
_POINTERS = {  # pointer register pair -> (load, store) mnemonics per mode
    26: ((M.LD_X, M.ST_X), (M.LD_X_INC, M.ST_X_INC), (M.LD_X_DEC, M.ST_X_DEC)),
    28: ((M.LD_Y_INC, M.ST_Y_INC), (M.LD_Y_DEC, M.ST_Y_DEC), (M.LDD_Y, M.STD_Y)),
    30: ((M.LD_Z_INC, M.ST_Z_INC), (M.LD_Z_DEC, M.ST_Z_DEC), (M.LDD_Z, M.STD_Z)),
}


@st.composite
def alu_op(draw):
    kind = draw(st.integers(0, 5))
    rd = draw(st.sampled_from(WRITABLE))
    if kind == 0:
        return I(draw(st.sampled_from(_RR_OPS)), rd=rd, rr=draw(st.integers(0, 31)))
    if kind == 1:
        return I(draw(st.sampled_from(_IMM_OPS)), rd=draw(st.integers(16, 24)),
                 k=draw(st.integers(0, 255)))
    if kind == 2:
        return I(draw(st.sampled_from(_ONE_OPS)), rd=rd)
    if kind == 3:
        return I(draw(st.sampled_from((M.ADIW, M.SBIW))),
                 rd=draw(st.sampled_from((26, 28, 30))), k=draw(st.integers(0, 63)))
    if kind == 4:
        return I(draw(st.sampled_from((M.BST, M.BLD))), rd=rd, b=draw(st.integers(0, 7)))
    # no `bset 7` (sei): nothing here requests interrupts
    return I(draw(st.sampled_from((M.BSET, M.BCLR))), b=draw(st.integers(0, 6)))


@st.composite
def memory_op(draw):
    """One load or store (with its pointer set-up) at a chosen address."""
    address = draw(st.sampled_from(ADDRESSES))
    store = draw(st.booleans())
    reg = draw(st.sampled_from(WRITABLE if not store else range(32)))
    if draw(st.booleans()):
        if draw(st.integers(0, 3)) == 0:
            address = draw(st.sampled_from(CONSTANT_ONLY))
        if store:
            return [I(M.STS, k=address, rr=reg)]
        return [I(M.LDS, rd=reg, k=address)]
    pointer = draw(st.sampled_from(sorted(_POINTERS)))
    load, store_m = draw(st.sampled_from(_POINTERS[pointer]))
    setup = [I(M.LDI, rd=pointer, k=address & 0xFF),
             I(M.LDI, rd=pointer + 1, k=address >> 8)]
    q = draw(st.integers(0, 3)) if load in (M.LDD_Y, M.LDD_Z) else None
    if store:
        return setup + [I(store_m, rr=reg, q=q)]
    reg = draw(st.sampled_from([r for r in WRITABLE if r not in (pointer, pointer + 1)]))
    return setup + [I(load, rd=reg, q=q)]


@st.composite
def io_op(draw):
    """I/O reads and writes, bit set/clear, and the skip instructions."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return I(M.IN, rd=draw(st.sampled_from(WRITABLE)),
                 a=draw(st.sampled_from(IO_ADDRESSES)))
    if kind == 1:
        # SPL rarely: moving the stack under a call is the stk_move gadget
        a = draw(st.sampled_from((PLAIN_IO, PLAIN_IO, 0x3F, 0x3D, IO_MIRRORED,
                                  IO_SINK)))
        return I(M.OUT, a=a, rr=draw(st.integers(0, 31)))
    if kind == 2:
        return I(draw(st.sampled_from((M.SBI, M.CBI))),
                 a=draw(st.sampled_from(BIT_IO)), b=draw(st.integers(0, 7)))
    if kind == 3:
        return I(draw(st.sampled_from((M.SBIC, M.SBIS))),
                 a=draw(st.sampled_from(BIT_IO)), b=draw(st.integers(0, 7)))
    if draw(st.booleans()):
        return I(M.CPSE, rd=draw(st.integers(0, 31)), rr=draw(st.integers(0, 31)))
    return I(draw(st.sampled_from((M.SBRC, M.SBRS))),
             rd=draw(st.integers(0, 31)), b=draw(st.integers(0, 7)))


@st.composite
def straight_item(draw):
    """An item without jumps or calls, usable anywhere (subroutines too).
    A skip may hop over the next instruction, two-word ones included."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(memory_op())
    if kind == 1:
        return [draw(io_op())] + draw(st.lists(alu_op(), max_size=2))
    return draw(st.lists(alu_op(), min_size=1, max_size=4))


@st.composite
def sp_edge_op(draw, subs):
    """SP moved to a guard edge, then a push, pop, call or return."""
    sp = draw(st.sampled_from(SP_EDGES))
    reg = draw(st.integers(16, 24))
    moves = [I(M.LDI, rd=reg, k=sp & 0xFF), I(M.OUT, a=0x3D, rr=reg),
             I(M.LDI, rd=reg, k=sp >> 8), I(M.OUT, a=0x3E, rr=reg)]
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return moves + [I(M.PUSH, rr=draw(st.integers(0, 31)))]
    if kind == 1:
        return moves + [I(M.POP, rd=draw(st.sampled_from(WRITABLE)))]
    if kind == 2 and subs:
        return moves + [("rcall", draw(st.integers(0, subs - 1)))]
    return moves + [I(M.RET)]


@st.composite
def irq_op(draw):
    """A store whose write hook requests an interrupt, ``sei`` first or
    not: service must follow that very store whenever I is set."""
    flag = I(M.BSET if draw(st.booleans()) else M.BCLR, b=7)  # sei / cli
    head = draw(st.lists(alu_op(), max_size=2))
    store = I(M.STS, k=IRQ_HOOKED, rr=draw(st.integers(0, 31)))
    return [flag] + head + [store] + draw(st.lists(alu_op(), max_size=2))


@st.composite
def spm_op(draw):
    """A store whose write hook rewrites a flash word of the copy (see
    :func:`_spm_rewrite`), between straight-line code of the same block."""
    store = I(M.STS, k=SPM_HOOKED, rr=draw(st.integers(0, 31)))
    return (draw(st.lists(alu_op(), max_size=2)) + [store]
            + draw(st.lists(alu_op(), max_size=3)))


@st.composite
def operand_landing(draw):
    """An ``ijmp`` onto the second word of a two-word ``lds``/``sts``: the
    address operand then executes as an instruction."""
    address = draw(st.sampled_from(ADDRESSES + CONSTANT_ONLY))
    if draw(st.booleans()):
        access = I(M.STS, k=address, rr=draw(st.integers(0, 31)))
    else:
        access = I(M.LDS, rd=draw(st.sampled_from(WRITABLE)), k=address)
    return [("ijmp_operand", access)]


@st.composite
def item(draw, subs):
    """A main-line item: straight code, a forward branch, a direct or
    indirect call, a push or pop, a stack-edge access, an
    interrupt-requesting store, a flash-rewriting store or a jump onto an
    operand word.  Branch, call and Z operands are symbolic until
    layout."""
    kind = draw(st.integers(0, 14))
    if kind == 14:
        return draw(spm_op())
    if kind == 10:
        return draw(sp_edge_op(subs))
    if kind == 11:
        return draw(irq_op())
    if kind == 12 and subs:
        return [("icall", draw(st.integers(0, subs - 1)))]
    if kind == 13:
        return draw(operand_landing())
    if kind <= 4:
        return draw(straight_item())
    if kind == 5:
        skip = draw(st.integers(1, 3))
        if draw(st.booleans()):
            return [("rjmp", skip)]
        mnemonic = draw(st.sampled_from((M.BRBS, M.BRBC)))
        return [("branch", mnemonic, draw(st.integers(0, 7)), skip)]
    if kind == 6 and subs:
        return [("rcall", draw(st.integers(0, subs - 1)))]
    if kind == 7:
        return [I(M.PUSH, rr=draw(st.integers(0, 31)))]
    if kind == 8:
        return [I(M.POP, rd=draw(st.sampled_from(WRITABLE)))]
    return draw(straight_item())


@st.composite
def programs(draw):
    subs = draw(st.integers(0, 2))
    main = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            body = draw(st.lists(item(subs), min_size=1, max_size=4))
            main.append(("loop", draw(st.integers(1, 12)), body))
        else:
            main.append(draw(item(subs)))
    routines = [draw(st.lists(straight_item(), min_size=1, max_size=3))
                for _ in range(subs)]
    # each subroutine returns, or tail-calls a later one through ijmp
    tails = [draw(st.integers(index + 1, subs)) for index in range(subs)]
    return assemble(main, routines, tails)


def assemble(main, routines, tails=()):
    """Lay out symbolic items into an instruction list.

    ``main`` entries are items (lists of instructions / symbolic ops) or
    ``("loop", count, [items])``.  A forward branch skips whole entries of
    its own sequence (clamped to the sequence's end); calls are relative;
    the code ends in ``break`` followed by the subroutines.  Subroutine
    ``i`` ends in ``ret`` unless ``tails[i]`` names a later one to
    ``ijmp`` into.  Z loads stay ``("zlo"|"zhi", word offset)`` until
    :func:`at_base` resolves them for one copy.
    """
    out = []  # instructions or symbolic ops, in layout order
    fixups = []  # (index in out, op, index of the branch target in out)

    def emit(entries):
        starts = []
        for entry in entries:
            starts.append(len(out))
            if isinstance(entry, tuple):  # ("loop", count, body)
                _, count, body = entry
                out.append(I(M.LDI, rd=LOOP_REG, k=count))
                head = len(out)
                emit(body)
                out.append(I(M.DEC, rd=LOOP_REG))
                fixups.append((len(out), ("loop",), head))
                out.append(("loop",))
            else:
                for op in entry:
                    if isinstance(op, tuple) and op[0] in ("rjmp", "branch"):
                        fixups.append((len(out), op, (len(starts) - 1, starts)))
                    if isinstance(op, tuple) and op[0] == "icall":
                        out.extend(load_z(("sub", op[1])) + [I(M.ICALL)])
                    elif isinstance(op, tuple) and op[0] == "ijmp_operand":
                        # the access sits three slots on; land on its word 2
                        out.extend(load_z(("slot", len(out) + 3, 1)))
                        out.extend([I(M.IJMP), op[1]])
                    else:
                        out.append(op)
        starts.append(len(out))

    def load_z(target):
        return [("zlo", target), ("zhi", target)]

    emit(main)
    out.append(I(M.BREAK))
    sub_starts = []
    for index, routine in enumerate(routines):
        sub_starts.append(len(out))
        for unit in routine:
            out.extend(unit)
        tail = tails[index] if index < len(tails) else len(routines)
        if tail < len(routines):
            out.extend(load_z(("sub", tail)) + [I(M.IJMP)])
        else:
            out.append(I(M.RET))

    # word address of every slot (two-word lds/sts shift the rest)
    words = []
    address = 0
    for op in out:
        words.append(address)
        address += op.size_words if isinstance(op, Instruction) else 1
    words.append(address)
    for index, op in enumerate(out):
        if isinstance(op, tuple) and op[0] == "rcall":
            out[index] = I(M.RCALL, k=words[sub_starts[op[1]]] - words[index] - 1)
        elif isinstance(op, tuple) and op[0] in ("zlo", "zhi"):
            kind, target = op
            if target[0] == "sub":
                out[index] = (kind, words[sub_starts[target[1]]])
            else:
                out[index] = (kind, words[target[1]] + target[2])
    for index, op, target in fixups:
        if op[0] == "loop":  # back-edge: brne to the loop head
            out[index] = I(M.BRBC, b=1, k=words[target] - words[index] - 1)
            continue
        position, starts = target
        landing = starts[min(position + 1 + op[-1], len(starts) - 1)]
        k = words[landing] - words[index] - 1
        if op[0] == "rjmp":
            out[index] = I(M.RJMP, k=k)
        else:
            out[index] = I(op[1], b=op[2], k=k)
    return out


def at_base(program, base):
    """``program`` as loaded at word ``base``: each Z load gets the
    absolute word address of its target in this copy."""
    resolved = []
    for op in program:
        if isinstance(op, tuple):
            kind, offset = op
            address = base + offset
            resolved.append(I(M.LDI, rd=30, k=address & 0xFF) if kind == "zlo"
                            else I(M.LDI, rd=31, k=address >> 8))
        else:
            resolved.append(op)
    return resolved


def _spm_rewrite(cpu, rewrite, base, words):
    """Rewrite the flash word ``delta`` words from the instruction after
    the store (wrapped into the copy of ``words`` words at ``base``) with
    ``insn``, or with its own bytes when ``insn`` is ``None``."""
    delta, insn = rewrite
    address = base + (cpu.pc + delta - base) % words
    word = cpu.flash.read_word(address) if insn is None else encode(insn)[0]
    cpu.flash.write_word(address, word)


def _core(program, base, engine, threshold=None, rewrites=()):
    """A core running ``program`` at ``base``; its ``SPM_HOOKED`` store
    applies ``rewrites`` in turn (:func:`_spm_rewrite`)."""
    cpu = AvrCpu(engine=engine)
    cpu.load_program(encode_stream([I(M.RETI)]), offset=IRQ_VECTOR * 4)
    cpu.load_program(encode_stream(at_base(program, base)), offset=base * 2)
    cpu.code_limit = IRQ_VECTOR * 4 + 2
    cpu.reset()
    cpu.pc = base
    if threshold is not None:
        cpu.engine.WARM_THRESHOLD = threshold
    log = []

    def counters():
        return (cpu.cycles, cpu.pc, cpu.instructions_retired)

    def write_hook(address, value):
        log.append(("w", address, value) + counters())
        if address == IRQ_HOOKED:
            cpu.request_interrupt(IRQ_VECTOR)
        return value ^ 0xFF if address == WRITE_HOOKED[1] else None

    def read_hook(address):
        log.append(("r", address) + counters())
        if address != READ_HOOKED:  # toggled hooks only observe
            return cpu.data._bytes[address]
        return len(log)

    words = len(encode_stream(at_base(program, 0))) // 2
    spm_writes = [0]

    def spm_hook(address, value):
        log.append(("w", address, value) + counters())
        if rewrites:
            rewrite = rewrites[spm_writes[0] % len(rewrites)]
            spm_writes[0] += 1
            _spm_rewrite(cpu, rewrite, base, words)
        return None

    for address in WRITE_HOOKED + (IRQ_HOOKED,):
        cpu.data.add_write_hook(address, write_hook)
    cpu.data.add_write_hook(SPM_HOOKED, spm_hook)
    cpu.data.add_read_hook(READ_HOOKED, read_hook)
    for address in MIRRORS:
        cpu.data.add_mirror(address, b"\x5a")
    for address in SINKS:
        cpu.data.add_sink(address, [])
    return cpu, log


def _toggle(cpu, kind, address):
    """Add the core's write or read hook at ``address``, or remove it."""
    if kind == "w":
        hooks = cpu.data._write_hooks
        hook = hooks[WRITE_HOOKED[0]]
    else:
        hooks = cpu.data._read_hooks
        hook = hooks[READ_HOOKED]
    if address in hooks:
        del hooks[address]
    else:
        hooks[address] = hook


def _reflash(cpu, event, base, words):
    """Apply a generation switch to the copy of ``words`` words at
    ``base``: ``("reload",)`` writes its own bytes back, ``("rewrite",
    offset, insn)`` overwrites word ``offset % words`` with ``insn``."""
    if event[0] == "reload":
        cpu.flash.load(cpu.flash.dump(base * 2, words * 2), base * 2)
    else:
        _, offset, insn = event
        cpu.flash.write_word(base + offset % words, encode(insn)[0])


def _between_chunks(cpu, mirror, block, checkpoint):
    """Set the mirrors' device bytes to ``mirror`` (and its complement),
    unless it is ``None``; then apply ``block``: ``("save",)`` returns the
    data space as the new checkpoint, ``("restore", start, end)`` writes
    that range of the checkpoint back raw."""
    if mirror is not None:
        cpu.data.set_mirror(MIRRORS[0], bytes([mirror]))
        cpu.data.set_mirror(MIRRORS[1], bytes([mirror ^ 0xFF]))
    if block is not None and block[0] == "save":
        return cpu.data.read_block(0, DATA_SPACE_SIZE)
    if block is not None and checkpoint is not None:
        _, start, end = block
        cpu.data.write_block(start, checkpoint[start:end])
    return checkpoint


def _state(cpu, log):
    return (
        cpu.pc, cpu.data.sp, cpu.sreg.byte, cpu.cycles,
        cpu.instructions_retired, cpu.halted, cpu.interrupts_serviced,
        tuple(cpu.pending_interrupts),
        cpu.data.read_block(0, DATA_SPACE_SIZE), tuple(log),
        tuple(tuple(cpu.data._write_hooks[address]) for address in SINKS),
    )


def _run_chunk(cpu, n):
    try:
        cpu.run(n)
    except AvrError as exc:
        return (type(exc).__name__, str(exc))
    return None


def check_program(program, chunks, threshold, budget=3000, toggles=(),
                  reflashes=(), rewrites=(), mirrors=(), blocks=()):
    """Both bases on both engines, alternately, chunk by chunk, until every
    core halts or faults or has retired ``budget`` instructions.  Before
    chunk ``i`` the hook ``toggles[i % len(toggles)]`` (if any; ``None``
    toggles nothing) flips, the generation switch
    ``reflashes[i % len(reflashes)]`` (see :func:`_reflash`; ``None``
    switches nothing) applies, and so do the mirror byte and raw block
    write ``mirrors[i % len(mirrors)]`` and ``blocks[i % len(blocks)]``
    (see :func:`_between_chunks`), on both engines of the core about to
    run.  Every core's flash-rewriting store applies ``rewrites`` in
    turn."""
    words = len(encode_stream(at_base(program, 0))) // 2
    cores = []
    for base in BASES:
        reference = _core(program, base, "interpreter", rewrites=rewrites)
        subject = _core(program, base, "compiled", threshold, rewrites)
        cores.append([reference, subject, False, base, None])
    for step, n in enumerate(itertools.cycle(chunks)):
        live = [core for core in cores if not core[2]]
        if not live:
            return
        core = live[step % len(live)]
        (reference, ref_log), (subject, sub_log), _, base, checkpoint = core
        toggle = toggles[step % len(toggles)] if toggles else None
        if toggle is not None:
            _toggle(reference, *toggle)
            _toggle(subject, *toggle)
        event = reflashes[step % len(reflashes)] if reflashes else None
        if event is not None:
            _reflash(reference, event, base, words)
            _reflash(subject, event, base, words)
        mirror = mirrors[step % len(mirrors)] if mirrors else None
        block = blocks[step % len(blocks)] if blocks else None
        core[4] = _between_chunks(reference, mirror, block, checkpoint)
        _between_chunks(subject, mirror, block, checkpoint)
        ref_fault = _run_chunk(reference, n)
        sub_fault = _run_chunk(subject, n)
        assert sub_fault == ref_fault
        assert _state(subject, sub_log) == _state(reference, ref_log)
        core[2] = (bool(ref_fault) or reference.halted
                   or reference.instructions_retired >= budget)


chunk_lists = st.lists(st.integers(1, 40), min_size=1, max_size=6)
toggle_lists = st.lists(st.one_of(st.none(), st.sampled_from(TOGGLES)),
                        max_size=6)
reflash_lists = st.lists(
    st.one_of(st.none(), st.just(("reload",)),
              st.tuples(st.just("rewrite"), st.integers(0, 255), alu_op())),
    max_size=6,
)
# (delta, insn or None): from the store's own two words (-2, -1) through
# the rest of its block to later blocks
rewrite_lists = st.lists(
    st.tuples(st.integers(-2, 8), st.one_of(st.none(), alu_op())),
    max_size=4,
)
mirror_lists = st.lists(st.one_of(st.none(), st.integers(0, 255)), max_size=6)
block_lists = st.lists(
    st.one_of(st.none(), st.just(("save",)),
              st.sampled_from(WINDOWS).map(lambda window: ("restore",) + window)),
    max_size=6,
)


@pytest.mark.parametrize("threshold", THRESHOLDS, ids=("hot", "default", "cold"))
@settings(max_examples=25, deadline=None)
@given(program=programs(), chunks=chunk_lists, toggles=toggle_lists,
       reflashes=reflash_lists, rewrites=rewrite_lists, mirrors=mirror_lists,
       blocks=block_lists)
def test_shared_bodies_match_interpreter(threshold, program, chunks, toggles,
                                         reflashes, rewrites, mirrors, blocks):
    """Each program runs twice: first with an empty block index, so heads
    walk their extents, then with the index holding this program's
    natural blocks, so heads find their records by a byte probe."""
    BLOCK_INDEX.clear()
    for _ in range(2):
        check_program(program, chunks, threshold, toggles=toggles,
                      reflashes=reflashes, rewrites=rewrites,
                      mirrors=mirrors, blocks=blocks)


def _counted_access_program(access):
    """``ldi r17,5; L: inc r16; inc r16; <access>; dec r17; brne L; break``"""
    return [I(M.LDI, rd=17, k=5), I(M.INC, rd=16), I(M.INC, rd=16), access,
            I(M.DEC, rd=17), I(M.BRBC, b=1, k=-(4 + access.size_words)),
            I(M.BREAK)]


@pytest.mark.parametrize("threshold", THRESHOLDS, ids=("hot", "default", "cold"))
@pytest.mark.parametrize("access", (I(M.STS, k=WRITE_HOOKED[0], rr=16),
                                    I(M.LDS, rd=18, k=READ_HOOKED)),
                         ids=("write", "read"))
def test_hooks_see_the_interpreters_counters(threshold, access):
    """A data-space hook sees the cycles, PC and retire count the
    interpreter has when it runs the access: (4, 5, 3), (11, 5, 8), ..."""
    logs = []
    for engine, warm in (("interpreter", None), ("compiled", threshold)):
        cpu, log = _core(_counted_access_program(access), 0, engine, warm)
        cpu.run(200)
        assert cpu.halted
        logs.append([entry[-3:] for entry in log])
    assert logs[0][:2] == [(4, 5, 3), (11, 5, 8)]
    assert logs[1] == logs[0]


def test_assembled_program_reaches_break():
    """The generator's layout is sound: a loop around a subroutine call
    with a branch inside retires cleanly to its break on the interpreter."""
    program = assemble(
        [("loop", 3, [[("rcall", 0)], [("branch", M.BRBS, 1, 1)],
                      [I(M.INC, rd=16)]])],
        [[[I(M.INC, rd=17)]]],
    )
    cpu = AvrCpu(engine="interpreter")
    cpu.load_program(encode_stream(program))
    cpu.reset()
    cpu.run(200)
    assert cpu.halted
    assert cpu.data.read_reg(17) == 3


@pytest.mark.parametrize("toggle", TOGGLES[:3] + TOGGLES[5:8])
def test_hooks_toggled_on_a_call_frame_between_chunks(toggle):
    """A hook added under an already compiled call or return reaches that
    frame byte's hook on every tier, and removing it restores the fast
    path (one case per byte of the frame at RAMEND)."""
    program = assemble([("loop", 4, [[("rcall", 0)], [I(M.INC, rd=16)]])],
                       [[[I(M.INC, rd=17)]]])
    for threshold in THRESHOLDS:
        check_program(program, [3, 5], threshold, toggles=[toggle])


def test_second_core_runs_the_first_cores_bodies():
    """The swarm shape really shares: at threshold 1 the copy at the
    second base compiles nothing of its own."""
    BLOCK_STORE.clear()
    program = assemble([("loop", 4, [[I(M.INC, rd=16)], [("rcall", 0)]])],
                       [[[I(M.STS, k=WRITE_HOOKED[0], rr=16)]]])
    engines = []
    for base in BASES:
        cpu, _ = _core(program, base, "compiled", 1)
        cpu.run(500)
        assert cpu.halted
        engines.append(cpu.engine)
    assert engines[0].compiled_built > 0
    assert engines[1].compiled_built == 0
    check_program(program, [3, 5], 1)


def test_indirect_chain_and_operand_landing_match_interpreter():
    """``icall`` into a subroutine that tail-calls the next one through
    ``ijmp``, then an ``ijmp`` onto the operand word of an ``lds`` (0x0300
    runs as ``mulsu r16, r16``), at both bases on every tier."""
    program = assemble(
        [("loop", 3, [[("icall", 0)],
                      [("ijmp_operand", I(M.LDS, rd=18, k=0x0300))],
                      [I(M.INC, rd=16)]])],
        [[[I(M.INC, rd=17)]], [[I(M.INC, rd=19)]]],
        tails=[1, 2],
    )
    for base in BASES:
        cpu, _ = _core(program, base, "interpreter")
        cpu.run(500)
        assert cpu.halted
        assert [cpu.data.read_reg(r) for r in (16, 17, 19)] == [3, 3, 3]
        assert cpu.data.read_reg(18) == 0  # the lds itself never ran
    for threshold in THRESHOLDS:
        check_program(program, [3, 5], threshold)


def test_generation_switches_under_hot_bodies_match_interpreter():
    """Each core runs its loop hot (at the default threshold too), then
    reloads its copy with its own bytes, runs hot again, then rewrites
    the loop body's ``inc r16`` (word 2) to ``inc r20``: both switches
    land on a filled decode cache, fused blocks and bound bodies, at both
    bases on every tier."""
    program = assemble([("loop", 100, [[("rcall", 0)], [I(M.INC, rd=16)]])],
                       [[[I(M.STS, k=0x0304, rr=16)]]])
    assert program[2] == I(M.INC, rd=16)
    # chunk i runs on core i % 2, so each core sees every other event
    reflashes = ([None] * 4 + [("reload",)] * 2 + [None] * 4
                 + [("rewrite", 2, I(M.INC, rd=20))] * 2)
    for threshold in THRESHOLDS:
        check_program(program, [40], threshold, reflashes=reflashes)


@pytest.mark.parametrize("delta", [0, -2, 3], ids=("ahead", "behind", "later"))
def test_spm_self_write_mid_block_matches_interpreter(delta):
    """A store in the middle of a hot loop body rewrites one flash word
    through ``FlashMemory.write_word`` on every pass, in turn to two other
    instructions and to its own bytes: a word of the running block not
    yet run (``ahead``), the store's own first word (``behind``) or the
    next block's (``later``).  Whatever the block store knows of earlier
    bytes at that address, the current ones run next, at both bases on
    every tier."""
    program = assemble(
        [("loop", 12, [[I(M.INC, rd=16), I(M.STS, k=SPM_HOOKED, rr=16),
                        I(M.INC, rd=17), I(M.INC, rd=18)],
                       [("rjmp", 0)], [I(M.INC, rd=19)]])],
        [],
    )
    rewrites = [(delta, I(M.INC, rd=20)), (delta, I(M.INC, rd=21)),
                (delta, None)]
    for threshold in THRESHOLDS:
        BLOCK_STORE.clear()
        check_program(program, [7, 40], threshold, rewrites=rewrites)


def test_mirrors_sinks_and_raw_restores_in_a_hot_loop_match_interpreter():
    """A loop body loads both mirrors and stores to both sinks (the ``sts``
    and ``out`` sink paths stay in the body) and to a mirror, while the
    harness changes the mirrors' device bytes, checkpoints the data space
    and writes it back whole or in windows between chunks, at both bases
    on every tier."""
    program = assemble(
        [("loop", 30, [[I(M.LDS, rd=16, k=MIRRORED), I(M.STS, k=SINK, rr=16),
                        I(M.IN, rd=17, a=IO_MIRRORED), I(M.OUT, a=IO_SINK, rr=17),
                        I(M.INC, rd=18), I(M.STS, k=SINK, rr=18),
                        I(M.STS, k=MIRRORED, rr=18), I(M.INC, rd=19)]])],
        [],
    )
    mirrors = [None, 0x01, 0x80, None, 0xFF]
    blocks = [None, ("save",), None, ("restore",) + WINDOWS[0],
              ("restore",) + WINDOWS[1], ("restore",) + WINDOWS[2]]
    for threshold in THRESHOLDS:
        check_program(program, [5, 11, 23], threshold, mirrors=mirrors,
                      blocks=blocks)
