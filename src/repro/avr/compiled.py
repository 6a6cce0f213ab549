"""The fast execution engine: per-instruction cold tier, compiled hot tier.

:class:`CompiledEngine` is the simulator's one fast engine (the
``interpreter`` in :mod:`repro.avr.engine` is the reference it is
checked against).  It retires code in superblocks (:mod:`repro.avr.blocks`)
and runs each block head in one of two tiers:

* **Cold tier.**  A head whose block bytes have been entered fewer than
  :attr:`CompiledEngine.WARM_THRESHOLD` times — counted over the whole
  process, not per flash generation or per address — retires through
  the per-instruction loop over the decode cache, up to the next
  cold-tier terminator (or :data:`~repro.avr.blocks.FUSE_CAP`
  instructions) — no fusion, no codegen.  Code that runs a handful of
  times in the process (boot paths) never pays for more.
* **Hot tier.**  A head whose bytes reach the threshold is bound to the
  :class:`~repro.avr.blocks.Superblock` fused for those bytes under the
  hot-tier rule (which fuses through unhooked ``sts``/``out``/``push``)
  and to its compiled *body*: Python source generated for the block
  (below) and ``exec``-ed into one callable.  Bytes that got warm in an
  earlier generation, layout, board or core bind on the head's first
  entry.

Three process-wide, bounded caches make the tiers cheap across flash
generations, boards and scenarios:

* **Block store** (:data:`BLOCK_STORE`), one :class:`BlockRecord` per
  block *bytes* — for a ``call``/``jmp`` terminator, the bytes before it
  plus its mnemonic.  A record holds the bytes' cold-tier entry count,
  their fused block and, once warm, their body.  Blocks and bodies are
  position-independent: every PC a block holds is an offset from the
  head, PC constants in a body are emitted relative to the entry ``pc``
  argument, a ``call``/``jmp`` target is the ``tgt`` argument, and the
  register file and SREG are passed on every call.  So a record's
  contents are a pure function of its key.  MAVR moves every function on
  every re-randomization, so a key that included the entry address or an
  absolute target would miss on nearly every generation; this key keeps
  hitting, and one record serves every layout, every generation and
  every core in the process.  Each generation finds a head's record once,
  on the head's first entry, from the key its bytes in the current flash
  give: binding always reads the current flash.
* **Block index** (:data:`BLOCK_INDEX`, a :class:`BlockIndex`): the store
  keys of blocks whose extent ended by the hot-tier rule or at
  ``FUSE_CAP``, by their first word.  Finding a head's key is one byte
  probe of the flash against the few keys that share its first word; a
  head no key matches walks its hot-block extent through the
  generation's decode cache, as a block cut by the image limit, an
  undecodable word or the end of flash always does.
* **Decode memo** (:data:`DECODE_MEMO`), keyed by the instruction's
  bytes as one int, ``word | next_word << 16`` (``next_word`` is 0 for a
  one-word instruction): re-decoding moved code after a reflash is a
  lookup, not a decode.  An entry carries both tiers' fusion flags, so
  fusing reads a field instead of re-evaluating the rules.

A flash-generation switch costs only what the new generation runs: the
per-generation state — the decode cache (a dict keyed by word address),
the head-to-record map and the hot bindings — is cleared in place, and a
decode miss reads the flash bytes directly (behind
``FlashMemory.read_word``'s range check and errors) and looks its key up
in the memo.

Specialization rules of a compiled body:

* **Registers as locals.**  General registers are memory-mapped plain
  bytes (``DataSpace._bytes[0..31]``, no hooks), so inside a block they
  are loaded lazily into locals and written back (dirty ones only) at
  the block's end — or before anything that could observe them.
* **Flags as locals.**  SREG flags live in 0/1-valued locals with the
  exact :mod:`repro.avr.alu` formulas inlined.  A backward liveness pass
  over the block elides every flag computation that a later instruction
  overwrites before any possible read (data-space accesses, callouts
  and the terminator conservatively read everything; S forces N and V
  because S = N xor V).
* **Guarded data-space access.**  ``sts``/``lds``, ``out``/``in``,
  ``push``/``pop`` and ``ld``/``ldd`` index the data-space bytes
  directly when ``DataSpace.read``/``write`` would do exactly that: the
  address is no register or SREG, lies in the data space and has no
  hook (dynamic addresses must lie in ``[0x60, 0x2200)``).  Hook tables
  are tested at run time, never baked into a body.  When a guard fails
  the body writes its dirty locals back, sets PC, cycles and the retire
  count to the interpreter's values, calls the method the handler
  calls, and returns after that one instruction — so every data-space
  hook runs at exact counters and at a block boundary.  Peripheral
  registers kept as data pass these guards: a *mirror* (the sensor
  pairs, UART status) has no read hook, so its load is a plain byte,
  and an ``sts``/``out`` to a *sink* (UART data) appends the byte to the
  list that stands in the write-hook table and runs on, because a sink
  reads no counter and requests no interrupt.  A store to a mirror
  still leaves through its write hook, which puts the device's byte
  back.
* **Callouts.**  ``lpm``, and ``lds`` beyond the data space, call their
  ``HANDLERS`` entry in line, bracketed by a flush of every dirty local
  before and a full reload after; fault semantics are the handlers',
  byte for byte.  Control flow, the other stores, ``sei``,
  ``break`` and ``sleep`` end the body as its terminator.
* **Terminators.**  ``rjmp``/``jmp``/``ijmp``/conditional branches/
  ``sei``/``sleep`` are inlined with the final PC and the whole block's
  cycle/instruction accounting folded into constants; ``call``/``rcall``/
  ``ret`` move their 3-byte frame in line behind the stack guard; all
  other terminators (and failed frame guards) run at exact counters
  through the core method their handler calls, or else the handler.

A body returns the number of instructions it retired: the block's count,
or fewer when a guard failed.

Correctness envelope (pinned by the interpreter-vs-compiled lockstep,
differential and end-state tests at the default threshold, all-hot and
all-cold):

* the decode cache, head records and hot bindings are cleared on every
  ``FlashMemory.generation`` change and every image-limit change, so a
  reflash or SPM self-write can never execute a stale decode and a block
  never runs across the current ``code_limit``; shared blocks and bodies
  are keyed by content, so they can never be stale;
* a fault inside a body reconstructs the exact per-instruction
  :class:`~repro.errors.CpuFault` (pc/cycles/retired) from the head's
  address and the block's per-position ``body_meta``;
* interrupts latch any time and are serviced at block boundaries (the
  exact-latency argument in :mod:`repro.avr.blocks`);
* any attached trace hook degrades execution to an exact per-instruction
  loop with the full retire preamble, checked every iteration — so
  ``run_lockstep`` and every trace never execute a body.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..errors import (
    CpuFault,
    DecodeError,
    IllegalExecutionError,
    MemoryAccessError,
)
from .blocks import (
    FUSE_CAP,
    READ_CAPABLE,
    SYNC,
    Decoded,
    Superblock,
    ends_hot_block,
    extent,
    fuse,
    is_terminator,
)
from .decoder import decode, needs_second_word
from .engine import (
    CYCLES_BY_MNEMONIC,
    HANDLERS,
    Entry,
    Halt,
    Handler,
    _out_of_image_error,
    retire_preamble,
)
from .insn import POINTER_MODES, Instruction, Mnemonic
from .iospace import IO_TO_DATA_OFFSET, SPH_DATA, SPL_DATA, SREG_DATA
from .memory import DATA_SPACE_SIZE, EXT_IO_BASE, REGISTER_FILE_SIZE

_SREG_I_BIT = 7

# SREG bit index -> StatusRegister attribute / flag-local suffix.
_FLAG_ATTR = ("c", "z", "n", "v", "s", "h", "t", "i")
_ALL_FLAGS = frozenset(_FLAG_ATTR)


class CompiledBodyFault(Exception):
    """Internal carrier: a callout inside a compiled body faulted.

    ``index`` is the body slot (``-1`` for the terminator); ``exc`` is the
    original :class:`MemoryAccessError`.  The engine translates it into
    the exact per-instruction :class:`CpuFault` using ``body_meta``.
    """

    def __init__(self, index: int, exc: MemoryAccessError) -> None:
        super().__init__(index)
        self.index = index
        self.exc = exc


# -- flag read/write sets (must match the emitters below) -----------------

_ARITH_FLAGS = frozenset("cznvsh")
_LOGIC_FLAGS = frozenset("znvs")
_SHIFT_FLAGS = frozenset("cznvs")

_FLAG_WRITES: Dict[Mnemonic, FrozenSet[str]] = {
    Mnemonic.ADD: _ARITH_FLAGS,
    Mnemonic.ADC: _ARITH_FLAGS,
    Mnemonic.SUB: _ARITH_FLAGS,
    Mnemonic.SBC: _ARITH_FLAGS,
    Mnemonic.SUBI: _ARITH_FLAGS,
    Mnemonic.SBCI: _ARITH_FLAGS,
    Mnemonic.CP: _ARITH_FLAGS,
    Mnemonic.CPC: _ARITH_FLAGS,
    Mnemonic.CPI: _ARITH_FLAGS,
    Mnemonic.NEG: _ARITH_FLAGS,
    Mnemonic.AND: _LOGIC_FLAGS,
    Mnemonic.ANDI: _LOGIC_FLAGS,
    Mnemonic.OR: _LOGIC_FLAGS,
    Mnemonic.ORI: _LOGIC_FLAGS,
    Mnemonic.EOR: _LOGIC_FLAGS,
    Mnemonic.COM: frozenset("cznvs"),
    Mnemonic.INC: _LOGIC_FLAGS,
    Mnemonic.DEC: _LOGIC_FLAGS,
    Mnemonic.LSR: _SHIFT_FLAGS,
    Mnemonic.ASR: _SHIFT_FLAGS,
    Mnemonic.ROR: _SHIFT_FLAGS,
    Mnemonic.ADIW: _SHIFT_FLAGS,
    Mnemonic.SBIW: _SHIFT_FLAGS,
    Mnemonic.MUL: frozenset("cz"),
    Mnemonic.MULS: frozenset("cz"),
    Mnemonic.MULSU: frozenset("cz"),
    Mnemonic.BST: frozenset("t"),
}

_FLAG_READS: Dict[Mnemonic, FrozenSet[str]] = {
    Mnemonic.ADC: frozenset("c"),
    Mnemonic.SBC: frozenset("cz"),
    Mnemonic.SBCI: frozenset("cz"),
    Mnemonic.CPC: frozenset("cz"),
    Mnemonic.ROR: frozenset("c"),
    Mnemonic.BLD: frozenset("t"),
}


def _flag_rw(insn: Instruction) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(reads, writes) for a body slot's flag liveness bookkeeping."""
    mnemonic = insn.mnemonic
    if mnemonic is Mnemonic.BSET or mnemonic is Mnemonic.BCLR:
        return frozenset(), frozenset(_FLAG_ATTR[insn.b])
    return (
        _FLAG_READS.get(mnemonic, frozenset()),
        _FLAG_WRITES.get(mnemonic, frozenset()),
    )


# -- source generation ----------------------------------------------------


class _Gen:
    """Accumulates specialized source lines for one superblock.

    Tracks which registers/flags are live in locals so loads happen
    lazily, writebacks happen once, and callouts see a fully
    architectural machine.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._loaded_regs: set = set()
        self._dirty_regs: set = set()
        self._loaded_flags: set = set()
        self._dirty_flags: set = set()
        self._hook_locals: set = set()
        # names the exec-ed source refers to (handlers, instructions)
        self.ns: Dict[str, object] = {
            "_MAE": MemoryAccessError,
            "_CBF": CompiledBodyFault,
        }
        self.needs_try = False
        # the slot being emitted (the terminator is slot count - 1):
        # (index, fall-through offset from the head, cycles before it,
        # its base cycles), set by the generator
        self.slot: Tuple[int, int, int, int] = (0, 0, 0, 0)

    def raw(self, line: str) -> None:
        self.lines.append(line)

    # registers ----------------------------------------------------------

    def reg(self, index: int) -> str:
        name = f"r{index}"
        if index not in self._loaded_regs:
            self.raw(f"{name} = buf[{index}]")
            self._loaded_regs.add(index)
        return name

    def assign(self, index: int, expr: str) -> None:
        """Overwrite a register local (no load needed for a pure write)."""
        self._loaded_regs.add(index)
        self._dirty_regs.add(index)
        self.raw(f"r{index} = {expr}")

    # flags --------------------------------------------------------------

    def flag(self, name: str) -> str:
        local = "f" + name
        if name not in self._loaded_flags:
            self.raw(f"{local} = s.{name}")
            self._loaded_flags.add(name)
        return local

    def setflag(self, name: str, expr: str) -> None:
        self._loaded_flags.add(name)
        self._dirty_flags.add(name)
        self.raw(f"f{name} = {expr}")

    def mark_flag_dirty(self, name: str) -> None:
        self._dirty_flags.add(name)

    # synchronization ----------------------------------------------------

    def _writeback(self) -> List[str]:
        """Source that stores every dirty local back (state unchanged)."""
        lines = [f"buf[{index}] = r{index}" for index in sorted(self._dirty_regs)]
        # 0/1 ints are architecturally equivalent to the bools the
        # handlers store: every consumer packs via `byte` (shifts) or
        # compares with ==, and 1 == True in Python.
        lines.extend(
            f"s.{name} = f{name}" for name in _FLAG_ATTR if name in self._dirty_flags
        )
        return lines

    def flush(self) -> None:
        """Write every dirty local back to the architectural machine."""
        self.lines.extend(self._writeback())
        self._dirty_regs.clear()
        self._dirty_flags.clear()

    def invalidate(self) -> None:
        """Forget every local: a callout may have changed anything."""
        self._loaded_regs.clear()
        self._dirty_regs.clear()
        self._loaded_flags.clear()
        self._dirty_flags.clear()

    # guarded data-space access --------------------------------------------

    def hooks(self, table: str) -> str:
        """The local bound to the data space's write or read hook table.

        Hook tables are plain dicts that may change between runs, so the
        body looks them up on every call; nothing a body runs before it
        leaves can change them.
        """
        name = "wh" if table == "write" else "rh"
        if name not in self._hook_locals:
            self.raw(f"{name} = cpu.data._{table}_hooks")
            self._hook_locals.add(name)
        return name

    def handler_call(self, handler: Handler, insn: Instruction) -> str:
        """Source calling the slot's own handler."""
        index = self.slot[0]
        self.ns[f"_h{index}"] = handler
        self.ns[f"_i{index}"] = insn
        return f"_h{index}(cpu, _i{index})"

    def exit_lines(self, calls: List[str]) -> List[str]:
        """Run ``calls`` as the current slot at exact counters, then return.

        PC, cycles and the retire count become what the interpreter has
        when it runs that instruction; a fault in ``calls`` is already
        settled (``_fi < 0``) and translates to the same ``CpuFault``.
        """
        index, next_off, cycles_before, base = self.slot
        self.needs_try = True
        lines = [f"cpu.pc = {_pc_at(next_off)}"]
        if cycles_before:
            lines.append(f"cpu.cycles += {cycles_before}")
        if index:
            lines.append(f"cpu.instructions_retired += {index}")
        lines.append(f"_fi = {-1 - index}")
        lines += calls
        lines += [
            f"cpu.cycles += {base}",
            "cpu.instructions_retired += 1",
            f"return {index + 1}",
        ]
        return lines

    def guard(self, fail: str, call: str, indent: str = "") -> None:
        """If ``fail`` holds, leave through ``call`` after this slot."""
        self.raw(f"{indent}if {fail}:")
        for line in self._writeback() + self.exit_lines([call]):
            self.raw(f"{indent}    {line}")

    def callout(self, handler: Handler, insn: Instruction) -> None:
        """Run the slot's handler in line: flush, call, reload everything.

        Only for handlers that reach no data-space hook (``lpm``) or that
        always fault (``lds`` beyond the data space): a fault rebuilds
        the slot's counters from ``_fi``.
        """
        self.needs_try = True
        self.flush()
        self.raw(f"_fi = {self.slot[0]}")
        self.raw(self.handler_call(handler, insn))
        self.invalidate()


# Each emitter appends the specialized source for one instruction.
# ``live`` is the set of flags whose values can still be read after this
# slot — only those get computed (S implies N and V, applied by caller).
Emitter = Callable[[_Gen, Instruction, FrozenSet[str]], None]


def _nzs8(g: _Gen, live: FrozenSet[str]) -> None:
    """N/Z/S from the 8-bit ``_r``; assumes fv is set when S is live."""
    if "n" in live:
        g.setflag("n", "_r >> 7")
    if "z" in live:
        g.setflag("z", "_r == 0")
    if "s" in live:
        g.setflag("s", "fn ^ fv")


def _e_nop(g: _Gen, insn: Instruction, live: FrozenSet[str]) -> None:
    pass


def _e_ldi(g, insn, live):
    g.assign(insn.rd, str(insn.k))


def _e_mov(g, insn, live):
    g.assign(insn.rd, g.reg(insn.rr))


def _e_movw(g, insn, live):
    lo = g.reg(insn.rr)
    hi = g.reg(insn.rr + 1)
    g.assign(insn.rd, lo)
    g.assign(insn.rd + 1, hi)


def _e_swap(g, insn, live):
    a = g.reg(insn.rd)
    g.assign(insn.rd, f"(({a} << 4) | ({a} >> 4)) & 255")


def _add_like(g, insn, live, carry: bool) -> None:
    a = g.reg(insn.rd)
    b = g.reg(insn.rr)
    tail = f" + {g.flag('c')}" if carry else ""
    g.raw(f"_s = {a} + {b}{tail}")
    g.raw("_r = _s & 255")
    if "h" in live:
        g.setflag("h", f"((({a} & 15) + ({b} & 15){tail}) >> 4) & 1")
    if "c" in live:
        g.setflag("c", "_s >> 8")
    if "v" in live:
        g.setflag("v", f"(~({a} ^ {b}) & ({a} ^ _r) & 128) >> 7")
    _nzs8(g, live)
    g.assign(insn.rd, "_r")


def _e_add(g, insn, live):
    _add_like(g, insn, live, carry=False)


def _e_adc(g, insn, live):
    _add_like(g, insn, live, carry=True)


def _sub_like(
    g, insn, live, *, imm: bool, carry: bool, keep_z: bool, store: bool
) -> None:
    a = g.reg(insn.rd)
    b = str(insn.k) if imm else g.reg(insn.rr)
    tail = f" - {g.flag('c')}" if carry else ""
    if keep_z and "z" in live:
        g.flag("z")  # ensure loaded before the conditional clear below
    g.raw(f"_s = {a} - {b}{tail}")
    g.raw("_r = _s & 255")
    if "h" in live:
        g.setflag("h", f"((({a} & 15) - ({b} & 15){tail}) >> 4) & 1")
    if "c" in live:
        g.setflag("c", "_s < 0")
    if "v" in live:
        g.setflag("v", f"(({a} ^ {b}) & ({a} ^ _r) & 128) >> 7")
    if "n" in live:
        g.setflag("n", "_r >> 7")
    if "z" in live:
        if keep_z:
            g.raw("if _r:")
            g.raw("    fz = 0")
            g.mark_flag_dirty("z")
        else:
            g.setflag("z", "_r == 0")
    if "s" in live:
        g.setflag("s", "fn ^ fv")
    if store:
        g.assign(insn.rd, "_r")


def _e_sub(g, insn, live):
    _sub_like(g, insn, live, imm=False, carry=False, keep_z=False, store=True)


def _e_sbc(g, insn, live):
    _sub_like(g, insn, live, imm=False, carry=True, keep_z=True, store=True)


def _e_subi(g, insn, live):
    _sub_like(g, insn, live, imm=True, carry=False, keep_z=False, store=True)


def _e_sbci(g, insn, live):
    _sub_like(g, insn, live, imm=True, carry=True, keep_z=True, store=True)


def _e_cp(g, insn, live):
    _sub_like(g, insn, live, imm=False, carry=False, keep_z=False, store=False)


def _e_cpc(g, insn, live):
    _sub_like(g, insn, live, imm=False, carry=True, keep_z=True, store=False)


def _e_cpi(g, insn, live):
    _sub_like(g, insn, live, imm=True, carry=False, keep_z=False, store=False)


def _logic_like(g, insn, live, expr: str) -> None:
    g.raw(f"_r = {expr}")
    if "v" in live:
        g.setflag("v", "0")
    if "n" in live:
        g.setflag("n", "_r >> 7")
    if "z" in live:
        g.setflag("z", "_r == 0")
    if "s" in live:
        g.setflag("s", "fn")  # V is 0, so S = N
    g.assign(insn.rd, "_r")


def _e_and(g, insn, live):
    _logic_like(g, insn, live, f"{g.reg(insn.rd)} & {g.reg(insn.rr)}")


def _e_andi(g, insn, live):
    _logic_like(g, insn, live, f"{g.reg(insn.rd)} & {insn.k}")


def _e_or(g, insn, live):
    _logic_like(g, insn, live, f"{g.reg(insn.rd)} | {g.reg(insn.rr)}")


def _e_ori(g, insn, live):
    _logic_like(g, insn, live, f"{g.reg(insn.rd)} | {insn.k}")


def _e_eor(g, insn, live):
    _logic_like(g, insn, live, f"{g.reg(insn.rd)} ^ {g.reg(insn.rr)}")


def _e_com(g, insn, live):
    a = g.reg(insn.rd)
    g.raw(f"_r = {a} ^ 255")
    if "c" in live:
        g.setflag("c", "1")
    if "v" in live:
        g.setflag("v", "0")
    if "n" in live:
        g.setflag("n", "_r >> 7")
    if "z" in live:
        g.setflag("z", "_r == 0")
    if "s" in live:
        g.setflag("s", "fn")
    g.assign(insn.rd, "_r")


def _e_neg(g, insn, live):
    a = g.reg(insn.rd)
    g.raw(f"_r = -{a} & 255")
    if "h" in live:
        g.setflag("h", f"((_r | {a}) >> 3) & 1")
    if "c" in live:
        g.setflag("c", "_r != 0")
    if "v" in live:
        g.setflag("v", "_r == 128")
    _nzs8(g, live)
    g.assign(insn.rd, "_r")


def _e_inc(g, insn, live):
    a = g.reg(insn.rd)
    g.raw(f"_r = ({a} + 1) & 255")
    if "v" in live:
        g.setflag("v", "_r == 128")
    _nzs8(g, live)
    g.assign(insn.rd, "_r")


def _e_dec(g, insn, live):
    a = g.reg(insn.rd)
    g.raw(f"_r = ({a} - 1) & 255")
    if "v" in live:
        g.setflag("v", "_r == 127")
    _nzs8(g, live)
    g.assign(insn.rd, "_r")


def _e_lsr(g, insn, live):
    a = g.reg(insn.rd)
    g.raw(f"_r = {a} >> 1")
    # N is 0, so V = N^C = C and S = N^V = C: all directly from bit 0.
    if "c" in live:
        g.setflag("c", f"{a} & 1")
    if "n" in live:
        g.setflag("n", "0")
    if "z" in live:
        g.setflag("z", "_r == 0")
    if "v" in live:
        g.setflag("v", f"{a} & 1")
    if "s" in live:
        g.setflag("s", f"{a} & 1")
    g.assign(insn.rd, "_r")


def _shift_right(g, insn, live, result_expr: str) -> None:
    a = g.reg(insn.rd)
    g.raw(f"_r = {result_expr}")
    if "c" in live:
        g.setflag("c", f"{a} & 1")
    if "n" in live:
        g.setflag("n", "_r >> 7")
    if "z" in live:
        g.setflag("z", "_r == 0")
    if "v" in live:
        g.setflag("v", f"(_r >> 7) ^ ({a} & 1)")
    if "s" in live:
        g.setflag("s", f"{a} & 1")  # S = N^V = N^(N^C) = C
    g.assign(insn.rd, "_r")


def _e_asr(g, insn, live):
    a = g.reg(insn.rd)
    _shift_right(g, insn, live, f"({a} >> 1) | ({a} & 128)")


def _e_ror(g, insn, live):
    cin = g.flag("c")
    a = g.reg(insn.rd)
    _shift_right(g, insn, live, f"({a} >> 1) | ({cin} << 7)")


def _word_imm(g, insn, live, *, add: bool) -> None:
    lo = g.reg(insn.rd)
    hi = g.reg(insn.rd + 1)
    g.raw(f"_p = {lo} | ({hi} << 8)")
    g.raw(f"_s = _p {'+' if add else '-'} {insn.k}")
    g.raw("_r = _s & 65535")
    if "c" in live:
        g.setflag("c", "_s > 65535" if add else "_s < 0")
    if "z" in live:
        g.setflag("z", "_r == 0")
    if "n" in live:
        g.setflag("n", "_r >> 15")
    if "v" in live:
        g.setflag("v", "(~_p & _r & 32768) >> 15" if add else "(_p & ~_r & 32768) >> 15")
    if "s" in live:
        g.setflag("s", "fn ^ fv")
    g.assign(insn.rd, "_r & 255")
    g.assign(insn.rd + 1, "_r >> 8")


def _e_adiw(g, insn, live):
    _word_imm(g, insn, live, add=True)


def _e_sbiw(g, insn, live):
    _word_imm(g, insn, live, add=False)


def _mul_like(g, insn, live, signed_d: bool, signed_r: bool) -> None:
    a = g.reg(insn.rd)
    b = g.reg(insn.rr)
    ea = f"({a} - 256 if {a} & 128 else {a})" if signed_d else a
    eb = f"({b} - 256 if {b} & 128 else {b})" if signed_r else b
    g.raw(f"_p = ({ea} * {eb}) & 65535")
    g.assign(0, "_p & 255")
    g.assign(1, "_p >> 8")
    if "c" in live:
        g.setflag("c", "_p >> 15")
    if "z" in live:
        g.setflag("z", "_p == 0")


def _e_mul(g, insn, live):
    _mul_like(g, insn, live, signed_d=False, signed_r=False)


def _e_muls(g, insn, live):
    _mul_like(g, insn, live, signed_d=True, signed_r=True)


def _e_mulsu(g, insn, live):
    _mul_like(g, insn, live, signed_d=True, signed_r=False)


def _e_bst(g, insn, live):
    if "t" in live:
        g.setflag("t", f"({g.reg(insn.rd)} >> {insn.b}) & 1")


def _e_bld(g, insn, live):
    t = g.flag("t")
    a = g.reg(insn.rd)
    set_mask = 1 << insn.b
    clear_mask = 0xFF & ~set_mask
    g.assign(insn.rd, f"({a} | {set_mask}) if {t} else ({a} & {clear_mask})")


def _e_bset(g, insn, live):
    name = _FLAG_ATTR[insn.b]
    if name in live:
        g.setflag(name, "1")


def _e_bclr(g, insn, live):
    name = _FLAG_ATTR[insn.b]
    if name in live:
        g.setflag(name, "0")


# The per-mnemonic source-template table — the codegen twin of
# ``engine.HANDLERS`` for instructions that touch only registers and
# flags.  Data-space accesses use the guarded templates below; any other
# body mnemonic (``lpm``) is a callout through its HANDLERS entry.
SOURCE_TEMPLATES: Dict[Mnemonic, Emitter] = {
    Mnemonic.NOP: _e_nop,
    Mnemonic.WDR: _e_nop,
    Mnemonic.MOV: _e_mov,
    Mnemonic.MOVW: _e_movw,
    Mnemonic.LDI: _e_ldi,
    Mnemonic.ADD: _e_add,
    Mnemonic.ADC: _e_adc,
    Mnemonic.SUB: _e_sub,
    Mnemonic.SBC: _e_sbc,
    Mnemonic.SUBI: _e_subi,
    Mnemonic.SBCI: _e_sbci,
    Mnemonic.AND: _e_and,
    Mnemonic.ANDI: _e_andi,
    Mnemonic.OR: _e_or,
    Mnemonic.ORI: _e_ori,
    Mnemonic.EOR: _e_eor,
    Mnemonic.COM: _e_com,
    Mnemonic.NEG: _e_neg,
    Mnemonic.INC: _e_inc,
    Mnemonic.DEC: _e_dec,
    Mnemonic.SWAP: _e_swap,
    Mnemonic.LSR: _e_lsr,
    Mnemonic.ASR: _e_asr,
    Mnemonic.ROR: _e_ror,
    Mnemonic.ADIW: _e_adiw,
    Mnemonic.SBIW: _e_sbiw,
    Mnemonic.CP: _e_cp,
    Mnemonic.CPC: _e_cpc,
    Mnemonic.CPI: _e_cpi,
    Mnemonic.MUL: _e_mul,
    Mnemonic.MULS: _e_muls,
    Mnemonic.MULSU: _e_mulsu,
    Mnemonic.BST: _e_bst,
    Mnemonic.BLD: _e_bld,
    Mnemonic.BSET: _e_bset,
    Mnemonic.BCLR: _e_bclr,
}

# Template/handler drift would miscompile silently; fail at import like
# the HANDLERS completeness check does.
_orphans = [m for m in SOURCE_TEMPLATES if m not in HANDLERS]
if _orphans:  # pragma: no cover - import-time consistency check
    raise RuntimeError(f"source templates without handlers: {_orphans}")


# -- guarded data-space access ----------------------------------------------
#
# A body accesses the data space as a plain byte of ``buf`` only when
# ``DataSpace.read``/``write`` would do exactly that: the address is not a
# register or SREG (those alias the body's locals), lies inside the data
# space, and carries no hook (for a constant store: no hook but a sink).
# Constant addresses are screened when the body is generated and checked
# against the hook table at run time; dynamic ones (the stack,
# ``ld``/``ldd`` pointers) must lie in ``[_LO, _HI)``, which also keeps
# SPL/SPH out of the bytes a stack access touches.  When a guard fails
# the body leaves through :meth:`_Gen.guard`: dirty locals written back,
# exact counters, the method the handler calls, and a return after that
# one instruction.

_LO = EXT_IO_BASE
_HI = DATA_SPACE_SIZE
_SP = f"buf[{SPL_DATA}] | (buf[{SPH_DATA}] << 8)"


def _outside(expr: str, low: int = _LO, high: int = _HI) -> str:
    return f"{expr} < {low} or {expr} >= {high}"


def _store_constant(g: _Gen, address: int, value: str) -> None:
    """The byte ``value`` stored to a constant ``address`` (sts, out).

    Only the hooked path tests for a sink (a list in the hook table): its
    store appends the byte and the body runs on, since a sink reads no
    counter and requests no interrupt.  Any other hook leaves the body.
    """
    wh = g.hooks("write")
    g.raw(f"if {address} in {wh}:")
    g.raw(f"    _s = {wh}[{address}]")
    g.guard("_s.__class__ is not list", f"cpu.data.write({address}, {value})",
            indent="    ")
    g.raw(f"    _s.append({value})")
    g.raw(f"buf[{address}] = {value}")


def _g_sts(g: _Gen, insn: Instruction, handler: Handler) -> None:
    _store_constant(g, insn.k, g.reg(insn.rr))


def _g_out(g: _Gen, insn: Instruction, handler: Handler) -> None:
    # never SREG: `out SREG` ends blocks
    _store_constant(g, insn.a + IO_TO_DATA_OFFSET, g.reg(insn.rr))


def _g_push(g: _Gen, insn: Instruction, handler: Handler) -> None:
    value = g.reg(insn.rr)
    wh = g.hooks("write")
    g.raw(f"_a = {_SP}")
    g.guard(f"{_outside('_a')} or _a in {wh}", f"cpu.push_byte({value})")
    g.raw(f"buf[_a] = {value}")
    g.raw("_a -= 1")
    g.raw(f"buf[{SPL_DATA}] = _a & 255")
    g.raw(f"buf[{SPH_DATA}] = _a >> 8")


def _g_pop(g: _Gen, insn: Instruction, handler: Handler) -> None:
    rh = g.hooks("read")
    g.raw(f"_a = ({_SP}) + 1")
    g.guard(f"{_outside('_a')} or _a in {rh}", f"buf[{insn.rd}] = cpu.pop_byte()")
    g.raw(f"buf[{SPL_DATA}] = _a & 255")
    g.raw(f"buf[{SPH_DATA}] = _a >> 8")
    g.assign(insn.rd, "buf[_a]")


def _load_constant(g: _Gen, insn: Instruction, address: int) -> None:
    """``rd`` = the data byte at a constant ``address`` (lds, in)."""
    if address == SREG_DATA:  # SREG never reaches a hook
        g.flush()
        g.assign(insn.rd, "s.byte")
        return
    source = g.reg(address) if address < REGISTER_FILE_SIZE else f"buf[{address}]"
    rh = g.hooks("read")
    g.guard(f"{address} in {rh}", f"buf[{insn.rd}] = cpu.data.read({address})")
    g.assign(insn.rd, source)


def _g_lds(g: _Gen, insn: Instruction, handler: Handler) -> None:
    if insn.k >= DATA_SPACE_SIZE:
        g.callout(handler, insn)  # always faults, exactly as the handler
    else:
        _load_constant(g, insn, insn.k)


def _g_in(g: _Gen, insn: Instruction, handler: Handler) -> None:
    _load_constant(g, insn, insn.a + IO_TO_DATA_OFFSET)


def _g_ld(g: _Gen, insn: Instruction, handler: Handler) -> None:
    """``ld``/``ldd`` through X, Y or Z, pointer updates included."""
    pointer, pre_dec, post_inc, disp = POINTER_MODES[insn.mnemonic]
    address = f"{g.reg(pointer)} | ({g.reg(pointer + 1)} << 8)"
    if disp and insn.q:
        address = f"(({address}) + {insn.q}) & 65535"
    elif pre_dec:
        address = f"(({address}) - 1) & 65535"
    g.raw(f"_a = {address}")
    rh = g.hooks("read")
    g.guard(f"{_outside('_a')} or _a in {rh}", g.handler_call(handler, insn))
    # the handler's write order: pre-decremented pointer, the loaded
    # register, post-incremented pointer (a later write wins an overlap)
    if pre_dec:
        g.assign(pointer, "_a & 255")
        g.assign(pointer + 1, "_a >> 8")
    g.assign(insn.rd, "buf[_a]")
    if post_inc:
        g.assign(pointer, "(_a + 1) & 255")
        g.assign(pointer + 1, "(_a + 1) >> 8")


GUARDED_TEMPLATES: Dict[Mnemonic, Callable[[_Gen, Instruction, Handler], None]] = {
    Mnemonic.STS: _g_sts,
    Mnemonic.OUT: _g_out,
    Mnemonic.PUSH: _g_push,
    Mnemonic.POP: _g_pop,
    Mnemonic.LDS: _g_lds,
    Mnemonic.IN: _g_in,
    **{m: _g_ld for m in POINTER_MODES if m.value.startswith("ld")},
}


# ``call``/``rcall``/``ret`` terminators move their 3-byte frame in line
# when every byte passes the stack guard (``_a`` holds SP), and otherwise
# run the very core method their handler calls, at exact counters.


def _call_frame(g: _Gen, target: str, fall_through: int):
    """``(guard failure, slow, fast)`` source of a return-address push
    followed by ``cpu.pc = target``."""
    wh = g.hooks("write")
    ret = _pc_at(fall_through)
    fail = (
        f"{_outside('_a', _LO + 2)} or _a in {wh} or _a - 1 in {wh} "
        f"or _a - 2 in {wh}"
    )
    slow = [f"cpu.push_return_address({ret})", f"cpu.pc = {target}"]
    fast = [
        f"_r = {ret}",
        "buf[_a] = _r & 255",
        "buf[_a - 1] = (_r >> 8) & 255",
        "buf[_a - 2] = (_r >> 16) & 255",
        "_a -= 3",
        f"buf[{SPL_DATA}] = _a & 255",
        f"buf[{SPH_DATA}] = _a >> 8",
        f"cpu.pc = {target}",
    ]
    return fail, slow, fast


def _ret_frame(g: _Gen):
    """``(guard failure, slow, fast)`` source of a return-address pop into
    ``cpu.pc``."""
    rh = g.hooks("read")
    fail = (
        f"{_outside('_a', _LO - 1, _HI - 3)} or _a + 1 in {rh} "
        f"or _a + 2 in {rh} or _a + 3 in {rh}"
    )
    slow = ["cpu.pc = cpu.pop_return_address()"]
    fast = [
        "_a += 3",
        f"buf[{SPL_DATA}] = _a & 255",
        f"buf[{SPH_DATA}] = _a >> 8",
        "cpu.pc = (buf[_a - 2] << 16) | (buf[_a - 1] << 8) | buf[_a]",
    ]
    return fail, slow, fast


# Terminators folded inline (final PC and accounting become constants).
_INLINE_TERMINATORS = frozenset(
    {
        Mnemonic.RJMP,
        Mnemonic.JMP,
        Mnemonic.IJMP,
        Mnemonic.BRBS,
        Mnemonic.BRBC,
        Mnemonic.SLEEP,
    }
)

# Terminators whose absolute target the body takes as its ``tgt``
# argument, so the body cache key leaves the target out.
TARGET_ARGUMENT = frozenset({Mnemonic.CALL, Mnemonic.JMP})


def _terminator_flag_rw(insn: Instruction) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    mnemonic = insn.mnemonic
    if mnemonic is Mnemonic.BRBS or mnemonic is Mnemonic.BRBC:
        return frozenset(_FLAG_ATTR[insn.b]), frozenset()
    if mnemonic is Mnemonic.BSET and insn.b == _SREG_I_BIT:
        return frozenset(), frozenset("i")
    if mnemonic in _INLINE_TERMINATORS:
        return frozenset(), frozenset()
    # handler-call terminator (or a fusion-stopped pseudo-terminator):
    # conservatively reads everything — all dirty state flushes first.
    return _ALL_FLAGS, frozenset()


def _pc_at(offset: int) -> str:
    """Source for the word address ``offset`` words from the block head."""
    if offset == 0:
        return "pc"
    return f"pc + {offset}" if offset > 0 else f"pc - {-offset}"


def compile_superblock(block: Superblock):
    """Generate, compile and exec one position-independent block body.

    Returns ``(fn, source)``.  ``fn(cpu, buf, s, pc, tgt)`` performs the
    retire sequence for the block entered at word address ``pc``, with
    ``buf`` the core's data-space bytes, ``s`` its SREG and ``tgt`` the
    absolute target of a ``call``/``jmp`` terminator (unused otherwise),
    and returns the number of instructions it retired: ``block.count``,
    or ``j + 1`` when a guard fails at body slot ``j``.  PC, cycles and
    ``instructions_retired`` are exact on every return.  Callout faults
    surface as :class:`CompiledBodyFault` for the engine to translate.

    Every PC the body writes is ``pc`` plus a constant, ``tgt``, or read
    from the machine, so the source depends only on the block's bytes
    (the ``call``/``jmp`` target aside): one body serves the same bytes
    at any address, on any core, in any layout.
    """
    body = block.body
    meta = block.body_meta
    terminator = block.last_insn
    count = block.count
    fall_through = block.words

    # Backward flag-liveness: start from "everything live" (the next
    # block reads anything), through the terminator, then the body.
    # Callouts and guarded slots may leave or expose the machine, so
    # every flag is live before them.
    term_reads, term_writes = _terminator_flag_rw(terminator)
    live = (_ALL_FLAGS - term_writes) | term_reads
    live_sets: List[FrozenSet[str]] = [frozenset()] * len(body)
    for j in range(len(body) - 1, -1, -1):
        insn = body[j][1]
        if insn.mnemonic not in SOURCE_TEMPLATES:
            live_sets[j] = _ALL_FLAGS
            live = _ALL_FLAGS
        else:
            reads, writes = _flag_rw(insn)
            live_sets[j] = live
            live = (live - writes) | reads

    g = _Gen()
    for j, (handler, insn) in enumerate(body):
        mnemonic = insn.mnemonic
        next_offset, _, cycles_before = meta[j]
        g.slot = (j, next_offset, cycles_before, CYCLES_BY_MNEMONIC[mnemonic])
        emitter = SOURCE_TEMPLATES.get(mnemonic)
        if emitter is not None:
            slot_live = live_sets[j]
            if "s" in slot_live:
                slot_live = slot_live | frozenset("nv")
            emitter(g, insn, slot_live)
            continue
        guarded = GUARDED_TEMPLATES.get(mnemonic)
        if guarded is not None:
            guarded(g, insn, handler)
        else:
            g.callout(handler, insn)

    g.flush()
    mnemonic = terminator.mnemonic
    total_cycles = block.body_cycles + block.last_base_cycles
    g.slot = (count - 1, fall_through, block.body_cycles, block.last_base_cycles)
    inline_term = (
        mnemonic in _INLINE_TERMINATORS
        or (mnemonic is Mnemonic.BSET and terminator.b == _SREG_I_BIT)
    )
    done = [
        f"cpu.cycles += {total_cycles}",
        f"cpu.instructions_retired += {count}",
        f"return {count}",
    ]
    if inline_term:
        if mnemonic is Mnemonic.RJMP:
            g.raw(f"cpu.pc = {_pc_at(fall_through + terminator.k)}")
        elif mnemonic is Mnemonic.JMP:
            g.raw("cpu.pc = tgt")
        elif mnemonic is Mnemonic.IJMP:
            g.raw("cpu.pc = buf[30] | (buf[31] << 8)")
        elif mnemonic is Mnemonic.BRBS or mnemonic is Mnemonic.BRBC:
            cond = f"s.{_FLAG_ATTR[terminator.b]}"
            if mnemonic is Mnemonic.BRBC:
                cond = "not " + cond
            g.raw(f"if {cond}:")
            g.raw(f"    cpu.pc = {_pc_at(fall_through + terminator.k)}")
            g.raw(f"    cpu.cycles += {total_cycles + 1}")  # taken: +1 cycle
            g.raw(f"    cpu.instructions_retired += {count}")
            g.raw(f"    return {count}")
            g.raw(f"cpu.pc = {_pc_at(fall_through)}")
        else:  # SLEEP (modeled as nop) or BSET of I (sei)
            if mnemonic is Mnemonic.BSET:
                g.raw("s.i = True")
            g.raw(f"cpu.pc = {_pc_at(fall_through)}")
        g.lines.extend(done)
    elif mnemonic in (Mnemonic.CALL, Mnemonic.RCALL, Mnemonic.RET):
        if mnemonic is Mnemonic.RET:
            fail, slow, fast = _ret_frame(g)
        else:
            target = (
                "tgt" if mnemonic is Mnemonic.CALL
                else _pc_at(fall_through + terminator.k)
            )
            fail, slow, fast = _call_frame(g, target, fall_through)
        g.raw(f"_a = {_SP}")
        g.raw(f"if {fail}:")
        for line in g.exit_lines(slow):
            g.raw("    " + line)
        g.lines.extend(fast + done)
    else:
        g.ns["_ht"] = block.last_handler
        g.ns["_it"] = terminator
        g.lines.extend(g.exit_lines(["_ht(cpu, _it)"]))

    out: List[str] = ["def _sb(cpu, buf, s, pc, tgt):"]
    if g.needs_try:
        out.append("    try:")
        out.extend("        " + line for line in g.lines)
        out.append("    except _MAE as exc:")
        out.append("        raise _CBF(_fi, exc) from exc")
    else:
        out.extend("    " + line for line in g.lines)
    source = "\n".join(out) + "\n"
    ns = g.ns
    exec(compile(source, "<superblock>", "exec"), ns)
    return ns["_sb"], source


# -- process-wide caches ----------------------------------------------------


class SharedCache:
    """A bounded LRU mapping shared by every engine in the process."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._items: "OrderedDict[object, object]" = OrderedDict()

    def get(self, key):
        value = self._items.get(key)
        if value is not None:
            self._items.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        items = self._items
        items[key] = value
        if len(items) > self.limit:
            items.popitem(last=False)

    def clear(self) -> None:
        """Forget everything (tests that count compiles start cold)."""
        self._items.clear()

    def __len__(self) -> int:
        return len(self._items)


def _index_slot(raw: bytearray, at: int) -> int:
    """The :class:`BlockIndex` slot of the head at byte ``at``: its first
    word, masked to its opcode (``0x940E``/``0x940C``) for a
    ``call``/``jmp``, whose first word holds target bits."""
    word = raw[at] | raw[at + 1] << 8
    return word & 0xFE0E if word & 0xFE0C == 0x940C else word


class BlockIndex:
    """Store keys of naturally ended hot blocks, found by a byte probe.

    A head's hot-block extent ends *naturally* when an instruction with
    the hot-tier flag ends it or it reaches :data:`FUSE_CAP`; such an
    extent is a pure function of its bytes, wherever they lie.  So a head
    whose flash bytes start with a natural block's bytes, with room for
    them below the image limit and the end of flash, has that block's
    extent and store key, and finding it decodes nothing.  An extent cut
    by the image limit, by an undecodable later word or by the end of
    flash depends on where it lies, and is never indexed.

    Entries are grouped by the block's first word; a ``call``/``jmp``
    first word is masked to its opcode (``& 0xFE0E``), so every target
    shares one slot.  For a ``call``/``jmp`` terminator the probe is the
    bytes before it, and the word after them must mask to the
    terminator's opcode.  At most one entry matches a head: natural
    extents are prefix-free, since if one natural block's bytes were a
    proper prefix of another's, the longer block's walk would have
    stopped where the shorter one ends.

    Bounded by its number of keys; an index that fills up starts over.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        # first word -> [(probe, length, masked terminator word or 0, key)]
        self._slots: Dict[int, List[tuple]] = {}
        self._keys = 0

    def find(self, raw: bytearray, at: int, end: int):
        """The store key of the natural block whose bytes start at byte
        ``at`` of ``raw`` and end at or before byte ``end``, or ``None``."""
        if at + 2 > end:
            return None
        for probe, length, tail, key in self._slots.get(_index_slot(raw, at), ()):
            if at + length <= end and raw.startswith(probe, at):
                if tail:
                    at_tail = at + length - 4
                    if (raw[at_tail] | raw[at_tail + 1] << 8) & 0xFE0E != tail:
                        continue
                return key
        return None

    def add(self, raw: bytearray, at: int, key) -> None:
        """Index ``key``, the store key of the natural block at byte ``at``
        of ``raw``."""
        if type(key) is tuple:  # (bytes before the call/jmp, its mnemonic)
            probe = key[0]
            length = len(probe) + 4
            at_tail = at + len(probe)
            tail = (raw[at_tail] | raw[at_tail + 1] << 8) & 0xFE0E
        else:
            probe = key
            length = len(key)
            tail = 0
        slot = _index_slot(raw, at)
        if any(entry[3] == key for entry in self._slots.get(slot, ())):
            return  # indexed, but out of reach at this head
        if self._keys >= self.limit:
            self.clear()
        self._slots.setdefault(slot, []).append((probe, length, tail, key))
        self._keys += 1

    def clear(self) -> None:
        """Forget everything (tests that count walks start cold)."""
        self._slots.clear()
        self._keys = 0

    def __len__(self) -> int:
        return self._keys


class BlockRecord:
    """What the process knows about one block's bytes: how often a block
    head holding them was entered on the cold tier (summed over every
    engine, generation and address), its fused block and, once warm, its
    compiled body."""

    __slots__ = ("count", "block", "body")

    def __init__(self) -> None:
        self.count = 0
        self.block: Optional[Superblock] = None
        self.body = None


# Block records by block bytes (a warm one holds a ~2 KB body).  A testapp
# campaign shares a few hundred across every layout, plus a few dozen per
# layout whose bytes hold a moved address (mostly ``ldi`` immediates);
# the LRU keeps the shared ones while layouts that never recur age out.
BLOCK_STORE = SharedCache(1024)
# Store keys of natural blocks by their first word, as many keys as the
# store holds records; a key the store has evicted gets a fresh record,
# as it would after a walk.
BLOCK_INDEX = BlockIndex(1024)
# Decoded entries by ``word | next_word << 16``.  A whole ArduPlane image
# has ~4,200 distinct ones, so the bound holds any image's working set; a
# hit does no bookkeeping, and a memo that fills up starts over.
DECODE_MEMO: Dict[int, Decoded] = {}
_DECODE_MEMO_LIMIT = 8192


def _decode_entry(word: int, next_word: int, byte_addr: int) -> Decoded:
    """A fresh decode entry for one instruction's bytes (a memo miss).

    ``next_word`` is only read for a two-word opcode.  An undecodable
    word raises the interpreter's :class:`IllegalExecutionError`.
    """
    try:
        insn = decode(word, next_word, byte_addr)
    except DecodeError as exc:
        raise IllegalExecutionError(
            f"undecodable opcode 0x{word:04x} at 0x{byte_addr:05x}"
        ) from exc
    mnemonic = insn.mnemonic
    if is_terminator(insn):
        ends = True
    else:
        ends = SYNC if mnemonic in READ_CAPABLE else False
    return (
        HANDLERS[mnemonic],
        insn,
        insn.size_words,
        CYCLES_BY_MNEMONIC[mnemonic],
        ends,
        ends_hot_block(insn),
    )


# -- the engine ---------------------------------------------------------------


class CompiledEngine:
    """The fast engine: cold per-instruction tier plus compiled hot tier."""

    name = "compiled"

    # A block head binds to its compiled body once the record of its bytes
    # has counted this many cold-tier entries (in any generation, layout,
    # board or core); until then it retires per instruction.
    WARM_THRESHOLD = 8

    def __init__(self, cpu) -> None:
        # weak: the core owns its engine, so a dropped board is freed by
        # reference counting rather than by the cyclic collector; the
        # decode path reads the flash through a strong reference of its own
        self._cpu = weakref.ref(cpu)
        self._flash = cpu.flash
        self._generation: Optional[int] = None
        # per-generation state, cleared together on every flash write
        self._cache: Dict[int, Decoded] = {}  # word address -> decode entry
        self._records: Dict[int, BlockRecord] = {}  # head -> its bytes' record
        # head -> (body, count, block, target, profile run counts or None)
        self._hot: Dict[int, tuple] = {}
        # the image limit the head records were cut at (blocks never cross it)
        self._limit: Optional[int] = None
        # telemetry accumulators, sampled pull-style at snapshot time.
        # Decode misses count every trip through ``_entry_at`` (a word
        # not yet decoded in this generation, or one that fails to
        # decode); cache hits are derived at snapshot time as
        # ``instructions_retired - decode_misses``.
        self.rebuilds = 0  # decode-cache resets, one per flash generation
        self.decode_misses = 0
        self.blocks_built = 0  # blocks fused (block-store records without one)
        self.fusion_lengths: List[int] = []  # append-only build log
        self.blocks_entered = 0  # block heads retired on the cold tier
        self.compiled_built = 0  # bodies compiled (block-store records without one)
        self.compiled_entered = 0  # hot-tier body executions
        self.compile_times_ms: List[float] = []  # append-only build log
        # Block-granularity profiling sink (see repro.avr.profile): when
        # set, a mutable mapping from ``(head, Superblock)`` to a list of
        # run counts indexed by instructions retired.  A hot binding
        # carries its head's list, so the run loop counts a body run with
        # one list increment — no lookup, no Python call.  While it is
        # set, cold heads are fused (never compiled) so their retirements
        # are attributed too.
        self.profile_hook = None
        self._bound_profile = None  # the sink the hot bindings count into

    @property
    def cpu(self):
        return self._cpu()

    # -- per-generation state -----------------------------------------------

    def _sync_cache(self) -> None:
        """Drop every per-generation structure if flash changed.

        Each is cleared in place: a reflash allocates nothing, and the
        run loops' locals stay bound to them.
        """
        flash = self._flash
        if flash.generation != self._generation:
            self._cache.clear()
            self._records.clear()
            self._hot.clear()
            self._generation = flash.generation
            self.rebuilds += 1

    def _sync_limit(self) -> Optional[int]:
        """Drop head records and hot bindings if the image limit moved
        under them."""
        limit = self.cpu.code_limit
        if limit != self._limit:
            self._records.clear()
            self._hot.clear()
            self._limit = limit
        return limit

    def _entry_at(self, pc: int) -> Decoded:
        """Decode the word at ``pc`` as :meth:`AvrCpu.fetch` would and
        cache the entry for this generation.

        Both words are read straight from the flash bytes; the last flash
        word and anything outside flash go through
        ``FlashMemory.read_word``, so its range errors reach the caller
        exactly as the interpreter raises them.
        """
        self.decode_misses += 1
        flash = self._flash
        at = pc * 2
        next_word = 0
        if 0 <= at < flash.size - 3:
            raw = flash._bytes
            word = raw[at] | raw[at + 1] << 8
            if needs_second_word(word):
                next_word = raw[at + 2] | raw[at + 3] << 8
        else:
            try:
                word = flash.read_word(pc)
                if needs_second_word(word):
                    next_word = flash.read_word(pc + 1)
            except MemoryAccessError as exc:
                raise IllegalExecutionError(str(exc)) from exc
        key = word | next_word << 16
        entry = DECODE_MEMO.get(key)
        if entry is None:
            entry = _decode_entry(word, next_word, at)
            if len(DECODE_MEMO) >= _DECODE_MEMO_LIMIT:
                DECODE_MEMO.clear()
            DECODE_MEMO[key] = entry
        self._cache[pc] = entry
        return entry

    def _fetch(self, pc: int) -> Decoded:
        """One decode entry, through the per-generation cache."""
        return self._cache.get(pc) or self._entry_at(pc)

    def fetch_entry(self, cpu) -> Entry:
        """The entry at ``cpu``'s PC for :meth:`AvrCpu.step`."""
        pc = cpu.pc
        limit = cpu.code_limit
        if limit is not None and pc * 2 >= limit:
            raise _out_of_image_error(pc * 2, limit)
        self._sync_cache()
        return self._fetch(pc)[:4]

    # -- the block store and the hot tier -----------------------------------

    def _record(self, pc: int) -> BlockRecord:
        """The block-store record of the hot block at head ``pc``, found on
        the head's first entry in this generation and image limit.

        The key is the block's bytes, or, for a ``call``/``jmp``
        terminator, the bytes before it plus its mnemonic (the absolute
        target is the body's ``tgt`` argument, so a moved callee shares
        the record), read from the current flash.  :data:`BLOCK_INDEX`
        finds it by a byte probe; otherwise the head's hot-block extent
        is walked (:meth:`_walk`).  Callers have run :meth:`_sync_limit`.
        """
        flash = self._flash
        limit = self._limit
        end = flash.size if limit is None or limit > flash.size else limit
        key = BLOCK_INDEX.find(flash._bytes, pc * 2, end)
        if key is None:
            key = self._walk(pc)
        record = BLOCK_STORE.get(key)
        if record is None:
            record = BlockRecord()
            BLOCK_STORE.put(key, record)
        self._records[pc] = record
        return record

    def _walk(self, pc: int):
        """The store key of the hot block at head ``pc``, from its extent
        walked through the decode cache; a naturally ended extent is
        indexed.  The first word's decode errors propagate."""
        entries = extent(pc, self._fetch, self._limit)
        words = 0
        for entry in entries:
            words += entry[2]
        last = entries[-1]
        mnemonic = last[1].mnemonic
        if mnemonic in TARGET_ARGUMENT:
            key = (self._flash.dump(pc * 2, (words - 2) * 2), mnemonic)
        else:
            key = self._flash.dump(pc * 2, words * 2)
        if last[5] or len(entries) == FUSE_CAP:
            BLOCK_INDEX.add(self._flash._bytes, pc * 2, key)
        return key

    def _block(self, pc: int, record: BlockRecord) -> Superblock:
        """The record's fused block, fused at head ``pc`` if it has none
        (a block is fused once per bytes, not once per head)."""
        block = record.block
        if block is None:
            block = record.block = fuse(pc, self._fetch, self._limit)
            self.blocks_built += 1
            self.fusion_lengths.append(block.count)
        return block

    def _bind(self, pc: int, record: BlockRecord) -> None:
        """Bind head ``pc`` to its record's body, compiling it if the
        record has none; a ``call``/``jmp`` target comes from this
        generation's decode of the terminator."""
        block = self._block(pc, record)
        body = record.body
        if body is None:
            start = time.perf_counter()
            body, _source = compile_superblock(block)
            self.compile_times_ms.append((time.perf_counter() - start) * 1000.0)
            self.compiled_built += 1
            record.body = body
        target = None
        if block.last_insn.mnemonic in TARGET_ARGUMENT:
            target = self._fetch(pc + (block.last_offset >> 1))[1].k
        runs = None
        if self._bound_profile is not None:
            runs = self._profile_runs(pc, block)
        self._hot[pc] = (body, block.count, block, target, runs)

    def _profile_runs(self, pc: int, block: Superblock) -> List[int]:
        """The profiling sink's run counts of ``block`` at head ``pc``."""
        profile = self._bound_profile
        runs = profile.get((pc, block))
        if runs is None:
            runs = profile[(pc, block)] = [0] * (block.count + 1)
        return runs

    def _raise_compiled_fault(
        self, pc: int, block: Superblock, fault: CompiledBodyFault
    ):
        """Translate a fault in the body bound at head ``pc`` into the
        exact per-instruction CpuFault.

        The slot comes from the body's ``_fi`` index, never from object
        identity: the decode memo shares ``Instruction`` objects, so two
        identical slots in one block are the same object.  ``_fi = j``
        marks an in-line callout at slot ``j`` whose counters are still
        deferred; ``_fi = -1 - j`` marks slot ``j`` (the terminator is
        slot ``count - 1``) run at exact counters, as guard-failure exits
        and terminators run.
        """
        cpu = self.cpu
        exc = fault.exc
        if fault.index < 0:
            slot = -1 - fault.index
            if slot < len(block.body):
                offset = block.body_meta[slot][1]
            else:
                offset = block.last_offset
            raise CpuFault(str(exc), pc * 2 + offset, cpu.cycles) from exc
        next_offset, offset, cycles_before = block.body_meta[fault.index]
        cpu.pc = pc + next_offset
        cpu.cycles += cycles_before
        cpu.instructions_retired += fault.index
        raise CpuFault(str(exc), pc * 2 + offset, cpu.cycles) from exc

    # -- execution ------------------------------------------------------------

    def _run_hooked(self, max_instructions: int) -> int:
        """Exact per-instruction retirement with trace hooks firing.

        The full retire preamble runs before every instruction, so hook
        streams and ``run_lockstep`` parity hold by construction.
        """
        cpu = self.cpu
        flash = cpu.flash
        self._sync_cache()
        cache_get = self._cache.get
        entry_at = self._entry_at
        hooks = cpu.trace_hooks
        executed = 0
        while not cpu.halted and executed < max_instructions:
            pc = retire_preamble(cpu)
            if flash.generation != self._generation:
                self._sync_cache()
            entry = cache_get(pc) or entry_at(pc)
            handler, insn, size_words, base_cycles, _, _ = entry
            cpu.pc = pc + size_words
            try:
                handler(cpu, insn)
            except Halt:
                cpu.halted = True
            except MemoryAccessError as exc:
                raise CpuFault(str(exc), pc * 2, cpu.cycles) from exc
            cpu.cycles += base_cycles
            cpu.instructions_retired += 1
            executed += 1
            pc_bytes = pc * 2
            for hook in hooks:
                hook(cpu, pc_bytes, insn)
        return executed

    def run(self, max_instructions: int) -> int:
        """Retire up to ``max_instructions``, one block head at a time.

        The retire preamble is inlined (not called through
        :func:`retire_preamble`) because at compiled-block speed the call
        itself is a measurable fraction of the per-block budget; the
        sequence is statement-for-statement the same.
        """
        cpu = self.cpu
        flash = cpu.flash
        sreg = cpu.sreg
        buf = cpu.data._bytes
        self._sync_cache()
        generation = self._generation
        fused_limit = self._sync_limit()
        cache_get = self._cache.get
        records_get = self._records.get
        hot_get = self._hot.get
        entry_at = self._entry_at
        threshold = self.WARM_THRESHOLD
        profile = self.profile_hook
        if profile is not self._bound_profile:
            # bindings count body runs into the sink they were bound under
            self._hot.clear()
            self._bound_profile = profile
        remaining = max_instructions
        entered = 0
        cold_runs = 0
        try:
            while remaining > 0 and not cpu.halted:
                if cpu.trace_hooks:
                    # exact-latency fallback: a trace/lockstep hook is watching
                    return max_instructions - remaining + self._run_hooked(remaining)
                # retire preamble, inlined
                if cpu.pending_interrupts and sreg.i:
                    cpu._service_interrupt()
                pc = cpu.pc
                if flash.generation != generation:
                    self._sync_cache()
                    generation = self._generation
                hot = hot_get(pc)
                limit = cpu.code_limit
                if hot is not None and limit == fused_limit:
                    # fused inside this very image limit, which implies the
                    # preamble's limit check
                    body, count, block, target, runs = hot
                    if count <= remaining:
                        try:
                            retired = body(cpu, buf, sreg, pc, target)
                        except Halt:  # `break` terminator, at exact counters
                            cpu.halted = True
                            cpu.cycles += block.last_base_cycles
                            cpu.instructions_retired += 1
                            retired = count
                        except CompiledBodyFault as fault:
                            self._raise_compiled_fault(pc, block, fault)
                        remaining -= retired
                        entered += 1
                        if runs is not None:
                            runs[retired] += 1
                        continue
                    record = records_get(pc)  # bound, so recorded
                else:
                    if limit is not None and pc * 2 >= limit:
                        raise _out_of_image_error(pc * 2, limit)
                    if limit != fused_limit:
                        fused_limit = self._sync_limit()
                    record = records_get(pc) or self._record(pc)
                    record.count += 1
                    if record.count >= threshold:
                        # re-dispatch: the preamble is idempotent, and the
                        # bound body runs through the hot path above
                        self._bind(pc, record)
                        continue

                # Cold tier (or a budget tail shorter than the hot block):
                # retire per instruction up to the next terminator.  Inside
                # the run nothing can make an interrupt serviceable or
                # change flash (only terminators can), so PC, cycles and
                # the retire count are written back only before a load
                # that can reach a read hook (restarting the run's
                # accumulators), before the run's last instruction, or
                # when something raises.
                stop = remaining if remaining < FUSE_CAP else FUSE_CAP
                block = None
                if profile is not None:
                    # a cold run retires a prefix of the head's hot block
                    head = pc
                    block = self._block(pc, record)
                    if block.count < stop:
                        stop = block.count
                retired = 0  # the run's length so far
                settled = 0  # of which already added to instructions_retired
                cycles = 0  # not yet added to cpu.cycles
                while True:
                    entry = cache_get(pc)
                    if entry is None:
                        try:
                            entry = entry_at(pc)
                        except Exception:
                            cpu.pc = pc
                            cpu.cycles += cycles
                            cpu.instructions_retired += retired - settled
                            raise
                    handler, insn, size, base, ends, _ = entry
                    retired += 1
                    if ends:
                        if ends != SYNC or retired == stop:
                            break
                        cpu.pc = pc + size
                        cpu.cycles += cycles
                        cpu.instructions_retired += retired - 1 - settled
                        settled = retired - 1
                        cycles = 0
                    elif retired == stop:
                        break
                    try:
                        handler(cpu, insn)
                    except MemoryAccessError as exc:
                        cpu.pc = pc + size
                        cpu.cycles += cycles
                        cpu.instructions_retired += retired - 1 - settled
                        raise CpuFault(str(exc), pc * 2, cpu.cycles) from exc
                    cycles += base
                    pc += size
                    if limit is not None and pc * 2 >= limit:
                        cpu.pc = pc
                        cpu.cycles += cycles
                        cpu.instructions_retired += retired - settled
                        raise _out_of_image_error(pc * 2, limit)
                # the run's last instruction sees exact counters
                cpu.pc = pc + size
                cpu.cycles += cycles
                cpu.instructions_retired += retired - 1 - settled
                try:
                    handler(cpu, insn)
                except Halt:
                    cpu.halted = True
                except MemoryAccessError as exc:
                    raise CpuFault(str(exc), pc * 2, cpu.cycles) from exc
                cpu.cycles += base
                cpu.instructions_retired += 1
                remaining -= retired
                cold_runs += 1
                if block is not None:
                    self._profile_runs(head, block)[retired] += 1
        finally:
            self.compiled_entered += entered
            self.blocks_entered += cold_runs
        return max_instructions - remaining
