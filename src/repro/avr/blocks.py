"""Superblock fusion: the compiled engine's block builder.

The compiled engine (:mod:`repro.avr.compiled`) retires code in
*superblocks* — maximal straight-line runs starting at a block head —
and pays the per-instruction retire preamble (pending-interrupt check,
flash-generation compare, code-limit check) once per block instead of
once per instruction.  This module holds the fusion rules of its two
tiers, :func:`extent`, which walks the instructions of the hot block at
a head address, and :func:`fuse`, which turns them into a
:class:`Superblock`.

Cold-tier rule (:func:`is_terminator`; a run's last instruction is its
*terminator*):

* control flow (``rjmp``/``rcall``/``jmp``/``call``/``ijmp``/``icall``/
  ``ret``/``reti``, conditional branches, and the skip instructions
  ``cpse``/``sbic``/``sbis``/``sbrc``/``sbrs``) — the only handlers that
  read or write PC;
* anything that can reach a data-space **write hook** (``st*``/``sts``/
  ``std``, ``out``, ``sbi``, ``cbi``, ``push``) — write hooks are how
  peripherals timestamp events against ``cpu.cycles``, request
  interrupts, and how SPM-style self-writes reach flash, so the cold
  tier runs them only where its deferred counters are written back;
* ``sei`` (``bset`` of the I flag) — the one non-terminator way the
  global interrupt enable could turn on mid-block;
* ``break``/``sleep``; and
* a fixed fuse cap (:data:`FUSE_CAP`) as a backstop.

Hot-tier rule (:func:`ends_hot_block`, stored in each decode entry and
read by :func:`fuse`): the same, except that ``sts k``, ``out a`` and
``push`` fuse through.  A compiled body runs them as a plain byte store
behind a run-time guard that no hook sits on the address (and, for
``push``, that the byte lies in ``[0x60, 0x2200)``).  When the guard
fails, the body calls the handler's own method with exact counters and
leaves right after that instruction — unless an ``sts``/``out`` address
is a sink (``DataSpace.add_sink``), whose store appends the byte to the
sink's list and runs on.  What still ends a hot block:
``sts`` to a register (``k < 0x20``), to SREG (``0x5F``) or out of range
(``k >= 0x2200``); ``out`` to SREG; ``st*``/``std*``; ``sbi``/``cbi``;
control flow; ``sei``; ``break``/``sleep``; and :data:`FUSE_CAP`.

Interrupt-latency model: interrupts latch at any time but are serviced
only at block boundaries, which bounds service latency at ``FUSE_CAP``
instructions.  In practice the rules make the latency *exact*:
``(pending and SREG.I)`` cannot become true mid-block.  In a cold run,
every instruction that can set I or reach a write hook ends the run.  In
a hot block, every instruction that can set I ends the block, and an
instruction that reaches any data-space hook ends the body's execution
right after it at run time.  A sink store is no exception to the
argument: it never reads the cycle counters and never requests an
interrupt, so ``(pending and SREG.I)`` is as false after it as before.
So the next boundary is exactly where a per-instruction engine would
have serviced the interrupt.

Invariants:

* blocks are fused from the engine's per-generation decode entries and
  are **position-independent**: every PC a :class:`Superblock` holds is
  an offset from its head, so one fused block serves the same bytes at
  any address.  The engine keys them by those bytes (see
  :mod:`repro.avr.compiled`) and binds them per flash generation, so a
  MAVR reflash or SPM self-write drops every binding but no block;
* blocks are bound by their **entry word address**: jumping into the
  second word of a ``call`` (the misaligned-execution property the ROP
  gadget finder exploits) starts a *new* block fused from that address,
  never a reuse of the aligned one;
* a cold run from a head retires a prefix of the hot block fused at that
  head (the hot rule only ever fuses further).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..errors import IllegalExecutionError
from .engine import Handler
from .insn import CONTROL_FLOW, Instruction, Mnemonic
from .iospace import SREG_DATA, SREG_IO
from .memory import DATA_SPACE_SIZE, REGISTER_FILE_SIZE

# Fixed fusion cap: backstop for pathological straight-line runs, and the
# documented upper bound of the interrupt-service latency model.
FUSE_CAP = 32

_SREG_I_BIT = 7

# Every mnemonic whose handler can invoke a data-space *write* hook:
# stores (st/sts/std), I/O writes (out/sbi/cbi) and stack pushes (a push
# with a relocated SP — the stk_move gadget — can land on hooked I/O).
WRITE_CAPABLE = frozenset(
    {m for m in Mnemonic if m.value.startswith("st")}
    | {Mnemonic.OUT, Mnemonic.SBI, Mnemonic.CBI, Mnemonic.PUSH}
)

# Terminators by mnemonic alone; `bset I` terminates too but depends on
# the operand, so it is special-cased in :func:`is_terminator`.
TERMINATORS = frozenset(
    CONTROL_FLOW | WRITE_CAPABLE | {Mnemonic.BREAK, Mnemonic.SLEEP}
)

# Every mnemonic whose handler reads the data space through
# ``DataSpace.read`` and so can reach a read hook.  The cold tier writes
# its deferred counters back before running one.
READ_CAPABLE = frozenset(
    {m for m in Mnemonic if m.value.startswith("ld") and m is not Mnemonic.LDI}
    | {Mnemonic.IN, Mnemonic.POP}
)

# A third value of a decode entry's "ends" field: not a terminator, but a
# load the cold tier must run at exact counters.
SYNC = 2

# One decoded flash word as the compiled engine caches it: (handler,
# instruction, size in words, base cycle cost, ends a cold run — True,
# False, or :data:`SYNC` for a read-capable instruction — and ends a hot
# block, :func:`ends_hot_block`).  Both rules are evaluated once per
# distinct encoding, when the entry is built.
Decoded = Tuple[Handler, Instruction, int, int, int, bool]


def is_terminator(insn: Instruction) -> bool:
    """Whether ``insn`` ends a cold run (the cold-tier rule)."""
    mnemonic = insn.mnemonic
    return mnemonic in TERMINATORS or (
        mnemonic is Mnemonic.BSET and insn.b == _SREG_I_BIT
    )


def ends_hot_block(insn: Instruction) -> bool:
    """Whether ``insn`` ends a hot block (the hot-tier rule).

    ``sts`` and ``out`` fuse through unless their constant target is a
    register, SREG or out of range: those writes alias the body's
    register and flag locals, can set I, or always fault.  ``push``
    always fuses; its guard checks the dynamic address at run time.
    """
    mnemonic = insn.mnemonic
    if mnemonic is Mnemonic.STS:
        k = insn.k
        return k < REGISTER_FILE_SIZE or k == SREG_DATA or k >= DATA_SPACE_SIZE
    if mnemonic is Mnemonic.OUT:
        return insn.a == SREG_IO
    if mnemonic is Mnemonic.PUSH:
        return False
    return is_terminator(insn)


class Superblock:
    """One fused run of straight-line code, position-independent.

    ``body`` holds every instruction but the terminator as bare
    ``(handler, insn)`` pairs.  ``body_meta`` mirrors ``body`` with
    ``(next_offset, byte_offset, cycles_before)`` per slot: the word
    offset of the following instruction and the byte offset of the slot,
    both from the block head, and the cycles the slots before it cost.
    It drives the exact counters of a body's guard-failure exits,
    reconstructs exact per-instruction state when a body instruction
    faults, and gives the block profiler its per-PC weights; callers add
    the head's address.  The terminator is kept unpacked in ``last_*``
    fields because it always runs with PC set; ``words`` is the block's
    length in words (the terminator's fall-through offset).
    """

    __slots__ = (
        "body",
        "body_meta",
        "body_cycles",
        "last_handler",
        "last_insn",
        "last_offset",
        "last_base_cycles",
        "words",
        "count",
    )

    def __init__(self, entries: List[Decoded]) -> None:
        *leading, (last_handler, last_insn, last_size, last_base, _, _) = entries
        body = []
        meta = []
        offset = 0
        cycles = 0
        for handler, insn, size, base, _, _ in leading:
            body.append((handler, insn))
            meta.append((offset + size, offset * 2, cycles))
            offset += size
            cycles += base
        self.body = tuple(body)
        self.body_meta = tuple(meta)
        self.body_cycles = cycles
        self.last_handler = last_handler
        self.last_insn = last_insn
        self.last_offset = offset * 2
        self.last_base_cycles = last_base
        self.words = offset + last_size
        self.count = len(entries)


def extent(
    start_pc: int, fetch: Callable[[int], Decoded], limit: Optional[int]
) -> List[Decoded]:
    """The decode entries of the hot-tier block that begins at ``start_pc``.

    Fusion stops after the first instruction whose entry has the
    :func:`ends_hot_block` flag set, or at :data:`FUSE_CAP`.  ``fetch``
    returns the decoded entry at a word address.  The first entry's
    decode errors propagate — they are exactly what per-instruction
    execution would raise at this PC.  Errors on *later* words (an
    undecodable word, a PC past the end of flash, a two-word opcode in
    the last flash word), or reaching the image ``limit`` (bytes), just
    stop fusion: the offending address becomes its own block head and
    raises the identical error when the PC actually reaches it.
    """
    entry = fetch(start_pc)
    entries = [entry]
    pc = start_pc + entry[2]
    while not entry[5] and len(entries) < FUSE_CAP:
        if limit is not None and pc * 2 >= limit:
            break
        try:
            entry = fetch(pc)
        except IllegalExecutionError:
            break
        entries.append(entry)
        pc += entry[2]
    return entries


def fuse(
    start_pc: int, fetch: Callable[[int], Decoded], limit: Optional[int]
) -> Superblock:
    """Fuse the hot-tier superblock that begins at ``start_pc``
    (:func:`extent` gives its instructions)."""
    return Superblock(extent(start_pc, fetch, limit))
