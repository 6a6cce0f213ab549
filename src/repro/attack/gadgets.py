"""Gadget discovery and classification.

A *gadget* is a maximal run of decodable, fall-through instructions ending
in ``ret`` (the unit the paper counts — it reports 953 in its ArduPlane
test build).  On top of the raw inventory, the classifier recognizes the
two shapes the stealthy attack is built from:

* :class:`StkMoveGadget` (Fig. 4) — writes SPH/SPL from r29/r28
  (``out 0x3e``/``out 0x3d``), then pops and returns.  Moves the stack
  pointer anywhere.
* :class:`WriteMemGadget` (Fig. 5) — the *combination gadget*: stores
  r5/r6/r7 to ``Y+1..Y+3`` and then pops a long register chain including
  r29/r28 before returning.  Entered at the pop half it loads registers
  from attacker bytes; entered at the ``std`` half it writes memory.

Finding the gadgets is a byte sweep plus dictionary hits.  The sweep reads
only each first word's *kind* (plain, breaker, terminator or undecodable,
each with its size) from a 64 Ki-entry table per terminator set, filled a
word at a time, and lists each run's ``(first, ret)`` addresses without
building an instruction.  A run ends at its ``ret``, so its decode — and
both its shapes — depend on its bytes alone: :data:`GADGET_MEMO` keeps
the shapes of every run met in this process by those bytes, and a
re-randomized image's Fig. 4/5 lookups decode only runs never seen before.
The full inventory (:meth:`GadgetFinder.gadgets`) still decodes every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..avr.decoder import decode, decode_at, needs_second_word
from ..avr.insn import CONTROL_FLOW, Instruction, Mnemonic
from ..binfmt.image import FirmwareImage
from ..errors import DecodeError, GadgetNotFoundError

M = Mnemonic


@dataclass(frozen=True)
class Gadget:
    """One maximal fall-through run ending in ret."""

    address: int  # byte address of the first instruction
    instructions: Tuple[Tuple[int, Instruction], ...]  # (byte addr, insn)

    @property
    def ret_address(self) -> int:
        return self.instructions[-1][0]

    @property
    def length(self) -> int:
        return len(self.instructions)

    def mnemonics(self) -> List[Mnemonic]:
        return [insn.mnemonic for _addr, insn in self.instructions]


@dataclass(frozen=True)
class StkMoveGadget:
    """Fig. 4: SP <- r29:r28, then pops, then ret."""

    entry: int  # byte address of `out 0x3e, r29`
    pop_regs: Tuple[int, ...]  # registers popped before ret, in order

    @property
    def pop_bytes(self) -> int:
        return len(self.pop_regs)

    @property
    def entry_word(self) -> int:
        return self.entry // 2


@dataclass(frozen=True)
class WriteMemGadget:
    """Fig. 5: std Y+1..Y+q of r5..r7, then a long pop chain, then ret."""

    std_entry: int  # byte address of the first std (the "first half")
    pop_entry: int  # byte address of the first pop (the "second half")
    stores: Tuple[Tuple[int, int], ...]  # (Y displacement, source register)
    pop_regs: Tuple[int, ...]  # registers popped between stores and ret

    @property
    def pop_bytes(self) -> int:
        return len(self.pop_regs)

    def pop_index(self, reg: int) -> int:
        """Stack-byte index (from pop_entry) that loads ``reg``."""
        return self.pop_regs.index(reg)

    @property
    def std_entry_word(self) -> int:
        return self.std_entry // 2

    @property
    def pop_entry_word(self) -> int:
        return self.pop_entry // 2


class GadgetFinder:
    """Scans an image's executable region for gadgets.

    The sweep finds each run's ``(first, ret)`` byte addresses from word
    kinds alone; :meth:`gadgets` and :meth:`jop_gadgets` decode the runs
    they list, and the Fig. 4/5 lookups read :data:`GADGET_MEMO`.
    """

    def __init__(self, image: FirmwareImage) -> None:
        self.image = image
        self._spans: Optional[List[Tuple[int, int]]] = None
        self._jop_spans: Optional[List[Tuple[int, int]]] = None
        self._gadgets: Optional[List[Gadget]] = None
        self._jop_gadgets: Optional[List[Gadget]] = None

    def gadgets(self) -> List[Gadget]:
        """All maximal ret-gadgets in [0, text_end)."""
        if self._gadgets is None:
            self._gadgets = self._decode(self._ret_runs())
        return self._gadgets

    def count(self) -> int:
        """The number the paper's Table-style 'gadgets found' reports."""
        return len(self._ret_runs())

    def jop_gadgets(self) -> List[Gadget]:
        """Jump-oriented gadgets: maximal runs ending in ijmp/icall.

        The paper's related work (Bletsch et al.) dispatches through
        register-indirect jumps instead of rets; MAVR breaks these the
        same way since their addresses also move with the shuffle.
        """
        if self._jop_gadgets is None:
            self._jop_gadgets = self._decode(self._jop_runs())
        return self._jop_gadgets

    def jop_count(self) -> int:
        return len(self._jop_runs())

    def _ret_runs(self) -> List[Tuple[int, int]]:
        """Ret-runs of the executable ranges (fixed region + .text).

        The flash data section — wherever the linker put it — is skipped:
        constants are not instruction-fetchable on their own and the paper
        counts gadgets in executable code.
        """
        if self._spans is None:
            image = self.image
            fixed_end = min(image.text_start, image.data_start)
            self._spans = _sweep(image.code, 0, fixed_end, _RET_KINDS) + _sweep(
                image.code, image.text_start, image.text_end, _RET_KINDS
            )
        return self._spans

    def _jop_runs(self) -> List[Tuple[int, int]]:
        """Ijmp/icall-runs of ``.text`` only."""
        if self._jop_spans is None:
            image = self.image
            self._jop_spans = _sweep(
                image.code, image.text_start, image.text_end, _JOP_KINDS
            )
        return self._jop_spans

    def _decode(self, spans: List[Tuple[int, int]]) -> List[Gadget]:
        code = self.image.code
        return [
            Gadget(first, _decode_run(code, first, ret + 2)) for first, ret in spans
        ]

    # -- classification ---------------------------------------------------

    def _shapes(self) -> Iterator[Tuple[int, _Shapes]]:
        """``(first, shapes)`` of each ret-run, lowest address first."""
        code = self.image.code
        for first, ret in self._ret_runs():
            key = code[first : ret + 2]
            shapes = GADGET_MEMO.get(key)
            if shapes is None:
                shapes = _classify_bytes(key)
                if len(GADGET_MEMO) >= _GADGET_MEMO_LIMIT:
                    GADGET_MEMO.clear()
                GADGET_MEMO[key] = shapes
            yield first, shapes

    def stk_move_gadgets(self) -> List[StkMoveGadget]:
        """All gadgets containing the SPH/SPL write pattern."""
        return [
            _stk_move_at(first, stk)
            for first, (stk, _wm) in self._shapes()
            if stk is not None
        ]

    def write_mem_gadgets(self) -> List[WriteMemGadget]:
        """All combination store+pop gadgets usable for arbitrary writes."""
        return [
            _write_mem_at(first, wm)
            for first, (_stk, wm) in self._shapes()
            if wm is not None
        ]

    def find_stk_move(self) -> StkMoveGadget:
        for first, (stk, _wm) in self._shapes():
            if stk is not None:
                return _stk_move_at(first, stk)
        raise GadgetNotFoundError("no stk_move gadget in image")

    def find_write_mem(self, min_pops: int = 16) -> WriteMemGadget:
        for first, (_stk, wm) in self._shapes():
            if (
                wm is not None
                and wm.pop_bytes >= min_pops
                and {5, 6, 7} <= set(wm.pop_regs)
            ):
                return _write_mem_at(first, wm)
        raise GadgetNotFoundError(
            f"no write_mem gadget with >= {min_pops} pops covering r5..r7"
        )

    def histogram(self) -> Dict[int, int]:
        """Gadget-length histogram (for reporting)."""
        counts: Dict[int, int] = {}
        for gadget in self.gadgets():
            counts[gadget.length] = counts.get(gadget.length, 0) + 1
        return counts


# -- the sweep ---------------------------------------------------------------

# Word kinds, by first word; 0 marks a word not classified yet.  A
# breaker (control flow that does not end a run) and an undecodable word
# both reset the run and advance one word; the two-word kinds advance two.
_PLAIN, _TERMINATOR, _BREAKER, _UNDECODABLE, _PLAIN_LONG, _BREAKER_LONG = range(1, 7)

_RET_TERMINATORS = frozenset({M.RET})
_JOP_TERMINATORS = frozenset({M.IJMP, M.ICALL})
# one table per terminator set, each filled a word at a time as sweeps meet it
_RET_KINDS = (_RET_TERMINATORS, bytearray(65536))
_JOP_KINDS = (_JOP_TERMINATORS, bytearray(65536))


def _word_kind(word: int, kinds: Tuple[FrozenSet[Mnemonic], bytearray]) -> int:
    """Classify (and record) one first word for ``kinds``' terminators."""
    terminators, table = kinds
    long = needs_second_word(word)
    try:
        # a second word never changes a mnemonic, only its operand
        mnemonic = decode(word, 0 if long else None).mnemonic
    except DecodeError:
        kind = _UNDECODABLE
    else:
        if mnemonic in terminators:
            kind = _TERMINATOR
        elif mnemonic in CONTROL_FLOW:
            kind = _BREAKER_LONG if long else _BREAKER
        else:
            kind = _PLAIN_LONG if long else _PLAIN
    table[word] = kind
    return kind


def _sweep(
    code: bytes, start: int, end: int,
    kinds: Tuple[FrozenSet[Mnemonic], bytearray],
) -> List[Tuple[int, int]]:
    """``(first, ret)`` byte addresses of every maximal run in [start, end).

    A run is a stretch of decodable, fall-through instructions ending in
    one of ``kinds``' terminators; control flow and undecodable words
    reset it.  Only each first word's kind is read.  A two-word opcode
    may take its second word from past ``end``.  One whose second word
    lies past the code is undecodable, but no word can start after it in
    the code, so the sweep needs no check for it: skipping it whole ends
    the sweep just as resetting and stepping one word would.
    """
    table = kinds[1]
    end = min(end, len(code))
    spans: List[Tuple[int, int]] = []
    first = -1
    offset = start
    while offset + 1 < end:
        word = code[offset] | code[offset + 1] << 8
        kind = table[word] or _word_kind(word, kinds)
        if kind == _PLAIN:
            if first < 0:
                first = offset
            offset += 2
        elif kind == _TERMINATOR:
            spans.append((offset if first < 0 else first, offset))
            first = -1
            offset += 2
        elif kind < _PLAIN_LONG:
            first = -1
            offset += 2
        else:
            if kind == _BREAKER_LONG:
                first = -1
            elif first < 0:
                first = offset
            offset += 4
    return spans


def _decode_run(
    code: bytes, first: int, end: int
) -> Tuple[Tuple[int, Instruction], ...]:
    """The instructions of one swept run, ``[first, end)``."""
    run = []
    offset = first
    while offset < end:
        insn, size = decode_at(code, offset)
        run.append((offset, insn))
        offset += size
    return tuple(run)


# -- the shape memo ----------------------------------------------------------

# (stk_move, write_mem) of one ret-run, addresses relative to its first byte
_Shapes = Tuple[Optional[StkMoveGadget], Optional[WriteMemGadget]]

#: Fig. 4/5 shapes of every ret-run classified in this process, keyed by
#: the run's bytes ``code[first:ret + 2]``.  A run ends at its ``ret``, so
#: its decode depends on those bytes alone, wherever it sits in whatever
#: image; addresses are stored relative to ``first``.  testapp has 59
#: distinct runs across every MAVR, DAEDALUS and CToMP layout, ArduPlane
#: 916 and ArduCopter 1,029.  A hit does no bookkeeping, and a memo that
#: fills up starts over.
GADGET_MEMO: Dict[bytes, _Shapes] = {}
_GADGET_MEMO_LIMIT = 4096


def _classify_bytes(run: bytes) -> _Shapes:
    """Both shapes of the ret-run ``run``, at address 0 (a memo miss)."""
    gadget = Gadget(0, _decode_run(run, 0, len(run)))
    return _classify_stk_move(gadget), _classify_write_mem(gadget)


def _stk_move_at(first: int, stk: StkMoveGadget) -> StkMoveGadget:
    return StkMoveGadget(entry=first + stk.entry, pop_regs=stk.pop_regs)


def _write_mem_at(first: int, wm: WriteMemGadget) -> WriteMemGadget:
    return WriteMemGadget(
        std_entry=first + wm.std_entry,
        pop_entry=first + wm.pop_entry,
        stores=wm.stores,
        pop_regs=wm.pop_regs,
    )


def _classify_stk_move(gadget: Gadget) -> Optional[StkMoveGadget]:
    insns = gadget.instructions
    for index, (addr, insn) in enumerate(insns):
        if insn.mnemonic is M.OUT and insn.a == 0x3E:
            # look for the matching SPL write after it
            saw_spl = False
            pops: List[int] = []
            valid = True
            for _later_addr, later in insns[index + 1 : -1]:
                if later.mnemonic is M.OUT and later.a == 0x3D:
                    saw_spl = True
                elif later.mnemonic is M.POP:
                    pops.append(later.rd)
                elif later.mnemonic is M.OUT and later.a == 0x3F:
                    continue  # SREG restore, harmless
                else:
                    valid = False
                    break
            if saw_spl and valid:
                return StkMoveGadget(entry=addr, pop_regs=tuple(pops))
    return None


def _classify_write_mem(gadget: Gadget) -> Optional[WriteMemGadget]:
    insns = gadget.instructions
    stores: List[Tuple[int, int, int]] = []  # (addr, q, reg)
    for addr, insn in insns:
        if insn.mnemonic is M.STD_Y:
            stores.append((addr, insn.q or 0, insn.rr))
    if not stores:
        return None
    # pops strictly after the last store, up to ret
    last_store_addr = stores[-1][0]
    pops: List[int] = []
    pop_entry = None
    for addr, insn in insns:
        if addr <= last_store_addr:
            continue
        if insn.mnemonic is M.POP:
            if pop_entry is None:
                pop_entry = addr
            pops.append(insn.rd)
        elif insn.mnemonic is M.RET:
            break
        else:
            return None  # interleaved non-pop breaks the combination shape
    if pop_entry is None or not pops:
        return None
    # the combination gadget must reload Y and the stored registers
    stored_regs = {reg for _addr, _q, reg in stores}
    if not ({28, 29} <= set(pops) and stored_regs <= set(pops)):
        return None
    return WriteMemGadget(
        std_entry=stores[0][0],
        pop_entry=pop_entry,
        stores=tuple((q, reg) for _addr, q, reg in stores),
        pop_regs=tuple(pops),
    )
