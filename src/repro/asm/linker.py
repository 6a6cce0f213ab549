"""Linker: IR program -> :class:`FirmwareImage`.

Implements the two toolchain behaviours the paper's defense had to fight
(§VI-B1):

* **Relaxation** (GNU ld ``--relax`` / disabled by ``--no-relax``): long
  ``call``/``jmp`` instructions are rewritten to ``rcall``/``rjmp`` when the
  target is within ±2K words.  Relaxed calls assume fixed function
  locations, so MAVR requires ``relax=False``.
* **Call prologues** (``-mcall-prologues``): functions saving many
  callee-saved registers share one ``__prologue_saves__`` /
  ``__epilogue_restores__`` block instead of inlining pushes/pops.  The
  shared block is itself a function symbol, so jumps into its middle
  exercise the binary-search offset patching path.

Layout::

    0x0000          interrupt vectors (57 x jmp, fixed)
    __init          startup stub: zero-reg, SP init, jmp main (fixed)
    .trampolines    one ``jmp`` stub per pointer-referenced function
                    (avr-gcc's mechanism for >128 KB parts: ``icall``
                    through a 16-bit Z can always reach a low stub, and
                    the stub's 22-bit ``jmp`` reaches anywhere)
    data_start ..   flash constants (incl. function-pointer tables) —
                    placed LOW so 16-bit ``lpm``/Z pointers reach them
    text_start ..   function blocks, each padded to ``align_functions``
    SRAM            zero-init variables allocated from SRAM_BASE

Function-pointer table slots store the *trampoline's* word address.  The
stubs are part of the fixed executable region, so the MAVR patcher's
instruction sweep retargets their ``jmp``s when functions move — the
pointer slots themselves never need rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..avr.insn import Instruction, Mnemonic
from ..avr.encoder import encode_bytes
from ..avr.iospace import SPH, SPL
from ..avr.memory import RAMEND, SRAM_BASE
from ..binfmt.image import FirmwareImage
from ..binfmt.symtab import DATA_SPACE_FLAG, Symbol, SymbolKind, SymbolTable
from ..errors import LinkError
from .ir import (
    AsmInsn,
    DataDef,
    DataKind,
    FunctionDef,
    Label,
    LabelRef,
    Program,
    RefKind,
    SymbolRef,
)

VECTOR_COUNT = 57  # ATmega2560
PROLOGUE_NAME = "__prologue_saves__"
EPILOGUE_NAME = "__epilogue_restores__"

# Canonical callee-saved set shared prologue/epilogue blocks handle.
CANONICAL_SAVES = tuple(range(2, 18)) + (28, 29)

# Functions saving at least this many registers use the shared blocks
# under -mcall-prologues.
PROLOGUE_THRESHOLD = 4


@dataclass(frozen=True)
class LinkOptions:
    """Toolchain knobs (paper §VI-B1)."""

    relax: bool = True
    call_prologues: bool = True
    align_functions: int = 4  # stock GCC pads function starts
    name: str = "firmware"

    @property
    def tag(self) -> str:
        flags = []
        flags.append("relax" if self.relax else "no-relax")
        flags.append(
            "mcall-prologues" if self.call_prologues else "mno-call-prologues"
        )
        return "+".join(flags)


STOCK_OPTIONS = LinkOptions(relax=True, call_prologues=True, align_functions=4)
MAVR_OPTIONS = LinkOptions(relax=False, call_prologues=False, align_functions=2)

#: the toolchain names specs and the CLI use (``--toolchain``): what the
#: attacker downloads (``stock``) and the build MAVR can randomize
TOOLCHAINS = {"stock": STOCK_OPTIONS, "mavr": MAVR_OPTIONS}


# ---------------------------------------------------------------------------
# ABI lowering: save_regs -> concrete prologue/epilogue items
# ---------------------------------------------------------------------------

def _lower_function(func: FunctionDef, options: LinkOptions) -> List:
    """Produce the final item list: prologue + body + epilogue + ret."""
    items: List = []
    use_shared = (
        options.call_prologues
        and not func.force_inline_epilogue
        and len(func.save_regs) >= PROLOGUE_THRESHOLD
    )
    if use_shared:
        body_label = "__body"
        items.append(
            AsmInsn(Mnemonic.LDI, rd=30, k=LabelRef(body_label, RefKind.LO8_WORD))
        )
        items.append(
            AsmInsn(Mnemonic.LDI, rd=31, k=LabelRef(body_label, RefKind.HI8_WORD))
        )
        items.append(AsmInsn(Mnemonic.JMP, k=SymbolRef(PROLOGUE_NAME)))
        items.append(Label(body_label))
        items.extend(func.items)
        items.append(AsmInsn(Mnemonic.JMP, k=SymbolRef(EPILOGUE_NAME)))
        return items
    for reg in func.save_regs:
        items.append(AsmInsn(Mnemonic.PUSH, rr=reg))
    items.extend(func.items)
    for reg in reversed(list(func.save_regs)):
        items.append(AsmInsn(Mnemonic.POP, rd=reg))
    items.append(AsmInsn(Mnemonic.RET))
    return items


def _shared_blocks() -> List[FunctionDef]:
    """Build __prologue_saves__ / __epilogue_restores__ as function blocks."""
    prologue_items: List = [
        AsmInsn(Mnemonic.PUSH, rr=reg) for reg in CANONICAL_SAVES
    ]
    prologue_items.append(AsmInsn(Mnemonic.IJMP))
    epilogue_items: List = [
        AsmInsn(Mnemonic.POP, rd=reg) for reg in reversed(CANONICAL_SAVES)
    ]
    epilogue_items.append(AsmInsn(Mnemonic.RET))
    # raw=True semantics: these items are already complete (no ret added)
    prologue = FunctionDef(PROLOGUE_NAME, prologue_items)
    epilogue = FunctionDef(EPILOGUE_NAME, epilogue_items)
    return [prologue, epilogue]


# ---------------------------------------------------------------------------
# The linker proper
# ---------------------------------------------------------------------------

@dataclass
class _Placed:
    """A function during layout: lowered items + evolving size/address."""

    func: FunctionDef
    items: List
    address: int = 0  # byte address
    size: int = 0  # bytes, including alignment padding
    # per-item long/short form for relaxable call/jmp: item index -> short?
    short_form: Dict[int, bool] = field(default_factory=dict)


def link(program: Program, options: LinkOptions = STOCK_OPTIONS) -> FirmwareImage:
    """Link ``program`` into a flash image under the given toolchain flags."""
    if not program.functions:
        raise LinkError("program has no functions")
    if options.align_functions not in (2, 4):
        raise LinkError(f"unsupported function alignment: {options.align_functions}")

    functions = list(program.functions)
    uses_shared = options.call_prologues and any(
        len(f.save_regs) >= PROLOGUE_THRESHOLD and not f.force_inline_epilogue
        for f in functions
    )
    if uses_shared:
        functions = _shared_blocks() + functions

    placed = [_Placed(f, _lower_function(f, options)) for f in functions]
    if uses_shared:
        # shared blocks are emitted verbatim (no extra ret/epilogue)
        placed[0].items = placed[0].func.items
        placed[1].items = placed[1].func.items

    # functions reachable through pointer tables get low trampoline stubs
    trampoline_names = _trampoline_targets(program)
    fixed_code, fixed_size, trampoline_words = _fixed_region_size(
        program.entry, trampoline_names
    )

    # flash data sits right after the fixed region so 16-bit pointers
    # (ldi lo8/hi8 + lpm) can always reach it
    data_start = fixed_size
    data_layout, data_bytes_size = _layout_flash_data(program, data_start)
    data_end = data_start + data_bytes_size
    text_start = data_end + (data_end % 2)  # word-align the code

    # SRAM (bss) allocation
    sram_layout: Dict[str, Tuple[int, int]] = {}
    sram_cursor = SRAM_BASE
    for data in program.data:
        if data.segment == "sram":
            size = data.size_bytes()
            sram_layout[data.name] = (sram_cursor, size)
            sram_cursor += size
    if sram_cursor >= RAMEND - 512:
        raise LinkError("SRAM exhausted by data objects")

    # iterative layout with relaxation (sizes only ever shrink)
    for p in placed:
        for index, item in enumerate(p.items):
            if _is_relaxable(item):
                p.short_form[index] = False
    _compute_layout(placed, text_start, options)
    symbol_words = _symbol_words(placed, program, sram_layout, data_layout)
    if options.relax:
        changed = True
        iterations = 0
        while changed:
            iterations += 1
            if iterations > 64:
                raise LinkError("relaxation did not converge")
            changed = _relax_pass(placed, symbol_words)
            _compute_layout(placed, text_start, options)
            symbol_words = _symbol_words(placed, program, sram_layout, data_layout)

    text_end = placed[-1].address + placed[-1].size if placed else text_start
    symbol_words = _symbol_words(placed, program, sram_layout, data_layout)

    # encode
    image = bytearray(b"\xff" * text_end)
    image[:fixed_size] = _encode_fixed_region(
        fixed_code, symbol_words, trampoline_names
    )
    for p in placed:
        blob = _encode_function(p, symbol_words)
        if len(blob) > p.size:
            raise LinkError(
                f"encoded size of {p.func.name} ({len(blob)}) exceeds layout ({p.size})"
            )
        blob = blob + b"\x00" * (p.size - len(blob))  # nop alignment padding
        image[p.address : p.address + p.size] = blob

    funcptr_locations: List[int] = []
    for data in program.data:
        if data.segment != "flash":
            continue
        base = data_layout[data.name]
        if data.kind is DataKind.BYTES:
            image[base : base + len(data.payload)] = data.payload  # type: ignore[arg-type]
        elif data.kind is DataKind.FUNCPTR_TABLE:
            for slot, func_name in enumerate(data.payload):  # type: ignore[union-attr]
                if func_name not in symbol_words:
                    raise LinkError(
                        f"funcptr table {data.name} references unknown {func_name}"
                    )
                # slots hold the low trampoline's word address, which
                # always fits 16 bits regardless of where the function is
                word = trampoline_words[func_name]
                location = base + slot * 2
                image[location] = word & 0xFF
                image[location + 1] = (word >> 8) & 0xFF
                funcptr_locations.append(location)
        elif data.kind is DataKind.SPACE:
            pass  # flash space stays erased (0xFF)

    symtab = SymbolTable()
    for p in placed:
        symtab.add(Symbol(p.func.name, p.address, p.size, SymbolKind.FUNC))
    for data in program.data:
        if data.segment == "flash":
            symtab.add(
                Symbol(
                    data.name,
                    data_layout[data.name],
                    data.size_bytes(),
                    SymbolKind.OBJECT,
                )
            )
        else:
            address, size = sram_layout[data.name]
            symtab.add(
                Symbol(data.name, DATA_SPACE_FLAG + address, size, SymbolKind.OBJECT)
            )

    firmware = FirmwareImage(
        code=bytes(image),
        symbols=symtab,
        text_start=text_start,
        text_end=text_end,
        data_start=data_start,
        data_end=data_end,
        entry_symbol=program.entry,
        funcptr_locations=funcptr_locations,
        name=options.name,
        toolchain_tag=options.tag,
    )
    firmware.validate()
    return firmware


# ---------------------------------------------------------------------------
# fixed region (vectors + __init)
# ---------------------------------------------------------------------------

def _fixed_region_items(entry: str = "main") -> List[AsmInsn]:
    """__init: zero register, stack pointer setup, jump to main."""
    return [
        AsmInsn(Mnemonic.EOR, rd=1, rr=1),  # GCC zero register convention
        AsmInsn(Mnemonic.OUT, a=0x3F, rr=1),  # clear SREG
        AsmInsn(Mnemonic.LDI, rd=28, k=RAMEND & 0xFF),
        AsmInsn(Mnemonic.LDI, rd=29, k=(RAMEND >> 8) & 0xFF),
        AsmInsn(Mnemonic.OUT, a=SPL, rr=28),
        AsmInsn(Mnemonic.OUT, a=SPH, rr=29),
        AsmInsn(Mnemonic.JMP, k=SymbolRef(entry)),
    ]


def _trampoline_targets(program: Program) -> List[str]:
    """Pointer-referenced function names, in first-appearance order."""
    seen: List[str] = []
    for data in program.data:
        if data.kind is DataKind.FUNCPTR_TABLE:
            for name in data.payload:  # type: ignore[union-attr]
                if name not in seen:
                    seen.append(name)
    return seen


def _fixed_region_size(
    entry: str = "main", trampoline_names: List[str] = ()
) -> Tuple[List[AsmInsn], int, Dict[str, int]]:
    """Layout of the fixed region; returns (init items, size, stub words)."""
    items = _fixed_region_items(entry)
    vectors_words = VECTOR_COUNT * 2
    init_words = sum(
        2 if item.mnemonic in (Mnemonic.JMP, Mnemonic.CALL) else 1 for item in items
    )
    trampoline_words: Dict[str, int] = {}
    cursor = vectors_words + init_words
    for name in trampoline_names:
        trampoline_words[name] = cursor
        cursor += 2  # one jmp stub
    return items, cursor * 2, trampoline_words


def _encode_fixed_region(
    init_items: List[AsmInsn],
    symbol_words: Dict[str, int],
    trampoline_names: List[str] = (),
) -> bytes:
    out = bytearray()
    init_word = VECTOR_COUNT * 2
    # vector 0 -> __init; all others -> __init as well (bad-interrupt reset)
    for _vector in range(VECTOR_COUNT):
        out += encode_bytes(Instruction(Mnemonic.JMP, k=init_word))
    for item in init_items:
        if isinstance(item.k, SymbolRef):
            target = symbol_words.get(item.k.name)
            if target is None:
                raise LinkError(f"__init references unknown symbol {item.k.name}")
            out += encode_bytes(item.concrete(target))
        else:
            out += encode_bytes(item.as_instruction())
    for name in trampoline_names:
        target = symbol_words.get(name)
        if target is None:
            raise LinkError(f"trampoline references unknown function {name}")
        out += encode_bytes(Instruction(Mnemonic.JMP, k=target))
    return bytes(out)


# ---------------------------------------------------------------------------
# layout helpers
# ---------------------------------------------------------------------------

def _is_relaxable(item) -> bool:
    return (
        isinstance(item, AsmInsn)
        and item.mnemonic in (Mnemonic.CALL, Mnemonic.JMP)
        and isinstance(item.k, (SymbolRef, LabelRef))
    )


def _item_size_words(item, short: bool) -> int:
    if isinstance(item, Label):
        return 0
    if item.mnemonic in (Mnemonic.CALL, Mnemonic.JMP):
        return 1 if short else 2
    return 1 if item.mnemonic not in (Mnemonic.LDS, Mnemonic.STS) else 2


def _compute_layout(placed: List[_Placed], text_start: int, options: LinkOptions) -> None:
    cursor = text_start
    for p in placed:
        words = 0
        for index, item in enumerate(p.items):
            words += _item_size_words(item, p.short_form.get(index, False))
        size = words * 2
        align = options.align_functions
        if size % align:
            size += align - (size % align)
        p.address = cursor
        p.size = size
        cursor += size


def _symbol_words(
    placed: List[_Placed],
    program: Program,
    sram_layout: Dict[str, Tuple[int, int]],
    data_layout: Optional[Dict[str, int]],
) -> Dict[str, int]:
    """Map every symbol to the value references need.

    Functions map to their flash *word* address.  SRAM objects map to their
    data-space byte address; flash data objects to their flash byte address.
    """
    table: Dict[str, int] = {}
    for p in placed:
        table[p.func.name] = p.address // 2
    for name, (address, _size) in sram_layout.items():
        table[name] = address
    if data_layout:
        for name, address in data_layout.items():
            table.setdefault(name, address)
    return table


def _layout_flash_data(program: Program, data_start: int) -> Tuple[Dict[str, int], int]:
    layout: Dict[str, int] = {}
    cursor = data_start
    for data in program.data:
        if data.segment != "flash":
            continue
        layout[data.name] = cursor
        cursor += data.size_bytes()
    return layout, cursor - data_start


def _relax_pass(placed: List[_Placed], symbol_words: Dict[str, int]) -> bool:
    """Shrink long call/jmp to rcall/rjmp where the target fits. One pass."""
    changed = False
    for p in placed:
        word_cursor = p.address // 2
        for index, item in enumerate(p.items):
            size = _item_size_words(item, p.short_form.get(index, False))
            if _is_relaxable(item) and not p.short_form.get(index, False):
                target = _resolve_word_target(item.k, p, symbol_words)
                if target is not None:
                    displacement = target - (word_cursor + 1)  # short form is 1 word
                    if -2048 <= displacement <= 2047:
                        p.short_form[index] = True
                        changed = True
            word_cursor += size
    return changed


def _local_label_words(p: _Placed) -> Dict[str, int]:
    table: Dict[str, int] = {}
    cursor = p.address // 2
    for index, item in enumerate(p.items):
        if isinstance(item, Label):
            table[item.name] = cursor
        else:
            cursor += _item_size_words(item, p.short_form.get(index, False))
    return table


def _resolve_word_target(ref, p: _Placed, symbol_words: Dict[str, int]) -> Optional[int]:
    if isinstance(ref, LabelRef):
        return _local_label_words(p).get(ref.name)
    if isinstance(ref, SymbolRef):
        base = symbol_words.get(ref.name)
        if base is None:
            return None
        return base + ref.addend
    return None


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def _encode_function(p: _Placed, symbol_words: Dict[str, int]) -> bytes:
    labels = _local_label_words(p)
    out = bytearray()
    word_cursor = p.address // 2
    for index, item in enumerate(p.items):
        if isinstance(item, Label):
            continue
        size = _item_size_words(item, p.short_form.get(index, False))
        insn = _materialize(item, p, index, word_cursor, size, labels, symbol_words)
        out += encode_bytes(insn)
        word_cursor += size
    return bytes(out)


def _materialize(
    item: AsmInsn,
    p: _Placed,
    index: int,
    word_cursor: int,
    size: int,
    labels: Dict[str, int],
    symbol_words: Dict[str, int],
) -> Instruction:
    mnem = item.mnemonic
    k = item.k
    if not isinstance(k, (SymbolRef, LabelRef)):
        return item.as_instruction()

    # resolve the raw value the reference points at
    if isinstance(k, LabelRef):
        if k.name not in labels:
            raise LinkError(f"{p.func.name}: undefined local label .{k.name}")
        value = labels[k.name]
        kind = k.kind
        addend = 0
    else:
        if k.name not in symbol_words:
            raise LinkError(f"{p.func.name}: undefined symbol {k.name}")
        value = symbol_words[k.name]
        kind = k.kind
        addend = k.addend

    if mnem in (Mnemonic.CALL, Mnemonic.JMP):
        target = value + addend
        if p.short_form.get(index, False):
            displacement = target - (word_cursor + 1)
            short = Mnemonic.RCALL if mnem is Mnemonic.CALL else Mnemonic.RJMP
            return Instruction(short, k=displacement)
        return Instruction(mnem, k=target)

    if mnem in (Mnemonic.RCALL, Mnemonic.RJMP):
        target = value + addend
        displacement = target - (word_cursor + 1)
        if not -2048 <= displacement <= 2047:
            raise LinkError(
                f"{p.func.name}: relative target {k} out of range "
                f"({displacement} words)"
            )
        return item.concrete(displacement)

    if mnem in (Mnemonic.BRBS, Mnemonic.BRBC):
        target = value + addend
        displacement = target - (word_cursor + 1)
        if not -64 <= displacement <= 63:
            raise LinkError(f"{p.func.name}: branch target {k} out of range")
        return item.concrete(displacement)

    if kind is RefKind.LO8:
        return item.concrete((value + addend) & 0xFF)
    if kind is RefKind.HI8:
        return item.concrete(((value + addend) >> 8) & 0xFF)
    if kind is RefKind.LO8_WORD:
        return item.concrete((value + addend) & 0xFF)
    if kind is RefKind.HI8_WORD:
        return item.concrete(((value + addend) >> 8) & 0xFF)
    if kind is RefKind.WORD and mnem in (Mnemonic.LDS, Mnemonic.STS):
        return item.concrete(value + addend)
    if kind is RefKind.WORD and mnem is Mnemonic.LDI:
        raise LinkError(
            f"{p.func.name}: ldi needs lo8()/hi8() around symbol {k}"
        )
    return item.concrete(value + addend)
