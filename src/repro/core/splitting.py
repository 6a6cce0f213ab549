"""Sub-function block splitting (the DAEDALUS backend's granularity).

DAEDALUS-style diversity shuffles *basic blocks* rather than whole
functions.  On AVR the patcher constrains where a function may be cut:
a cut is only sound when no control transfer silently crosses it —

* the instruction before the cut must be an unconditional terminator
  (``ret``/``reti``/``jmp``/``rjmp``/``ijmp``) so execution never falls
  through the cut;
* that terminator must not itself be skippable (preceded by
  ``cpse``/``sbrc``/``sbrs``/``sbic``/``sbis``), which would re-create a
  fallthrough edge;
* no in-function *relative* transfer (``rcall``/``rjmp``/``brbs``/
  ``brbc``) may span the cut: relative displacements are only preserved
  when source and target move together, and conditional branches cannot
  be retargeted at all (7-bit range).

Cuts found under these rules keep every relative transfer inside its
sub-block, so the relocation index built at function granularity remains
valid: the code bytes are untouched (``RelocationIndex.matches`` keys on
the byte CRC), recorded cross-function sites are remapped through the
finer permutation exactly as before, and nothing new needs recording.
That is what lets the DAEDALUS backend re-diversify at sub-block
granularity through the same decode-free indexed fast path MAVR uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from ..avr.decoder import decode_at
from ..avr.insn import Mnemonic
from ..binfmt.image import FirmwareImage
from ..binfmt.symtab import Symbol, SymbolKind, SymbolTable
from ..errors import DecodeError

M = Mnemonic

#: instructions with no fallthrough edge: a cut after one is reachable
#: only through an explicit (patchable) control transfer
_TERMINATORS = frozenset({M.RET, M.RETI, M.JMP, M.RJMP, M.IJMP})

#: skip instructions: the next instruction has a conditional fallthrough
#: *around* it, so a terminator right after a skip does not end the block
_SKIPS = frozenset({M.CPSE, M.SBRC, M.SBRS, M.SBIC, M.SBIS})

#: pc-relative transfers whose displacement must not cross a cut
_RELATIVE = frozenset({M.RCALL, M.RJMP, M.BRBS, M.BRBC})


@dataclass(frozen=True)
class SplitReport:
    """How much finer the sub-block tiling is than the function tiling."""

    functions: int
    blocks: int
    cut_points: int

    @property
    def refinement(self) -> float:
        return self.blocks / self.functions if self.functions else 1.0


def function_cut_offsets(image: FirmwareImage, symbol: Symbol) -> List[int]:
    """Safe cut byte-offsets strictly inside ``symbol``, ascending.

    Returns ``[]`` when the function does not decode cleanly — an opaque
    block stays a single unit rather than failing the whole split.
    """
    start, end = symbol.address, symbol.end
    candidates: List[int] = []
    spans: List[tuple] = []
    previous = None
    offset = start
    try:
        while offset + 1 < end:
            insn, size = decode_at(image.code, offset)
            mnemonic = insn.mnemonic
            if mnemonic in _RELATIVE:
                target = offset + 2 + insn.k * 2
                if start <= target < end:
                    spans.append((offset, target))
            if mnemonic in _TERMINATORS and previous not in _SKIPS:
                cut = offset + size
                if start < cut < end:
                    candidates.append(cut)
            previous = mnemonic
            offset += size
    except DecodeError:
        return []
    return [
        cut
        for cut in candidates
        if not any((source < cut) != (target < cut) for source, target in spans)
    ]


def split_symbol_table(image: FirmwareImage) -> SymbolTable:
    """The sub-block tiling: every function split at its safe cuts.

    The first part keeps the function's name (the entry symbol must stay
    resolvable); later parts are ``name.1``, ``name.2``, …  Object
    symbols pass through untouched — data never moves.
    """
    table = SymbolTable()
    for symbol in image.symbols.functions():
        cuts = function_cut_offsets(image, symbol)
        bounds = [symbol.address] + cuts + [symbol.end]
        for part, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            name = symbol.name if part == 0 else f"{symbol.name}.{part}"
            table.add(Symbol(name, lo, hi - lo, SymbolKind.FUNC))
    for symbol in image.symbols.objects():
        table.add(symbol)
    return table


def split_image_blocks(image: FirmwareImage) -> FirmwareImage:
    """Copy of ``image`` re-tiled at sub-block granularity.

    The code bytes are identical, so the relocation index carries over
    (unlike :meth:`FirmwareImage.with_code`, which must drop it) and no
    later shuffle of the split has to rebuild it.
    """
    split = replace(image, symbols=split_symbol_table(image))
    split.validate()
    return split


def split_report(image: FirmwareImage) -> SplitReport:
    functions = image.function_count()
    blocks = split_symbol_table(image).functions()
    return SplitReport(
        functions=functions,
        blocks=len(blocks),
        cut_points=len(blocks) - functions,
    )
