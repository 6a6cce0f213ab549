"""Function-block randomization (paper §V-B2).

The master processor reads the function list in ascending address order
and shuffles a copy to create a map of old addresses to new addresses.
Function blocks keep their sizes; only their order within ``.text``
changes, so the shuffled layout is a permutation of the original tiling.

Every layout is a :class:`Permutation`: this packed shuffle, the padded
scatter of :mod:`repro.core.padding`, and either of them over a DAEDALUS
sub-block re-tiling.  One patcher (:func:`repro.core.patching.patch_image`)
applies any of them.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import List, NamedTuple, Optional

from ..binfmt.image import FirmwareImage
from ..binfmt.symtab import Symbol, SymbolKind, SymbolTable
from ..errors import DefenseError


class BlockMove(NamedTuple):
    """One function block's relocation."""

    name: str
    old_address: int
    new_address: int
    size: int


@dataclass
class Permutation:
    """The full shuffle: per-block moves plus lookup helpers."""

    moves: List[BlockMove]

    def __post_init__(self) -> None:
        self._old_sorted: List[BlockMove] = sorted(
            self.moves, key=attrgetter("old_address")
        )
        self._old_starts: List[int] = [m.old_address for m in self._old_sorted]

    def new_address_of(self, old_byte_address: int) -> Optional[int]:
        """Translate any old .text byte address to its new location.

        Binary search for the containing block (the paper's trampoline
        handling: "the largest old symbol address that is less than or
        equal to the targeted address"), then apply the block offset.
        """
        position = bisect_right(self._old_starts, old_byte_address) - 1
        if position < 0:
            return None
        best = self._old_sorted[position]
        offset = old_byte_address - best.old_address
        if offset >= best.size:
            return None
        return best.new_address + offset

    @property
    def new_end(self) -> int:
        """One past the highest byte any block lands on."""
        return max((m.new_address + m.size for m in self.moves), default=0)

    def move_for(self, name: str) -> BlockMove:
        for move in self.moves:
            if move.name == name:
                return move
        raise DefenseError(f"no move recorded for function {name}")

    @property
    def identity_fraction(self) -> float:
        """Share of blocks that landed at their old address."""
        if not self.moves:
            return 1.0
        same = sum(1 for m in self.moves if m.old_address == m.new_address)
        return same / len(self.moves)


def generate_permutation(
    image: FirmwareImage, rng: Optional[random.Random] = None
) -> Permutation:
    """Shuffle the image's function order into a new layout."""
    rng = rng if rng is not None else random.Random()
    order = image.symbols.functions()
    if not order:
        raise DefenseError("image has no function symbols to shuffle")
    rng.shuffle(order)
    moves: List[BlockMove] = []
    cursor = image.text_start
    for symbol in order:
        moves.append(BlockMove(symbol.name, symbol.address, cursor, symbol.size))
        cursor += symbol.size
    if cursor != image.text_end:
        raise DefenseError(
            f"shuffled blocks cover [{image.text_start:#x}, {cursor:#x}), "
            f"expected to end at {image.text_end:#x}"
        )
    return Permutation(moves)


def shuffled_symbol_table(image: FirmwareImage, permutation: Permutation) -> SymbolTable:
    """Symbol table describing the randomized layout (any layout)."""
    func = SymbolKind.FUNC
    functions = [
        Symbol(move.name, move.new_address, move.size, func)
        for move in permutation.moves
    ]
    return SymbolTable(functions + image.symbols.objects())


def permutation_count(function_count: int) -> int:
    """n! — the layouts an attacker must distinguish (§V-D)."""
    return math.factorial(function_count)


def layout_entropy_bits(function_count: int) -> float:
    """log2(n!) bits of layout entropy (§VIII-B)."""
    return math.lgamma(function_count + 1) / math.log(2)
