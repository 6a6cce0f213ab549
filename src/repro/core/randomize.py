"""Function-block randomization (paper §V-B2).

The master processor reads the function list in ascending address order
and shuffles a copy to create a map of old addresses to new addresses.
Function blocks keep their sizes; only their order within ``.text``
changes, so the shuffled layout is a permutation of the original tiling.

Every layout is a :class:`Permutation`: this packed shuffle, the padded
scatter of :mod:`repro.core.padding`, and either of them over a DAEDALUS
sub-block re-tiling.  One patcher (:func:`repro.core.patching.patch_image`)
applies any of them.

The per-image facts every layout shares — the blocks' names, starts and
sizes in address order, and where each patch site sits — form the
image's :class:`LayoutPlan`, built once.  A drawn layout is then a block
order plus the blocks' new starts; its :class:`BlockMove` list, address
map and symbol table are built only if something reads them.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import repeat
from operator import attrgetter, eq
from typing import Iterable, List, NamedTuple, Optional, Tuple

from ..binfmt.image import FirmwareImage
from ..binfmt.symtab import Symbol, SymbolKind, SymbolTable
from ..errors import DefenseError, PatchError


class BlockMove(NamedTuple):
    """One function block's relocation."""

    name: str
    old_address: int
    new_address: int
    size: int


class LayoutPlan:
    """What every layout of one image shares, computed once per image.

    ``names``, ``starts`` and ``sizes`` list the function blocks in
    address order; a block is named by its index into them.  ``sites``
    is filled by the patcher on first use with every patch site and
    function-pointer slot as (block, offset) pairs.  The plan is bound
    to the exact ``code`` and ``symbols`` objects it was read from
    (:meth:`built_from`), so it is never applied to anything else.
    """

    def __init__(self, image: FirmwareImage) -> None:
        self.code = image.code
        self.symbols = image.symbols
        self._symbol_count = len(image.symbols)
        self.bounds = _bounds(image)  # text start/end, data start/end
        self.funcptr_locations = list(image.funcptr_locations)
        functions = image.symbols.functions()
        self.names = [symbol.name for symbol in functions]
        self.starts = [symbol.address for symbol in functions]
        self.sizes = [symbol.size for symbol in functions]
        self.objects = image.symbols.objects()
        self.sites = None  # built by repro.core.patching on first patch

    def built_from(self, image: FirmwareImage) -> bool:
        """Was this plan read from ``image``'s current bytes and symbols?"""
        return (
            self.code is image.code
            and self.symbols is image.symbols
            and self._symbol_count == len(image.symbols)
            and self.bounds == _bounds(image)
            and self.funcptr_locations == image.funcptr_locations
        )

    def locate(self, address: int) -> Optional[Tuple[int, int]]:
        """(block, offset) of an old ``.text`` byte address, or None."""
        block = bisect_right(self.starts, address) - 1
        if block < 0:
            return None
        offset = address - self.starts[block]
        if offset >= self.sizes[block]:
            return None
        return block, offset


def _bounds(image: FirmwareImage) -> Tuple[int, int, int, int]:
    return image.text_start, image.text_end, image.data_start, image.data_end


def layout_plan(image: FirmwareImage) -> LayoutPlan:
    """The image's layout plan, built on first use and kept on the image.

    The plan rides on the image object (not as a field, so
    ``dataclasses.replace`` never copies it); a plan whose image had its
    code, symbols or bounds replaced since fails :meth:`LayoutPlan.
    built_from` and is rebuilt.
    """
    plan = image.__dict__.get("_layout_plan")
    if plan is None or not plan.built_from(image):
        plan = image._layout_plan = LayoutPlan(image)
    return plan


class Permutation:
    """One layout: where each function block of an image lands.

    ``Permutation(moves)`` takes the blocks as :class:`BlockMove`
    records.  The generators below build one from a :class:`LayoutPlan`
    instead — a block order plus each block's new start — and the moves,
    the address map and :attr:`identity_fraction` are built from those
    arrays only when first read.  Either kind pickles as its moves.
    """

    def __init__(self, moves: Iterable[BlockMove]) -> None:
        self._moves: Optional[List[BlockMove]] = list(moves)
        self._plan: Optional[LayoutPlan] = None
        self._order: Optional[List[int]] = None
        self._new_starts: Optional[List[int]] = None
        self._new_end: Optional[int] = None
        self._map: Optional[Tuple[List[int], List[int], List[int]]] = None

    @classmethod
    def from_plan(
        cls, plan: LayoutPlan, order: List[int], new_starts: List[int],
        new_end: int,
    ) -> "Permutation":
        """Blocks ``order`` (indices into ``plan``) placed at ``new_starts``
        (by block index), ending at ``new_end``."""
        permutation = cls(())
        permutation._moves = None
        permutation._plan = plan
        permutation._order = order
        permutation._new_starts = new_starts
        permutation._new_end = new_end
        return permutation

    def __len__(self) -> int:
        """Blocks the layout places."""
        return len(self._order if self._moves is None else self._moves)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.moves == other.moves

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return Permutation, (self.moves,)

    def __repr__(self) -> str:
        return f"Permutation(<{len(self)} blocks>)"

    @property
    def moves(self) -> List[BlockMove]:
        """Every block's move, in placement order."""
        if self._moves is None:
            plan, new_starts = self._plan, self._new_starts
            names, starts, sizes = plan.names, plan.starts, plan.sizes
            self._moves = [
                BlockMove(names[b], starts[b], new_starts[b], sizes[b])
                for b in self._order
            ]
        return self._moves

    def placed_on(self, plan: LayoutPlan) -> Tuple[List[int], List[int]]:
        """This layout over ``plan``'s blocks: the placement order and the
        new starts by block index.

        A layout drawn from ``plan`` is read as is.  Any other is matched
        to the plan's blocks by old address and size; it must place each
        of them exactly once.
        """
        if self._plan is plan:
            return self._order, self._new_starts
        moves = self.moves
        ranked = sorted(range(len(moves)), key=lambda i: moves[i].old_address)
        if [(moves[i].old_address, moves[i].size) for i in ranked] != list(
            zip(plan.starts, plan.sizes)
        ):
            raise PatchError(
                "the layout does not place exactly the image's "
                f"{len(plan.starts)} function blocks"
            )
        order = [0] * len(moves)
        new_starts = [0] * len(moves)
        for block, i in enumerate(ranked):
            order[i] = block
            new_starts[block] = moves[i].new_address
        return order, new_starts

    def _address_map(self) -> Tuple[List[int], List[int], List[int]]:
        """Old starts, new starts and sizes, in old address order."""
        if self._map is None:
            if self._moves is None:
                plan = self._plan
                self._map = (plan.starts, self._new_starts, plan.sizes)
            else:
                ranked = sorted(self._moves, key=attrgetter("old_address"))
                self._map = (
                    [m.old_address for m in ranked],
                    [m.new_address for m in ranked],
                    [m.size for m in ranked],
                )
        return self._map

    def new_address_of(self, old_byte_address: int) -> Optional[int]:
        """Translate any old .text byte address to its new location.

        Binary search for the containing block (the paper's trampoline
        handling: "the largest old symbol address that is less than or
        equal to the targeted address"), then apply the block offset.
        """
        old_starts, new_starts, sizes = self._address_map()
        position = bisect_right(old_starts, old_byte_address) - 1
        if position < 0:
            return None
        offset = old_byte_address - old_starts[position]
        if offset >= sizes[position]:
            return None
        return new_starts[position] + offset

    @property
    def new_end(self) -> int:
        """One past the highest byte any block lands on."""
        if self._new_end is None:
            self._new_end = max(
                (m.new_address + m.size for m in self._moves), default=0
            )
        return self._new_end

    def move_for(self, name: str) -> BlockMove:
        for move in self.moves:
            if move.name == name:
                return move
        raise DefenseError(f"no move recorded for function {name}")

    @property
    def identity_fraction(self) -> float:
        """Share of blocks that landed at their old address."""
        old_starts, new_starts, _sizes = self._address_map()
        if not old_starts:
            return 1.0
        return sum(map(eq, old_starts, new_starts)) / len(old_starts)


def shuffle_blocks(plan: LayoutPlan, rng: random.Random) -> List[int]:
    """The shuffled block order.

    ``random.shuffle``'s draws depend only on the list's length, so
    shuffling block indices draws the same layout as shuffling the
    function symbols themselves.
    """
    if not plan.starts:
        raise DefenseError("image has no function symbols to shuffle")
    order = list(range(len(plan.starts)))
    rng.shuffle(order)
    return order


def place_blocks(
    plan: LayoutPlan, order: List[int], cursor: int,
    gaps: Optional[Iterable[int]] = None,
) -> Tuple[List[int], int]:
    """Place the blocks of ``order`` from ``cursor`` on, each after its
    gap in bytes (none by default): new starts by block index, and the
    end of the last block."""
    sizes = plan.sizes
    new_starts = [0] * len(sizes)
    for block, gap in zip(order, repeat(0) if gaps is None else gaps):
        cursor += gap
        new_starts[block] = cursor
        cursor += sizes[block]
    return new_starts, cursor


def generate_permutation(
    image: FirmwareImage, rng: Optional[random.Random] = None
) -> Permutation:
    """Shuffle the image's function order into a new layout."""
    rng = rng if rng is not None else random.Random()
    plan = layout_plan(image)
    order = shuffle_blocks(plan, rng)
    new_starts, end = place_blocks(plan, order, image.text_start)
    if end != image.text_end:
        raise DefenseError(
            f"shuffled blocks cover [{image.text_start:#x}, {end:#x}), "
            f"expected to end at {image.text_end:#x}"
        )
    return Permutation.from_plan(plan, order, new_starts, end)


def shuffled_symbol_table(image: FirmwareImage, permutation: Permutation) -> SymbolTable:
    """Symbol table describing the randomized layout (any layout).

    Built on first read: the moved functions in placement order, then
    the image's data objects, which never move.
    """
    objects = layout_plan(image).objects

    def build() -> List[Symbol]:
        func = SymbolKind.FUNC
        return [
            Symbol(move.name, move.new_address, move.size, func)
            for move in permutation.moves
        ] + objects

    return SymbolTable.deferred(build)


def permutation_count(function_count: int) -> int:
    """n! — the layouts an attacker must distinguish (§V-D)."""
    return math.factorial(function_count)


def layout_entropy_bits(function_count: int) -> float:
    """log2(n!) bits of layout entropy (§VIII-B)."""
    return math.lgamma(function_count + 1) / math.log(2)
