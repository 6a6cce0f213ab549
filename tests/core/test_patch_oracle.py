"""The one patcher against the streaming oracle, and the layout plan
against the object model it replaces.

Production patches every layout from a relocation index; the oracle in
``streaming_patcher`` decodes every segment on every call.  For every
layout the repo generates — packed, the DAEDALUS split shuffled in
place, padded, split + padded — and for small moves that rewrite
relative sites, both must produce the same bytes or both must raise
:class:`PatchError`.  An image whose index is missing or was built from
other bytes gets one index built from its own bytes, once.

A drawn layout is a block order over the image's :class:`LayoutPlan`;
its moves, address map and symbol table are built on first read.  Each
must equal what shuffling the function symbols themselves and assigning
cursors builds, over the same drawn apps, layouts and seeds.
"""

import dataclasses
import functools
import pickle
import random
from bisect import bisect_right
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.asm.linker import MAVR_OPTIONS, STOCK_OPTIONS
from repro.avr.memory import FLASH_SIZE
from repro.binfmt.relocindex import build_relocation_index
from repro.core import patching
from repro.binfmt.symtab import Symbol, SymbolKind
from repro.core.padding import generate_padded_permutation, randomize_image_padded
from repro.core.patching import patch_image, randomize_image
from repro.core.randomize import (
    BlockMove,
    Permutation,
    generate_permutation,
    layout_plan,
    shuffled_symbol_table,
)
from repro.core.splitting import split_image_blocks, split_symbol_table
from repro.errors import PatchError
from repro.firmware import build_app, manifest_by_name

from .streaming_patcher import oracle_bytes

#: ``testapp-stock`` is the stock-toolchain build: the only image here
#: whose index holds relative sites (no MAVR build has any)
APPS = ("testapp", "arduplane", "testapp-stock")
LAYOUTS = ("packed", "split", "padded", "split+padded", "adjacent")


@functools.lru_cache(maxsize=None)
def image_for(app: str, split: bool):
    name, _, toolchain = app.partition("-")
    options = STOCK_OPTIONS if toolchain == "stock" else MAVR_OPTIONS
    image = build_app(manifest_by_name(name), options)
    return split_image_blocks(image) if split else image


def flash_size_for(image) -> int:
    # the patcher does not care about the chip: a flash larger than the
    # real one gives ArduPlane room to scatter
    return max(FLASH_SIZE, 3 * len(image.code))


def layout_permutation(image, layout: str, seed: int) -> Permutation:
    rng = random.Random(seed)
    if layout == "adjacent":
        return _swap_adjacent(image, rng)
    if layout.endswith("padded"):
        return generate_padded_permutation(
            image, rng, flash_size=flash_size_for(image)
        )
    return generate_permutation(image, rng)


def reference_moves(image, layout: str, seed: int):
    """The layout drawn by shuffling the function symbols themselves and
    assigning cursors: how the generators built moves before the plan."""
    rng = random.Random(seed)
    order = image.symbols.functions()
    cursor = image.text_start
    gaps = [0] * len(order)
    if layout.endswith("padded"):
        total = sum(symbol.size for symbol in order)
        cursor = max(image.data_end, image.text_end)
        cursor += cursor % 2
        slack = flash_size_for(image) - cursor - total
        rng.shuffle(order)
        cuts = sorted(rng.randint(0, slack // 2) for _ in range(len(order)))
        gaps = [2 * gap for gap in [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])]]
    else:
        rng.shuffle(order)
    moves = []
    for symbol, gap in zip(order, gaps):
        cursor += gap
        moves.append(BlockMove(symbol.name, symbol.address, cursor, symbol.size))
        cursor += symbol.size
    return moves


def reference_new_address(moves, address):
    ranked = sorted(moves, key=lambda move: move.old_address)
    position = bisect_right([move.old_address for move in ranked], address) - 1
    if position < 0 or address - ranked[position].old_address >= ranked[position].size:
        return None
    return ranked[position].new_address + address - ranked[position].old_address


def _swap_adjacent(image, rng: random.Random) -> Permutation:
    """Swap two adjacent blocks and leave the rest in place.

    Full shuffles push every relative site of the stock build out of
    range; swapping its block with a neighbour keeps it reachable but
    always changes its displacement.  The swapped block holds a drawn
    relative site when the image has any.
    """
    functions = image.functions()
    sites = patching._relocation_index(image).relative_sites
    if sites:
        anchor = rng.choice(sites).offset
        first = next(i for i, f in enumerate(functions) if f.end > anchor)
        first = max(first - rng.randrange(2), 0)
    else:
        first = rng.randrange(len(functions) - 1)
    first = min(first, len(functions) - 2)
    low, high = functions[first], functions[first + 1]
    moves = [BlockMove(f.name, f.address, f.address, f.size) for f in functions]
    moves[first] = BlockMove(low.name, low.address, low.address + high.size, low.size)
    moves[first + 1] = BlockMove(high.name, high.address, low.address, high.size)
    return Permutation(moves)


def outcome(patcher, image, permutation):
    try:
        return patcher(image, permutation)
    except PatchError:
        return PatchError


@settings(max_examples=20, deadline=None)
@given(
    app=st.sampled_from(APPS),
    layout=st.sampled_from(LAYOUTS),
    seed=st.integers(0, 2**32 - 1),
)
@example(app="arduplane", layout="packed", seed=1)
@example(app="arduplane", layout="split", seed=2)
@example(app="arduplane", layout="padded", seed=3)
@example(app="arduplane", layout="split+padded", seed=4)
@example(app="testapp", layout="split+padded", seed=5)
@example(app="testapp-stock", layout="adjacent", seed=6)
@example(app="testapp-stock", layout="adjacent", seed=7)
@example(app="testapp-stock", layout="packed", seed=8)
def test_patcher_matches_streaming_oracle(app, layout, seed):
    image = image_for(app, split=layout.startswith("split"))
    permutation = layout_permutation(image, layout, seed)
    produced = outcome(patch_image, image, permutation)
    assert produced == outcome(oracle_bytes, image, permutation)
    if app == "testapp-stock" and layout == "adjacent":
        assert produced is not PatchError  # a neighbour stays in range

        def position(address):
            moved = permutation.new_address_of(address)
            return address if moved is None else moved

        rewritten = [
            site for site in image.reloc_index.relative_sites
            if position(site.target) - position(site.offset)
            != site.target - site.offset
        ]
        assert rewritten


@pytest.mark.parametrize("carried", ["none", "foreign"])
def test_patcher_builds_one_index_per_image(testapp, carried):
    image = dataclasses.replace(testapp, reloc_index=None)
    if carried == "foreign":
        # an index built from other bytes: the stock build's
        image.reloc_index = build_relocation_index(
            image_for("testapp-stock", split=False)
        )
        assert not image.reloc_index.matches(image)
    builds = []
    real = patching.build_relocation_index

    def counting(target):
        builds.append(target)
        return real(target)

    with mock.patch.object(patching, "build_relocation_index", counting):
        for seed in range(3):
            permutation = generate_permutation(image, random.Random(seed))
            assert patch_image(image, permutation) == oracle_bytes(
                image, permutation
            )
    assert len(builds) == 1 and builds[0] is image
    assert image.reloc_index.matches(image)


@settings(max_examples=15, deadline=None)
@given(
    app=st.sampled_from(APPS),
    layout=st.sampled_from(LAYOUTS[:4]),
    seed=st.integers(0, 2**32 - 1),
)
@example(app="arduplane", layout="packed", seed=1)
@example(app="arduplane", layout="split+padded", seed=4)
def test_lazy_layout_views_match_the_object_model(app, layout, seed):
    image = image_for(app, split=layout.startswith("split"))
    permutation = layout_permutation(image, layout, seed)
    reference = reference_moves(image, layout, seed)
    # the address map, end and identity share come from the plan arrays,
    # read before anything builds the moves
    for move in reference:
        for address in (move.old_address, move.old_address + move.size - 1):
            assert permutation.new_address_of(address) == reference_new_address(
                reference, address
            )
    for outside in (image.text_start - 2, image.text_end):
        assert permutation.new_address_of(outside) is None
    assert permutation.new_end == max(m.new_address + m.size for m in reference)
    assert permutation.identity_fraction == sum(
        1 for m in reference if m.old_address == m.new_address
    ) / len(reference)
    table = shuffled_symbol_table(image, permutation)
    expected = [
        Symbol(m.name, m.new_address, m.size, SymbolKind.FUNC) for m in reference
    ] + image.symbols.objects()
    assert [(s.name, s.address, s.size, s.kind) for s in table] == [
        (s.name, s.address, s.size, s.kind) for s in expected
    ]
    assert permutation.moves == reference
    assert len(permutation) == len(reference)
    assert permutation.move_for(reference[-1].name) == reference[-1]


@settings(max_examples=6, deadline=None)
@given(
    # the stock build is never randomized whole: its relaxed calls do not reach
    app=st.sampled_from(APPS[:2]),
    split=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_materialized_image_validates(app, split, seed):
    image = image_for(app, split)
    randomized, permutation = randomize_image(image, random.Random(seed))
    randomized.validate()
    assert randomized.code == oracle_bytes(image, permutation)

    padded, scattered = randomize_image_padded(
        image, random.Random(seed), flash_size=flash_size_for(image)
    )
    # a padded layout cannot tile: what validate() checks apart from the
    # tiling holds, and the blocks sit in the flash without overlap
    spans = sorted((s.address, s.end) for s in padded.symbols.functions())
    assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:]))
    assert spans[-1][1] == scattered.new_end <= flash_size_for(image)
    for location in padded.funcptr_locations:
        target = padded.read_funcptr(location) * 2
        assert target < padded.text_start or padded.symbols.function_containing(target)


def test_lazy_permutation_and_image_survive_pickle():
    image = image_for("arduplane", split=False)
    randomized, permutation = randomize_image(image, random.Random(11))
    restored = pickle.loads(pickle.dumps(permutation))
    assert restored.moves == permutation.moves
    assert restored.new_end == permutation.new_end
    assert restored.identity_fraction == permutation.identity_fraction
    # a restored layout is a plain moves list: the patcher matches it to
    # the plan's blocks and draws the same bytes
    assert patch_image(image, restored) == randomized.code

    fresh, _ = randomize_image(image, random.Random(12))
    copy = pickle.loads(pickle.dumps(fresh))
    assert copy.code == fresh.code
    assert list(copy.symbols) == list(fresh.symbols)
    assert type(copy.symbols).__name__ == "SymbolTable"


def test_replaced_image_gets_a_fresh_plan(testapp):
    image = dataclasses.replace(testapp)
    plan = layout_plan(image)
    assert layout_plan(image) is plan
    permutation = generate_permutation(image, random.Random(3))

    resplit = dataclasses.replace(image, symbols=split_symbol_table(image))
    assert "_layout_plan" not in vars(resplit)
    assert layout_plan(resplit) is not plan
    assert len(layout_plan(resplit).starts) > len(plan.starts)
    # the layout was drawn over other blocks: never applied to these
    with pytest.raises(PatchError):
        patch_image(resplit, permutation)

    recoded = dataclasses.replace(image, code=bytes(bytearray(image.code)))
    assert layout_plan(recoded) is not plan
    assert patch_image(recoded, permutation) == oracle_bytes(recoded, permutation)

    # in-place replacement of the fields the plan was read from
    image.code = bytes(bytearray(image.code))
    assert layout_plan(image) is not plan
    image.funcptr_locations = image.funcptr_locations[:-1]
    stale = layout_plan(image)
    assert stale.funcptr_locations == image.funcptr_locations
