"""The one patcher against the streaming oracle.

Production patches every layout from a relocation index; the oracle in
``streaming_patcher`` decodes every segment on every call.  For every
layout the repo generates — packed, the DAEDALUS split shuffled in
place, padded, split + padded — and for small moves that rewrite
relative sites, both must produce the same bytes or both must raise
:class:`PatchError`.  An image whose index is missing or was built from
other bytes gets one index built from its own bytes, once.
"""

import dataclasses
import functools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.asm.linker import MAVR_OPTIONS, STOCK_OPTIONS
from repro.avr.memory import FLASH_SIZE
from repro.binfmt.relocindex import build_relocation_index
from repro.core import patching
from repro.core.padding import generate_padded_permutation
from repro.core.patching import patch_image
from repro.core.randomize import BlockMove, Permutation, generate_permutation
from repro.core.splitting import split_image_blocks
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


def layout_permutation(image, layout: str, seed: int) -> Permutation:
    rng = random.Random(seed)
    if layout == "adjacent":
        return _swap_adjacent(image, rng)
    if layout.endswith("padded"):
        # the patcher does not care about the chip: a flash larger than
        # the real one gives ArduPlane room to scatter
        flash_size = max(FLASH_SIZE, 3 * len(image.code))
        return generate_padded_permutation(image, rng, flash_size=flash_size)
    return generate_permutation(image, rng)


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
