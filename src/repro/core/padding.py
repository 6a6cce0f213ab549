"""Padded randomization — the §VIII-B extension the paper considered.

"One approach considered to increase MAVR's entropy was to introduce
random padding between each function."  The authors measured 6567 bits
from pure shuffling and dropped the idea; this module implements it
anyway so the trade-off can be evaluated:

* function blocks are scattered over the *whole* free flash (everything
  between ``text_start`` and the data section, plus the region above the
  data section up to the flash size) with random gaps;
* gaps are filled with erased-flash bytes (0xFF), which do not decode —
  a wild control transfer landing in a gap faults immediately instead of
  sliding;
* the data section does not move, so data references stay valid.

The layout is just another :class:`~repro.core.randomize.Permutation`:
the one patcher (:func:`~repro.core.patching.patch_image`) grows the
image to the scatter's extent, erases the vacated ``.text`` and applies
the original image's relocation index — padding only appends erased
bytes, so that index still covers every site.

Costs: the image grows to the extent of the scatter (more bytes to
transfer at boot — a direct Table II hit), bounded by the 256 KB flash.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional, Tuple

from ..avr.memory import FLASH_SIZE
from ..binfmt.image import FirmwareImage
from ..errors import DefenseError
from .patching import ERASED, patch_image
from .randomize import (
    Permutation,
    layout_plan,
    place_blocks,
    shuffle_blocks,
    shuffled_symbol_table,
)


def generate_padded_permutation(
    image: FirmwareImage,
    rng: Optional[random.Random] = None,
    flash_size: int = FLASH_SIZE,
    alignment: int = 2,
) -> Permutation:
    """Scatter the function blocks over the free flash with random gaps.

    Blocks land, in shuffled order, into the region above the data
    section; the original ``.text`` span is left as one huge gap.  (Using
    only the high region keeps the implementation simple while maximizing
    gap entropy; there must be enough free flash above ``data_end``.)
    """
    rng = rng if rng is not None else random.Random()
    plan = layout_plan(image)
    total_code = sum(plan.sizes)
    free_start = _align_up(max(image.data_end, image.text_end), alignment)
    free_bytes = flash_size - free_start
    slack = free_bytes - total_code
    if slack <= 0:
        raise DefenseError(
            f"not enough free flash for padded randomization: need more "
            f"than {total_code} bytes above 0x{free_start:05x}, have {free_bytes}"
        )

    order = shuffle_blocks(plan, rng)
    # distribute the slack into n+1 random gaps (stars and bars)
    gap_units = slack // alignment
    cuts = sorted(rng.randint(0, gap_units) for _ in range(len(order)))
    gaps = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])]

    new_starts, end = place_blocks(
        plan, order, free_start, [gap * alignment for gap in gaps]
    )
    if end > flash_size:
        raise DefenseError("padded layout overflowed the flash (internal error)")
    return Permutation.from_plan(plan, order, new_starts, end)


def randomize_image_padded(
    image: FirmwareImage,
    rng: Optional[random.Random] = None,
    flash_size: int = FLASH_SIZE,
    fill: int = ERASED,
) -> Tuple[FirmwareImage, Permutation]:
    """Produce a padded-randomized image.

    The result's ``code`` extends to the highest placed block; the gaps
    and the old ``.text`` carry ``fill`` (0xFF = erased flash,
    undecodable).  ``text_end`` is widened to bracket the scattered
    blocks so gadget scans stay meaningful.
    """
    permutation = generate_padded_permutation(image, rng, flash_size)
    code = patch_image(image, permutation)
    if fill & 0xFF != ERASED:
        code = _repaint_gaps(code, image, permutation, fill & 0xFF)
    randomized = replace(
        image,
        code=code,
        symbols=shuffled_symbol_table(image, permutation),
        text_end=permutation.new_end,
        reloc_index=None,
    )
    return randomized, permutation


def _repaint_gaps(
    code: bytes, image: FirmwareImage, permutation: Permutation, fill: int
) -> bytes:
    """Replace the erased bytes the patcher left around the blocks."""
    painted = bytearray(code)
    gaps = [(image.text_start, image.text_end)]
    cursor = max(image.data_end, image.text_end)
    for start, end in sorted(
        (m.new_address, m.new_address + m.size) for m in permutation.moves
    ):
        gaps.append((cursor, start))
        cursor = end
    for start, end in gaps:
        painted[start:end] = bytes([fill]) * (end - start)
    return bytes(painted)


def padded_entropy_bits(image: FirmwareImage, flash_size: int = FLASH_SIZE,
                        alignment: int = 2) -> float:
    """Entropy of the padded layout: shuffle bits + gap-placement bits.

    Gap placement is a composition count: C(gap_units + n, n) ways to
    split the slack across n+1 gaps, on top of the n! orderings.
    """
    import math

    functions = image.symbols.functions()
    n = len(functions)
    total_code = sum(symbol.size for symbol in functions)
    free_start = _align_up(max(image.data_end, image.text_end), alignment)
    slack_units = max((flash_size - free_start - total_code) // alignment, 0)
    shuffle_bits = math.lgamma(n + 1) / math.log(2)
    placement_bits = (
        math.lgamma(slack_units + n + 1)
        - math.lgamma(n + 1)
        - math.lgamma(slack_units + 1)
    ) / math.log(2)
    return shuffle_bits + placement_bits


def _align_up(value: int, alignment: int) -> int:
    remainder = value % alignment
    return value if remainder == 0 else value + alignment - remainder
