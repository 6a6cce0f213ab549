"""Jump/call/pointer patching (paper §V-B3 / §VI-B3).

After the shuffle, every control-transfer target that referred to the old
layout must be fixed:

* absolute ``call``/``jmp`` — translate the target through the block map;
  targets that are not a function entry (switch-case trampolines, jumps
  into block interiors) are resolved with the binary search over old block
  addresses and an offset adjustment, exactly as the paper describes;
* relative ``rcall``/``rjmp`` — unchanged when target and instruction move
  together (same block); recomputed when they cross blocks, with a range
  check (this is why MAVR requires ``--no-relax``: a compiler-shortened
  cross-function call may not reach after a move);
* function pointers in the data section (vtables, call-routing tables) —
  their stored word addresses are rewritten in place.

One patcher applies every layout.  The instructions that need touching
are a property of the original image, recorded once in its
:class:`~repro.binfmt.relocindex.RelocationIndex` (the preprocessor's one
full-stream decode).  The first patch of an image places each recorded
site and each function-pointer slot in its block, as a (block, offset)
pair both for where it sits and for where it points, on the image's
:class:`~repro.core.randomize.LayoutPlan`.  Every re-randomization is
then block copies plus operand rewrites by block index — no instruction
decoding, no address search.
"""

from __future__ import annotations

import random
import struct
from typing import List, NamedTuple, Optional, Tuple

from ..avr.decoder import decode_at
from ..avr.insn import Mnemonic
from ..binfmt.image import FirmwareImage
from ..binfmt.relocindex import (
    KIND_CALL,
    KIND_JMP,
    KIND_RCALL,
    KIND_RJMP,
    PatchSite,
    RelocationIndex,
    build_relocation_index,
)
from ..errors import BinfmtError, DecodeError, EncodeError, PatchError
from .randomize import (
    LayoutPlan,
    Permutation,
    generate_permutation,
    layout_plan,
    shuffled_symbol_table,
)

M = Mnemonic

_ABSOLUTE = {M.CALL, M.JMP}

#: first-word opcode bits of each site kind; the operand is or-ed in
_OPCODE = {
    KIND_CALL: 0x940E, KIND_JMP: 0x940C, KIND_RCALL: 0xD000, KIND_RJMP: 0xC000,
}

#: erased flash: what a layout that grows the image fills its gaps with
ERASED = 0xFF

_WORD = struct.Struct("<H")
_TWO_WORDS = struct.Struct("<HH")


def randomize_image(
    image: FirmwareImage, rng: Optional[random.Random] = None
) -> Tuple[FirmwareImage, Permutation]:
    """Shuffle + patch: the master processor's whole software job.

    What :meth:`FirmwareImage.validate` would check of the result holds
    by construction: the shuffle tiles ``.text`` exactly
    (:class:`DefenseError` otherwise), and the image's plan puts every
    patch site and pointer target inside a block and every pointer slot
    inside the data region (:class:`PatchError`/:class:`BinfmtError`
    otherwise).  The symbol table is built on first read.
    """
    permutation = generate_permutation(image, rng)
    randomized = image.with_code(
        patch_image(image, permutation),
        symbols=shuffled_symbol_table(image, permutation),
    )
    return randomized, permutation


class PatchSites(NamedTuple):
    """Every rewrite a layout of one image needs, by block index.

    Site rows are ``(block, offset, target block, target offset, opcode,
    site)``; pointer rows are ``(slot, target block, target offset)``.
    Block ``len(blocks)`` is the fixed region, which stays at 0.
    """

    blocks: List[bytes]
    absolute: List[tuple]
    relative: List[tuple]
    pointers: List[tuple]


def patch_image(image: FirmwareImage, permutation: Permutation) -> bytes:
    """Produce the code bytes of ``image`` laid out by ``permutation``.

    Blocks are copied onto a buffer sized to the layout.  A layout that
    keeps every block inside ``.text`` reuses the image's bytes around
    it; one that places blocks past ``.text`` (the padded scatter) gets
    a buffer extended with erased flash, and the ``.text`` it vacated is
    erased too, so no old gadget bytes survive.  Then every indexed site
    and every function-pointer slot is rewritten for the new layout.
    """
    plan = layout_plan(image)
    sites = plan.sites
    if sites is None:
        sites = plan.sites = _plan_sites(plan, _relocation_index(image))
    order, new_starts = permutation.placed_on(plan)
    code = plan.code
    layout_end = permutation.new_end
    if layout_end > image.text_end:
        content_end = max(image.data_end, image.text_end)
        new_code = bytearray(code[:content_end])
        new_code += bytes([ERASED]) * (layout_end - content_end)
        text_size = image.text_end - image.text_start
        new_code[image.text_start : image.text_end] = bytes([ERASED]) * text_size
    else:
        new_code = bytearray(code)
    blocks, sizes = sites.blocks, plan.sizes
    # through a view: for ArduPlane's 917 blocks its slice assignment
    # takes about half the time the bytearray's own does
    with memoryview(new_code) as view:
        for block in order:
            start = new_starts[block]
            view[start : start + sizes[block]] = blocks[block]

    starts = new_starts + [0]  # the fixed region's block never moves
    pack_two_words = _TWO_WORDS.pack_into
    for block, offset, target_block, target_offset, opcode, site in sites.absolute:
        k = (starts[target_block] + target_offset) >> 1
        if k >= 1 << 22:
            raise EncodeError(
                f"{site.mnemonic.value}: target out of 22-bit range: {k}"
            )
        high = opcode | ((k >> 17) & 0x1F) << 4 | (k >> 16) & 1
        pack_two_words(new_code, starts[block] + offset, high, k & 0xFFFF)

    for block, offset, target_block, target_offset, opcode, site in sites.relative:
        new_offset = starts[block] + offset
        new_target = starts[target_block] + target_offset
        displacement = (new_target - (new_offset + 2)) // 2
        if not -2048 <= displacement <= 2047:
            raise PatchError(
                f"relaxed {site.mnemonic.value} at 0x{site.offset:05x} cannot "
                f"reach 0x{new_target:05x} after randomization "
                "(image must be built with --no-relax)"
            )
        _WORD.pack_into(new_code, new_offset, opcode | displacement & 0xFFF)

    for location, target_block, target_offset in sites.pointers:
        new_word = (starts[target_block] + target_offset) >> 1
        if new_word > 0xFFFF:
            raise PatchError(
                f"pointer slot 0x{location:05x} would need a 17-bit word "
                f"address (0x{new_word:05x}); route it through a trampoline"
            )
        _WORD.pack_into(new_code, location, new_word)
    return bytes(new_code)


def _plan_sites(plan: LayoutPlan, index: RelocationIndex) -> PatchSites:
    """Place every indexed site and pointer slot of ``plan``'s image.

    Which block a site or target falls in does not depend on the layout,
    so every check that one lies outside every block runs here, once per
    image, in the order the sites are rewritten.  Slots that point into
    the fixed region (trampoline stubs) stay as they are — the stubs'
    jmps are indexed sites, retargeted with the rest.
    """
    fixed = len(plan.starts)
    text_start, text_end, data_start, data_end = plan.bounds
    fixed_end = min(text_start, data_start)
    locate = plan.locate

    def position(site: PatchSite) -> Tuple[int, int]:
        # the fixed region never moves; everything else sits in a block
        if site.offset < fixed_end:
            return fixed, site.offset
        placed = locate(site.offset)
        if placed is None:
            raise PatchError(
                f"indexed site 0x{site.offset:05x} is outside every function block"
            )
        return placed

    absolute = []
    for site in index.absolute_sites:
        target = locate(site.target)
        if target is None:
            raise PatchError(
                f"{site.mnemonic.value} at 0x{site.offset:05x} targets "
                f"0x{site.target:05x}, which is inside .text but outside "
                "every function block"
            )
        absolute.append((*position(site), *target, _OPCODE[site.kind], site))

    relative = []
    for site in index.relative_sites:
        where = position(site)
        if text_start <= site.target < text_end:
            target = locate(site.target)
            if target is None:
                raise PatchError(
                    f"{site.mnemonic.value} at 0x{site.offset:05x} escapes "
                    "its block into unmapped .text"
                )
        else:
            target = fixed, site.target  # fixed region does not move
        relative.append((*where, *target, _OPCODE[site.kind], site))

    code = plan.code
    pointers = []
    for location in plan.funcptr_locations:
        old_target = (code[location] | (code[location + 1] << 8)) * 2
        if old_target < fixed_end:
            continue  # trampoline stub: layout-stable by design
        target = locate(old_target)
        if target is None:
            raise PatchError(
                f"pointer slot 0x{location:05x} targets 0x{old_target:05x} "
                "outside every function block"
            )
        pointers.append((location, *target))
    for location in plan.funcptr_locations:
        if not data_start <= location < data_end - 1:
            raise BinfmtError(
                f"function pointer slot 0x{location:05x} outside data region"
            )

    blocks = [
        code[start : start + size] for start, size in zip(plan.starts, plan.sizes)
    ]
    return PatchSites(blocks, absolute, relative, pointers)


def _relocation_index(image: FirmwareImage) -> RelocationIndex:
    """The image's relocation index, built from its own bytes on first use.

    A preprocessed image carries one.  An image without one, or with one
    that fails :meth:`RelocationIndex.matches` (built from other bytes),
    gets an index built here and attached, so each image object pays the
    full-stream decode at most once and a stale index is never applied.
    """
    index = image.reloc_index
    if index is None or not index.matches(image):
        index = image.reloc_index = build_relocation_index(image)
    return index


def verify_patched(
    original: FirmwareImage, randomized: FirmwareImage, permutation: Permutation
) -> None:
    """Structural checks tests rely on.

    * the randomized .text is a permutation of the original blocks;
    * every absolute call/jmp in the new image lands inside some function
      block or the fixed region;
    * every pointer slot targets a function entry.
    """
    for move in permutation.moves:
        old_block = original.code[move.old_address : move.old_address + move.size]
        new_block = randomized.code[move.new_address : move.new_address + move.size]
        if len(old_block) != len(new_block):
            raise PatchError(f"block {move.name} changed size")
    fixed_end = min(randomized.text_start, randomized.data_start)
    segments = [(0, fixed_end), (randomized.text_start, randomized.text_end)]
    for start, end in segments:
        _verify_segment(randomized, start, end)
    randomized.validate()


def _verify_segment(randomized: FirmwareImage, start: int, end: int) -> None:
    offset = start
    while offset + 1 < end:
        try:
            insn, size = decode_at(randomized.code, offset)
        except DecodeError as exc:
            raise PatchError(f"randomized image undecodable at 0x{offset:05x}") from exc
        if insn.mnemonic in _ABSOLUTE:
            target = insn.k * 2
            inside_fixed = target < min(
                randomized.text_start, randomized.data_start
            )
            inside_function = (
                randomized.symbols.function_containing(target) is not None
            )
            if not (inside_fixed or inside_function):
                raise PatchError(
                    f"{insn.mnemonic.value} at 0x{offset:05x} targets "
                    f"0x{target:05x}, outside every block"
                )
        offset += size
