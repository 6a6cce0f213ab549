"""The streaming patcher: the reference :func:`repro.core.patching.patch_image`
must match byte for byte.

This is the original MAVR patch pass.  It decodes every executable
segment (the fixed vector/init region, then each moved block) on every
call and retargets each control transfer as it meets it.  Production
replays a relocation index instead; the tests hold the two to identical
output, the way the interpreter is the reference for the compiled
engine.  Function-pointer slots go through the production
``_patch_funcptrs`` on both sides.
"""

from __future__ import annotations

from repro.avr.decoder import decode_at
from repro.avr.encoder import encode_bytes
from repro.avr.insn import Instruction, Mnemonic
from repro.binfmt.image import FirmwareImage
from repro.core.patching import _patch_funcptrs
from repro.core.randomize import Permutation
from repro.errors import DecodeError, PatchError

M = Mnemonic

_RELATIVE = {M.RCALL, M.RJMP}
_BRANCHES = {M.BRBS, M.BRBC}
_ABSOLUTE = {M.CALL, M.JMP}


def oracle_bytes(
    image: FirmwareImage, permutation: Permutation, fill: int = 0xFF
) -> bytes:
    """The streaming pipeline's bytes for any layout.

    A layout that places blocks past ``.text`` is the padded scatter:
    stream the image grown with ``fill`` to the layout's extent, then
    fill the old ``.text`` — what ``randomize_image_padded`` did before
    the one patcher.
    """
    new_end = max(move.new_address + move.size for move in permutation.moves)
    if new_end <= image.text_end:
        return patch_image(image, permutation)
    keep = max(image.data_end, image.text_end)
    grown = bytearray(image.code[:keep])
    grown += bytes([fill]) * (new_end - len(grown))
    patched = bytearray(patch_image(image.with_code(bytes(grown)), permutation))
    for offset in range(image.text_start, image.text_end):
        patched[offset] = fill
    return bytes(patched)


def patch_image(image: FirmwareImage, permutation: Permutation) -> bytes:
    """Produce the randomized code bytes for ``permutation``."""
    new_code = bytearray(image.code)

    # move every block to its new home
    for move in permutation.moves:
        block = image.code[move.old_address : move.old_address + move.size]
        new_code[move.new_address : move.new_address + move.size] = block

    # patch the fixed region (vectors + __init) in place; when the flash
    # data section sits below .text, stop the sweep before it — data bytes
    # are not instructions
    fixed_end = min(image.text_start, image.data_start)
    _patch_segment(image, permutation, new_code, 0, 0, fixed_end)
    # patch every moved block at its new location
    for move in permutation.moves:
        _patch_segment(
            image, permutation, new_code,
            move.old_address, move.new_address, move.size,
        )

    _patch_funcptrs(image, permutation, new_code)
    return bytes(new_code)


def _patch_segment(
    image: FirmwareImage,
    permutation: Permutation,
    new_code: bytearray,
    old_start: int,
    new_start: int,
    length: int,
) -> None:
    """Stream one executable segment, retargeting control transfers."""
    offset = old_start
    end = old_start + length
    while offset + 1 < end:
        try:
            insn, size = decode_at(image.code, offset)
        except DecodeError as exc:
            raise PatchError(
                f"undecodable word at 0x{offset:05x} inside an executable "
                "segment; cannot patch"
            ) from exc
        new_offset = new_start + (offset - old_start)
        mnemonic = insn.mnemonic

        if mnemonic in _ABSOLUTE:
            _patch_absolute(image, permutation, new_code, insn, offset, new_offset)
        elif mnemonic in _RELATIVE:
            _patch_relative(
                image, permutation, new_code, insn,
                offset, new_offset, old_start, end,
            )
        elif mnemonic in _BRANCHES:
            _check_branch(insn, offset, old_start, end)
        offset += size


def _patch_absolute(
    image: FirmwareImage,
    permutation: Permutation,
    new_code: bytearray,
    insn: Instruction,
    old_offset: int,
    new_offset: int,
) -> None:
    old_target = insn.k * 2
    if not image.text_start <= old_target < image.text_end:
        return  # fixed-region target (vectors, bootloader): unchanged
    new_target = permutation.new_address_of(old_target)
    if new_target is None:
        raise PatchError(
            f"{insn.mnemonic.value} at 0x{old_offset:05x} targets "
            f"0x{old_target:05x}, which is inside .text but outside every "
            "function block"
        )
    patched = Instruction(insn.mnemonic, k=new_target // 2)
    new_code[new_offset : new_offset + 4] = encode_bytes(patched)


def _patch_relative(
    image: FirmwareImage,
    permutation: Permutation,
    new_code: bytearray,
    insn: Instruction,
    old_offset: int,
    new_offset: int,
    segment_start: int,
    segment_end: int,
) -> None:
    old_target = old_offset + 2 + insn.k * 2
    if segment_start <= old_target < segment_end:
        return  # moves with the block; displacement still correct
    # a cross-block relative transfer: retarget from the new position
    if image.text_start <= old_target < image.text_end:
        new_target = permutation.new_address_of(old_target)
        if new_target is None:
            raise PatchError(
                f"{insn.mnemonic.value} at 0x{old_offset:05x} escapes its "
                "block into unmapped .text"
            )
    else:
        new_target = old_target  # fixed region does not move
    displacement = (new_target - (new_offset + 2)) // 2
    if not -2048 <= displacement <= 2047:
        raise PatchError(
            f"relaxed {insn.mnemonic.value} at 0x{old_offset:05x} cannot "
            f"reach 0x{new_target:05x} after randomization "
            "(image must be built with --no-relax)"
        )
    patched = Instruction(insn.mnemonic, k=displacement)
    new_code[new_offset : new_offset + 2] = encode_bytes(patched)


def _check_branch(
    insn: Instruction, old_offset: int, segment_start: int, segment_end: int
) -> None:
    old_target = old_offset + 2 + insn.k * 2
    if not segment_start <= old_target < segment_end:
        raise PatchError(
            f"conditional branch at 0x{old_offset:05x} crosses a block "
            "boundary; cannot be retargeted within 7 bits"
        )
