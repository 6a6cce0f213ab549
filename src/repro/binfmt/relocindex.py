"""Precomputed relocation index — the patcher's map of every patch site.

Finding the handful of instructions whose operands encode a
layout-dependent address takes a decode of the whole ``.text`` stream.
But the set of patch sites is a property of the *original* image, not of
any particular permutation:

* absolute ``call``/``jmp`` whose target lies inside ``.text``;
* ``rcall``/``rjmp`` whose target escapes the containing segment (the
  fixed vectors+init region, or one function block) — same-segment
  relative transfers move with their block and never need touching;
* conditional branches never cross a segment in a randomizable build
  (checked once here; a build where one does cannot be randomized);
* function-pointer slots in the data section (already listed in
  :attr:`FirmwareImage.funcptr_locations`).

So the host-side preprocessor decodes the stream **once**, records the
sites, and ships them with the image.  Every re-randomization, whatever
its layout, is then an O(moves + patch-sites) fixup pass
(:func:`repro.core.patching.patch_image`) with no instruction decoding.

The index is tied to the exact original code bytes: :meth:`matches`
compares a CRC and the text bounds, so a stale index (tampered blob,
edited image) is detected and the patcher builds a fresh one from the
image's own bytes rather than silently mis-patching.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Tuple

from ..avr.decoder import decode_at
from ..avr.insn import Mnemonic
from ..errors import BinfmtError, DecodeError, PatchError
from .image import FirmwareImage

M = Mnemonic

# site kinds (serialized as one byte)
KIND_CALL = 0
KIND_JMP = 1
KIND_RCALL = 2
KIND_RJMP = 3

_KIND_TO_MNEMONIC = {
    KIND_CALL: M.CALL,
    KIND_JMP: M.JMP,
    KIND_RCALL: M.RCALL,
    KIND_RJMP: M.RJMP,
}
_MNEMONIC_TO_KIND = {m: k for k, m in _KIND_TO_MNEMONIC.items()}

INDEX_MAGIC = b"MVRX"
INDEX_VERSION = 1
_HEADER = struct.Struct("<4sHHIIIII")  # magic, version, pad, crc, ts, te, n_abs, n_rel
_SITE = struct.Struct("<BII")  # kind, site byte offset, old target byte address


@dataclass(frozen=True)
class PatchSite:
    """One layout-dependent instruction in the original image.

    ``offset`` is the instruction's byte offset in the original code;
    ``target`` is the *old* byte address its operand encodes.  For
    relative sites ``segment_start``/``segment_end`` bracket the segment
    the instruction lives in (its function block, or the fixed region),
    which is permutation-independent.
    """

    kind: int
    offset: int
    target: int
    segment_start: int = 0
    segment_end: int = 0

    @property
    def mnemonic(self) -> Mnemonic:
        return _KIND_TO_MNEMONIC[self.kind]


@dataclass
class RelocationIndex:
    """Every patch site of one image, decode-free at apply time."""

    code_crc: int
    text_start: int
    text_end: int
    absolute_sites: List[PatchSite]
    relative_sites: List[PatchSite]

    @property
    def site_count(self) -> int:
        return len(self.absolute_sites) + len(self.relative_sites)

    def matches(self, image: FirmwareImage) -> bool:
        """Is this index valid for ``image``'s exact original bytes?"""
        return (
            self.text_start == image.text_start
            and self.text_end == image.text_end
            and self.code_crc == (zlib.crc32(image.code) & 0xFFFFFFFF)
        )

    # -- serialization (external-flash blob / preprocessed HEX section) ----

    def to_bytes(self) -> bytes:
        out = bytearray(
            _HEADER.pack(
                INDEX_MAGIC,
                INDEX_VERSION,
                0,
                self.code_crc,
                self.text_start,
                self.text_end,
                len(self.absolute_sites),
                len(self.relative_sites),
            )
        )
        for site in self.absolute_sites:
            out += _SITE.pack(site.kind, site.offset, site.target)
        for site in self.relative_sites:
            out += _SITE.pack(site.kind, site.offset, site.target)
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes, image: FirmwareImage) -> "RelocationIndex":
        """Parse; relative-site segments are rebuilt from ``image`` symbols."""
        if len(blob) < _HEADER.size:
            raise BinfmtError("relocation index truncated (header)")
        magic, version, _pad, crc, ts, te, n_abs, n_rel = _HEADER.unpack_from(blob, 0)
        if magic != INDEX_MAGIC:
            raise BinfmtError(f"bad relocation index magic: {magic!r}")
        if version != INDEX_VERSION:
            raise BinfmtError(f"unsupported relocation index version: {version}")
        need = _HEADER.size + (n_abs + n_rel) * _SITE.size
        if len(blob) < need:
            raise BinfmtError("relocation index truncated (sites)")
        offset = _HEADER.size
        absolute: List[PatchSite] = []
        for _ in range(n_abs):
            kind, site_off, target = _SITE.unpack_from(blob, offset)
            offset += _SITE.size
            absolute.append(PatchSite(kind, site_off, target))
        segments = _segments(image)
        relative: List[PatchSite] = []
        for _ in range(n_rel):
            kind, site_off, target = _SITE.unpack_from(blob, offset)
            offset += _SITE.size
            start, end = _segment_containing(segments, site_off)
            relative.append(PatchSite(kind, site_off, target, start, end))
        return cls(crc, ts, te, absolute, relative)

    def byte_length(self) -> int:
        return _HEADER.size + self.site_count * _SITE.size


def build_relocation_index(image: FirmwareImage) -> RelocationIndex:
    """The one full-stream decode: sweep every executable segment.

    Segments are the fixed region (vectors + ``__init``, which never
    moves) and each function block — the units a layout moves rigidly,
    so a build failure here means the image cannot be randomized at all.
    """
    absolute: List[PatchSite] = []
    relative: List[PatchSite] = []
    for start, end in _segments(image):
        offset = start
        while offset + 1 < end:
            try:
                insn, size = decode_at(image.code, offset)
            except DecodeError as exc:
                raise PatchError(
                    f"undecodable word at 0x{offset:05x} inside an executable "
                    "segment; cannot index"
                ) from exc
            mnemonic = insn.mnemonic
            if mnemonic in (M.CALL, M.JMP):
                target = insn.k * 2
                if image.text_start <= target < image.text_end:
                    absolute.append(
                        PatchSite(_MNEMONIC_TO_KIND[mnemonic], offset, target)
                    )
            elif mnemonic in (M.RCALL, M.RJMP):
                target = offset + 2 + insn.k * 2
                if not start <= target < end:
                    relative.append(
                        PatchSite(
                            _MNEMONIC_TO_KIND[mnemonic], offset, target, start, end
                        )
                    )
            elif mnemonic in (M.BRBS, M.BRBC):
                target = offset + 2 + insn.k * 2
                if not start <= target < end:
                    raise PatchError(
                        f"conditional branch at 0x{offset:05x} crosses a block "
                        "boundary; cannot be retargeted within 7 bits"
                    )
            offset += size
    return RelocationIndex(
        code_crc=zlib.crc32(image.code) & 0xFFFFFFFF,
        text_start=image.text_start,
        text_end=image.text_end,
        absolute_sites=absolute,
        relative_sites=relative,
    )


def _segments(image: FirmwareImage) -> List[Tuple[int, int]]:
    """The executable tiling: fixed region first, then each block."""
    fixed_end = min(image.text_start, image.data_start)
    segments = [(0, fixed_end)]
    for symbol in image.symbols.functions():
        segments.append((symbol.address, symbol.end))
    return segments


def _segment_containing(
    segments: List[Tuple[int, int]], offset: int
) -> Tuple[int, int]:
    for start, end in segments:
        if start <= offset < end:
            return start, end
    raise BinfmtError(
        f"relocation site 0x{offset:05x} lies outside every executable segment"
    )
