"""MAVR preprocessing phase (paper §V-B1 / §VI-B2) — runs on the host.

Takes the compiler's output (an image with its symbol table), verifies the
build is randomizable, extracts the function list in ascending address
order, scans the data section for function pointers, and emits the
modified HEX file with the symbol information prepended — ready for upload
to the external flash with standard tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..binfmt.funcptr import scan_function_pointers
from ..binfmt.image import FirmwareImage
from ..binfmt.relocindex import build_relocation_index
from ..errors import DefenseError


@dataclass(frozen=True)
class PreprocessReport:
    """What the host-side pass found."""

    function_count: int
    funcptr_slots: int
    text_bytes: int
    hex_bytes: int
    index_sites: int = 0
    index_bytes: int = 0


def check_randomizable(image: FirmwareImage) -> None:
    """Reject builds whose toolchain flags defeat randomization (§VI-B1).

    * relaxed (short-range) calls cannot reach a function after it moves;
    * ``-mcall-prologues`` hides code pointers in LDI pairs the patcher
      cannot see.
    """
    tag = image.toolchain_tag
    if "no-relax" not in tag:
        raise DefenseError(
            f"image '{image.name}' was linked with relaxation enabled "
            f"(tag: {tag}); rebuild with --no-relax"
        )
    if "mno-call-prologues" not in tag:
        raise DefenseError(
            f"image '{image.name}' uses -mcall-prologues (tag: {tag}); "
            "rebuild with -mno-call-prologues"
        )


def preprocess(
    image: FirmwareImage, verify_pointers: bool = True, build_index: bool = True
) -> str:
    """Produce the preprocessed HEX text for the external flash.

    This is where the expensive full-stream decode happens — exactly
    once, on the host.  The resulting relocation index ships inside the
    HEX so every later re-randomization on the master is a decode-free
    fixup pass.  ``build_index=False`` reproduces the legacy format (the
    master's patcher then builds the index in RAM on first use).
    """
    check_randomizable(image)
    image.validate()
    if verify_pointers:
        _verify_pointer_coverage(image)
    if build_index and image.reloc_index is None:
        image.reloc_index = build_relocation_index(image)
    return image.to_preprocessed_hex(include_index=build_index)


def preprocess_report(image: FirmwareImage) -> PreprocessReport:
    hex_text = preprocess(image)
    index = image.reloc_index
    return PreprocessReport(
        function_count=image.function_count(),
        funcptr_slots=len(image.funcptr_locations),
        text_bytes=image.text_end - image.text_start,
        hex_bytes=len(hex_text),
        index_sites=index.site_count if index is not None else 0,
        index_bytes=index.byte_length() if index is not None else 0,
    )


def _verify_pointer_coverage(image: FirmwareImage) -> None:
    """Every linker-known pointer slot must be findable by the binary scan.

    The production preprocessor only has the binary; if the scan misses a
    slot the randomized build would call through a stale pointer.
    """
    scanned = {candidate.location for candidate in scan_function_pointers(image)}
    missing = [loc for loc in image.funcptr_locations if loc not in scanned]
    if missing:
        raise DefenseError(
            f"function-pointer scan missed {len(missing)} slot(s): "
            + ", ".join(f"0x{loc:05x}" for loc in missing[:8])
        )


def load_preprocessed(hex_text: str) -> FirmwareImage:
    """Master-side: reconstruct the image+symbols from the external flash."""
    image = FirmwareImage.from_preprocessed_hex(hex_text)
    check_randomizable(image)
    return image
