"""Differential page reflash at the ISP level: digests, fallbacks, wear
ordering, the page-granular erase primitive, and a property over drawn
images and changed-page sets against the per-page model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avr.memory import FlashMemory
from repro.errors import FlashWearError, HardwareError, MemoryAccessError
from repro.hw.isp import BOOTLOADER_ENTRY_MS, IspProgrammer
from repro.hw.serialbus import FLASH_PAGE_SIZE, PAGE_COMMAND_OVERHEAD_BYTES
from repro.telemetry import Telemetry


def _image(n_pages, fill=0xAB):
    return bytes([fill]) * (FLASH_PAGE_SIZE * n_pages)


def test_second_program_of_same_image_is_differential_noop():
    flash = FlashMemory()
    isp = IspProgrammer()
    image = _image(4)
    isp.program(flash, image)
    assert isp.stats.last_pages_written == 4
    isp.program(flash, image)
    stats = isp.stats
    assert stats.differential_passes == 1
    assert stats.last_pages_written == 0
    assert stats.last_pages_skipped == 4
    assert stats.last_bytes_on_wire == 0
    assert flash.dump(0, len(image)) == image


def test_differential_rewrites_only_changed_pages():
    flash = FlashMemory()
    isp = IspProgrammer()
    image = bytearray(_image(8))
    isp.program(flash, bytes(image))
    image[3 * FLASH_PAGE_SIZE] ^= 0xFF  # dirty exactly one page
    isp.program(flash, bytes(image))
    stats = isp.stats
    assert stats.last_pages_written == 1
    assert stats.last_pages_skipped == 7
    assert stats.last_bytes_on_wire == FLASH_PAGE_SIZE + PAGE_COMMAND_OVERHEAD_BYTES
    assert flash.dump(0, len(image)) == bytes(image)


def test_differential_result_equals_full_reprogram():
    """The page-diff invariant: skipped pages are byte-identical, so the
    array ends up exactly as a from-scratch full program leaves it."""
    first = bytes(range(256)) * 6
    second = bytearray(first)
    second[0] ^= 0x55
    second[5 * FLASH_PAGE_SIZE + 17] ^= 0x77

    flash_diff = FlashMemory()
    isp_diff = IspProgrammer()
    isp_diff.program(flash_diff, first)
    isp_diff.program(flash_diff, bytes(second))
    assert isp_diff.stats.differential_passes == 1

    flash_full = FlashMemory()
    IspProgrammer().program(flash_full, bytes(second))
    assert flash_diff.dump() == flash_full.dump()


def test_foreign_flash_write_forces_full_reprogram():
    """An SPM self-write (V4-style persistence) bumps the generation, so
    the stored digests no longer describe the chip: full fallback."""
    flash = FlashMemory()
    isp = IspProgrammer()
    image = _image(4)
    isp.program(flash, image)
    flash.write_word(10, 0x1234)  # firmware self-modification
    isp.program(flash, image)
    assert isp.stats.differential_passes == 0
    assert isp.stats.last_pages_written == 4
    assert flash.dump(0, len(image)) == image


def test_different_image_length_forces_full_reprogram():
    flash = FlashMemory()
    isp = IspProgrammer()
    isp.program(flash, _image(4))
    shorter = _image(2)
    isp.program(flash, shorter)
    assert isp.stats.differential_passes == 0
    # the full pass chip-erased, so nothing of the longer image survives
    assert flash.dump(0, 4 * FLASH_PAGE_SIZE) == shorter + b"\xff" * (
        2 * FLASH_PAGE_SIZE
    )


def test_force_full_flag():
    flash = FlashMemory()
    isp = IspProgrammer()
    image = _image(3)
    isp.program(flash, image)
    isp.program(flash, image, force_full=True)
    assert isp.stats.differential_passes == 0
    assert isp.stats.last_pages_written == 3


def test_oversized_image_reported_before_wear():
    """Satellite fix: the size check must precede the endurance check."""
    flash = FlashMemory(size=1024)
    isp = IspProgrammer(endurance=1)
    isp.program(flash, b"\x00" * 1024)  # budget now exhausted
    with pytest.raises(HardwareError) as excinfo:
        isp.program(flash, bytes(2048))
    assert not isinstance(excinfo.value, FlashWearError)
    assert "exceeds flash size" in str(excinfo.value)
    # a correctly sized image still trips the wear check
    with pytest.raises(FlashWearError):
        isp.program(flash, b"\x00" * 1024)


def test_estimate_full_ms_is_side_effect_free():
    isp = IspProgrammer()
    before_clock = isp.clock.now_ms
    ms = isp.estimate_full_ms(16 * 1024)
    assert ms > 0
    assert isp.clock.now_ms == before_clock
    assert isp.stats.programming_cycles == 0


def test_erase_page_is_page_granular_and_invalidates():
    flash = FlashMemory()
    flash.load(b"\xaa" * 1024)
    generation = flash.generation
    flash.erase_page(256, 256)
    assert flash.generation == generation + 1
    assert flash.dump(0, 256) == b"\xaa" * 256
    assert flash.dump(256, 256) == b"\xff" * 256
    assert flash.dump(512, 512) == b"\xaa" * 512
    with pytest.raises(MemoryAccessError):
        flash.erase_page(flash.size - 128, 256)


@st.composite
def reflashes(draw):
    """(first image, second image, changed pages): 1-12 pages, the last
    one full or partial; no page, one page, several runs or every page
    differs between the two images."""
    pages = draw(st.integers(1, 12))
    last = draw(st.one_of(st.just(FLASH_PAGE_SIZE),
                          st.integers(1, FLASH_PAGE_SIZE)))
    size = (pages - 1) * FLASH_PAGE_SIZE + last
    kind = draw(st.sampled_from(("none", "one", "runs", "all")))
    if kind == "none":
        changed = []
    elif kind == "one":
        changed = [draw(st.integers(0, pages - 1))]
    elif kind == "runs":
        changed = sorted(draw(st.sets(st.integers(0, pages - 1),
                                      min_size=min(2, pages))))
    else:
        changed = list(range(pages))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    first = bytes(rng.getrandbits(8) for _ in range(size))
    second = bytearray(first)
    for page in changed:
        start = page * FLASH_PAGE_SIZE
        second[rng.randrange(start, min(start + FLASH_PAGE_SIZE, size))] ^= (
            rng.randrange(1, 256)
        )
    return first, bytes(second), changed


@settings(max_examples=60, deadline=None)
@given(case=reflashes(), telemetry_on=st.booleans())
def test_reflash_matches_the_per_page_model(case, telemetry_on):
    """Whatever runs the changed pages form: the flash ends as a full
    reprogram leaves it, the pass is priced page by page, and telemetry
    sees one ``flash.page_reflashed`` event per changed page, in order."""
    first, second, changed = case
    size = len(second)
    pages = -(-size // FLASH_PAGE_SIZE)
    flash = FlashMemory()
    telemetry = Telemetry(enabled=telemetry_on)
    isp = IspProgrammer(telemetry=telemetry)
    isp.program(flash, first)
    elapsed = isp.program(flash, second)

    reference = FlashMemory()
    IspProgrammer().program(reference, second)
    assert flash.dump() == reference.dump()

    sizes = [min(FLASH_PAGE_SIZE, size - page * FLASH_PAGE_SIZE)
             for page in changed]
    payload = sum(sizes)
    wire = payload + len(changed) * PAGE_COMMAND_OVERHEAD_BYTES
    link = isp.link
    if wire < size:  # the differential pass
        expected = (len(changed), pages - len(changed), wire,
                    BOOTLOADER_ENTRY_MS + link.differential_programming_ms(
                        payload, len(changed)))
        events = [(page, page * FLASH_PAGE_SIZE, page_size)
                  for page, page_size in zip(changed, sizes)]
    else:  # a diff no cheaper than the whole stream: the full pass
        expected = (pages, 0, size,
                    BOOTLOADER_ENTRY_MS + link.programming_ms(size))
        events = []
    stats = isp.stats
    assert (stats.last_pages_written, stats.last_pages_skipped,
            stats.last_bytes_on_wire, elapsed) == expected

    emitted = telemetry.events.events("flash.page_reflashed")
    if not telemetry_on:
        assert emitted == []
        return
    assert [(e["page"], e["offset"], e["size"]) for e in emitted] == events
    # each event carries the flash generation after its page's run: one
    # generation per run of consecutive pages, the last one the chip's
    generations = [e["generation"] for e in emitted]
    runs = sum(1 for i, page in enumerate(changed)
               if i == 0 or changed[i - 1] != page - 1)
    assert generations == sorted(generations)
    if events:
        assert len(set(generations)) == runs
        assert generations[-1] == flash.generation
