"""In-application programming of the application processor (paper §VI-B4).

The master asserts RESET, enters the bootloader with a magic byte sequence,
streams the randomized binary page by page, and issues a final reset to
start the program.  Every reprogramming costs one write cycle of the
ATmega2560's embedded flash, which is rated for 10,000 cycles — the budget
that drives the randomization-frequency policy (§V-C).

Differential reflash
--------------------

A re-randomization rewrites only the bytes the shuffle actually moved or
retargeted: the fixed vectors+init region, unmoved data pages, and blocks
that happen to land on their old address are byte-identical to what the
chip already holds.  The programmer keeps an immutable copy of the last
image it wrote; when the flash provably still holds that image (same chip
object, same :attr:`FlashMemory.generation`, same length), it compares
the two page by page, and only changed pages are transferred and
written — page-granular erase included — and :class:`ProgrammingStats`
prices the pass in pages and wire bytes so the policy layer can reason
about wear per page rather than per full image.

Pricing is per page, but the simulated chip is written one slice per
run of pages: a full pass is one chip erase and one write of the whole
image, and a differential pass erases and writes each run of
consecutive changed pages at once.  Telemetry still sees pages: with
telemetry on, a differential pass emits one ``flash.page_reflashed``
event per changed page, in page order, carrying the flash generation
after that page's run was written.

The invariant that makes skipping safe: *a skipped page is byte-identical
by comparison to the page already in flash*, so the post-pass flash
contents equal a full reprogram byte for byte.  Any foreign write to the
flash (an SPM self-write, a debugger load) bumps ``generation`` and
forces the next pass back to a full reprogram.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..errors import FlashWearError, HardwareError
from ..telemetry import CounterField, GaugeField, StatsView, Telemetry
from .clock import SimClock
from .serialbus import FLASH_PAGE_SIZE, ProgrammingLink, PROTOTYPE_LINK

FLASH_ENDURANCE_CYCLES = 10_000
BOOTLOADER_ENTRY_MS = 50.0  # reset pulse + sync byte exchange


class ProgrammingStats(StatsView):
    """Accounting across the board's lifetime.

    A telemetry view: every field is a registry instrument.  Cumulative
    fields are monotonic counters — assigning a smaller value raises
    :class:`~repro.errors.TelemetryError` — so a silent reset in the
    reflash accounting can never pass unnoticed; ``last_*`` fields are
    gauges (point-in-time readings of the most recent pass).
    """

    component = "isp"

    programming_cycles = CounterField("isp.programming_cycles")
    bytes_programmed = CounterField("isp.bytes_programmed")
    total_programming_ms = CounterField("isp.total_programming_ms")
    last_programming_ms = GaugeField("isp.last_programming_ms", initial=0.0)
    # Flash generation after the most recent programming pass; the CPU's
    # compiled engine drops its decode cache when this moves, and the
    # differential path uses it to prove the chip still holds the image
    # it last programmed.  A gauge (not a counter): a new flash chip
    # object legitimately restarts its generation count.
    last_flash_generation = GaugeField("isp.last_flash_generation")
    # page-granular pricing (differential reflash)
    pages_written = CounterField("isp.pages_written")
    pages_skipped = CounterField("isp.pages_skipped")
    bytes_on_wire = CounterField("isp.bytes_on_wire")
    differential_passes = CounterField("isp.differential_passes")
    last_pages_written = GaugeField("isp.last_pages_written")
    last_pages_skipped = GaugeField("isp.last_pages_skipped")
    last_bytes_on_wire = GaugeField("isp.last_bytes_on_wire")


class IspProgrammer:
    """Streams images into an AVR core's flash with wear and time models."""

    def __init__(
        self,
        link: ProgrammingLink = PROTOTYPE_LINK,
        clock: Optional[SimClock] = None,
        endurance: int = FLASH_ENDURANCE_CYCLES,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.link = link
        self.clock = clock if clock is not None else SimClock()
        self.endurance = endurance
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.stats = ProgrammingStats(self.telemetry)
        self._programming_ms_hist = self.telemetry.registry.own_histogram(
            "isp.programming_ms", component="isp"
        )
        self._last_flash = None
        # the bytes of the last pass (immutable), to diff the next against
        self._last_image: Optional[bytes] = None
        # Host-side wall time spent inside program() — the "program" phase
        # of the campaign phase breakdown.  Simulated time lives in
        # stats.total_programming_ms; this is what the host actually paid.
        self.host_program_s = 0.0

    def program(self, flash, image: bytes, force_full: bool = False) -> float:
        """Write ``image`` into ``flash`` (an :class:`~repro.avr.FlashMemory`).

        Returns the elapsed milliseconds and advances the clock.  Raises
        :class:`FlashWearError` once the endurance budget is exhausted.
        Automatically programs differentially when the chip provably
        still holds the previous image and the page diff is cheaper than
        a full transfer; ``force_full=True`` disables the fast path.
        """
        # size before wear: an oversized image is a build problem and must
        # be reported as such even on an exhausted chip
        if len(image) > flash.size:
            raise HardwareError(
                f"image of {len(image)} bytes exceeds flash size {flash.size}"
            )
        if self.stats.programming_cycles >= self.endurance:
            raise FlashWearError(
                f"application flash exhausted: {self.stats.programming_cycles} "
                f"of {self.endurance} write cycles used"
            )
        host_start = time.perf_counter()
        image = bytes(image)  # the copy kept below must not change under us
        changed = self._changed_pages(flash, image, force_full)
        with self.telemetry.span("isp.program", image_bytes=len(image)) as span:
            if changed is None:
                elapsed, wire, written, skipped = self._program_full(flash, image)
                differential = False
            else:
                elapsed, wire, written, skipped = self._program_differential(
                    flash, image, changed
                )
                differential = True
            self.clock.advance_ms(elapsed)
            if span is not None:
                span.attrs.update(
                    differential=differential, pages_written=written,
                    pages_skipped=skipped, bytes_on_wire=wire,
                )
        # Both the erase and each page write bump ``flash.generation``, so
        # any decode cache built against the previous image is dead the
        # moment programming starts — never only when it finishes.
        self.stats.last_flash_generation = flash.generation
        self._last_flash = flash
        self._last_image = image
        self._programming_ms_hist.observe(elapsed)
        self.stats.programming_cycles += 1
        self.stats.bytes_programmed += len(image)
        self.stats.total_programming_ms += elapsed
        self.stats.last_programming_ms = elapsed
        self.stats.pages_written += written
        self.stats.pages_skipped += skipped
        self.stats.bytes_on_wire += wire
        self.stats.last_pages_written = written
        self.stats.last_pages_skipped = skipped
        self.stats.last_bytes_on_wire = wire
        if differential:
            self.stats.differential_passes += 1
        self.host_program_s += time.perf_counter() - host_start
        return elapsed

    # -- the two programming strategies ---------------------------------

    def _changed_pages(
        self, flash, image: bytes, force_full: bool
    ) -> Optional[List[int]]:
        """Page indices to rewrite, or ``None`` when a full pass is needed.

        The diff is only trusted when the chip still holds exactly the
        image last programmed: same flash object, no generation movement
        since our last pass (foreign writes — SPM self-writes, debugger
        loads — bump it), and an unchanged image length (a length change
        would leave stale pages beyond the new end).  Even then, a diff
        that would cost more wire bytes than the sequential stream falls
        back to the full pass.
        """
        last = self._last_image
        if (
            force_full
            or last is None
            or self._last_flash is not flash
            or flash.generation != self.stats.last_flash_generation
            or len(last) != len(image)
        ):
            return None
        changed = [
            index
            for index, start in enumerate(range(0, len(image), FLASH_PAGE_SIZE))
            if image[start : start + FLASH_PAGE_SIZE]
            != last[start : start + FLASH_PAGE_SIZE]
        ]
        if self.link.differential_wire_bytes(
            _payload(changed, len(image)), len(changed)
        ) >= len(image):
            return None  # diff would not beat the sequential stream
        return changed

    def _program_full(self, flash, image: bytes):
        flash.erase()
        flash.write_page(0, image)
        pages = (len(image) + FLASH_PAGE_SIZE - 1) // FLASH_PAGE_SIZE
        elapsed = BOOTLOADER_ENTRY_MS + self.link.programming_ms(len(image))
        self.telemetry.emit(
            "flash.reprogrammed", pages=pages, image_bytes=len(image),
            generation=flash.generation,
        )
        return elapsed, len(image), pages, 0

    def _program_differential(self, flash, image: bytes, changed: List[int]):
        telemetry = self.telemetry
        emit = telemetry.emit if telemetry.enabled else None
        for first, stop in _runs(changed):
            start = first * FLASH_PAGE_SIZE
            end = min(stop * FLASH_PAGE_SIZE, len(image))
            flash.erase_page(start, end - start)
            flash.write_page(start, image[start:end])
            if emit is not None:
                for index in range(first, stop):
                    offset = index * FLASH_PAGE_SIZE
                    emit(
                        "flash.page_reflashed", page=index, offset=offset,
                        size=min(FLASH_PAGE_SIZE, end - offset),
                        generation=flash.generation,
                    )
        payload = _payload(changed, len(image))
        total_pages = (len(image) + FLASH_PAGE_SIZE - 1) // FLASH_PAGE_SIZE
        wire = self.link.differential_wire_bytes(payload, len(changed))
        elapsed = BOOTLOADER_ENTRY_MS + self.link.differential_programming_ms(
            payload, len(changed)
        )
        return elapsed, wire, len(changed), total_pages - len(changed)

    # -- reporting -------------------------------------------------------

    def estimate_full_ms(self, n_bytes: int) -> float:
        """Timing-model dry run of a full reprogram: no flash writes, no
        wear, no clock movement — what :meth:`MasterProcessor.
        startup_overhead_ms` reports without burning a cycle."""
        return BOOTLOADER_ENTRY_MS + self.link.programming_ms(n_bytes)

    @property
    def remaining_cycles(self) -> int:
        return max(self.endurance - self.stats.programming_cycles, 0)


def _runs(changed: List[int]) -> List[List[int]]:
    """``[first, stop)`` page-index bounds of each run of consecutive
    pages in ``changed`` (ascending)."""
    runs: List[List[int]] = []
    for index in changed:
        if runs and runs[-1][1] == index:
            runs[-1][1] = index + 1
        else:
            runs.append([index, index + 1])
    return runs


def _payload(changed: List[int], image_len: int) -> int:
    """Bytes in the pages ``changed`` of an ``image_len``-byte image
    (every page is full but possibly the last)."""
    if not changed:
        return 0
    return len(changed) * FLASH_PAGE_SIZE - max(
        (changed[-1] + 1) * FLASH_PAGE_SIZE - image_len, 0
    )
