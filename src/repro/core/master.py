"""The MAVR master processor (paper §V-A2, §VI).

The ATmega1284P that owns the defense at runtime:

* reads the preprocessed binary + symbols from the external flash,
* generates a fresh permutation and patches the binary,
* programs the application processor through the bootloader/ISP link
  (the Table II startup overhead),
* then watches the feed line; a failed ROP attack shows up as silence,
  upon which the master resets and re-randomizes immediately.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import List, Optional

from ..binfmt.image import FirmwareImage
from ..errors import DefenseError
from ..hw.clock import SimClock
from ..hw.flashchip import ExternalFlash
from ..hw.isp import IspProgrammer
from ..hw.serialbus import PROTOTYPE_LINK, ProgrammingLink
from ..telemetry import CounterField, GaugeField, StatsView, Telemetry
from ..uav.autopilot import Autopilot
from .defenses import DefenseBackend, MavrBackend
from .policy import RandomizationPolicy
from .randomize import Permutation
from .watchdog import WatchdogConfig, WatchdogMonitor


#: parsed external-flash blobs: a bounded LRU keyed by the blob bytes, so
#: every board in a process that deploys the same blob shares one parse.
#: The image is read-only by convention; the one sanctioned mutation,
#: attaching a relocation index, is deterministic in content.
_ORIGINAL_CACHE: "OrderedDict[bytes, FirmwareImage]" = OrderedDict()
_ORIGINAL_CACHE_LIMIT = 8


def _parsed_blob(blob: bytes) -> FirmwareImage:
    image = _ORIGINAL_CACHE.get(blob)
    if image is None:
        image = _ORIGINAL_CACHE[blob] = FirmwareImage.from_flash_blob(blob)
    else:
        _ORIGINAL_CACHE.move_to_end(blob)
    while len(_ORIGINAL_CACHE) > _ORIGINAL_CACHE_LIMIT:
        _ORIGINAL_CACHE.popitem(last=False)
    return image


class MasterStats(StatsView):
    """Defense-side accounting.

    A telemetry view over the metrics registry: the cumulative fields are
    monotonic counters (a decrement raises), the ``last_*`` fields are
    gauges.  The public fields are unchanged from the original dataclass.
    """

    component = "master"

    boots = CounterField("master.boots")
    randomizations = CounterField("master.randomizations")
    attacks_detected = CounterField("master.attacks_detected")
    last_startup_overhead_ms = GaugeField(
        "master.last_startup_overhead_ms", initial=0.0
    )
    # mirrored from the ISP programmer after every boot so the policy
    # layer can throttle against the remaining endurance budget and price
    # re-randomization per page rather than per full image
    flash_cycles_remaining = GaugeField(
        "master.flash_cycles_remaining", initial=None
    )
    last_pages_written = GaugeField("master.last_pages_written")
    last_pages_skipped = GaugeField("master.last_pages_skipped")
    last_bytes_on_wire = GaugeField("master.last_bytes_on_wire")

    def __init__(self, telemetry: Optional[Telemetry] = None, **labels) -> None:
        super().__init__(telemetry, **labels)
        self.startup_overheads_ms: List[float] = []


class MasterProcessor:
    """Owns the external flash, the ISP link and the watchdog role."""

    def __init__(
        self,
        autopilot: Autopilot,
        policy: RandomizationPolicy = RandomizationPolicy(),
        link: ProgrammingLink = PROTOTYPE_LINK,
        watchdog: WatchdogConfig = WatchdogConfig(),
        rng: Optional[random.Random] = None,
        telemetry: Optional[Telemetry] = None,
        backend: Optional[DefenseBackend] = None,
    ) -> None:
        self.autopilot = autopilot
        self.policy = policy
        self.clock = SimClock()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.telemetry.bind_clock(self.clock)
        self.backend = (backend if backend is not None else MavrBackend()).bind(
            self.telemetry
        )
        self.external_flash = ExternalFlash()
        self.isp = IspProgrammer(link, self.clock, telemetry=self.telemetry)
        self.watchdog_config = watchdog
        self.rng = rng if rng is not None else random.Random()
        self.stats = MasterStats(self.telemetry)
        self._startup_hist = self.telemetry.registry.own_histogram(
            "master.startup_overhead_ms", component="master"
        )
        self.monitor = WatchdogMonitor(autopilot.feed, watchdog)
        self._original: Optional[FirmwareImage] = None
        self.current_image: Optional[FirmwareImage] = None
        self.last_permutation: Optional[Permutation] = None
        # Optional forensics wiring (see repro.avr.trace.FlightRecorder /
        # repro.avr.profile.AvrProfiler): when a Board attaches them, a
        # detection freezes a forensic bundle *before* recovery reboots
        # the core and destroys the evidence.
        self.flight_recorder = None
        self.profiler = None
        self.last_forensic_bundle: Optional[dict] = None
        self._register_cpu_collector()

    def _register_cpu_collector(self) -> None:
        """Publish engine/CPU counters by sampling at snapshot time.

        Pull-style on purpose: the execution engine's retire loop stays
        untouched, so the disabled-path overhead of telemetry on the
        simulator's hottest path is exactly zero.
        """
        autopilot = self.autopilot
        app = autopilot.image.name
        # cursors into the engines' append-only build logs: entries
        # already folded into a histogram are not re-observed at the next
        # snapshot
        fusion_cursor = [0]
        compile_cursor = [0]

        def collect(registry) -> None:
            cpu = autopilot.cpu
            def sample(name: str, value) -> None:
                registry.gauge(name, component="cpu", app=app).set(value)

            retired_total = cpu.instructions_lifetime + cpu.instructions_retired
            sample("cpu.instructions_retired", cpu.instructions_retired)
            sample("cpu.instructions_lifetime", retired_total)
            sample("cpu.cycles", cpu.cycles)
            sample("cpu.cycles_lifetime", cpu.cycles_lifetime + cpu.cycles)
            sample("cpu.interrupts_serviced", cpu.interrupts_serviced)
            sample("flash.generation", cpu.flash.generation)
            engine = cpu.engine
            if hasattr(engine, "decode_misses"):
                sample("engine.decode_misses", engine.decode_misses)
                sample("engine.cache_rebuilds", engine.rebuilds)
                sample(
                    "engine.decode_cache_hits",
                    max(retired_total - engine.decode_misses, 0),
                )
            if hasattr(engine, "blocks_built"):
                sample("avr.blocks.built", engine.blocks_built)
                sample("avr.blocks.entered", engine.blocks_entered)
                lengths = engine.fusion_lengths
                fresh = lengths[fusion_cursor[0]:]
                if fresh:
                    histogram = registry.histogram(
                        "avr.blocks.fusion_length",
                        buckets=(1, 2, 4, 8, 16, 24, 32),
                        component="cpu",
                        app=app,
                    )
                    for length in fresh:
                        histogram.observe(length)
                    fusion_cursor[0] = len(lengths)
            if hasattr(engine, "compiled_built"):
                sample("avr.compiled.built", engine.compiled_built)
                sample("avr.compiled.entered", engine.compiled_entered)
                times = engine.compile_times_ms
                fresh_times = times[compile_cursor[0]:]
                if fresh_times:
                    histogram = registry.histogram(
                        "avr.compiled.compile_ms",
                        buckets=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0),
                        component="cpu",
                        app=app,
                    )
                    for elapsed_ms in fresh_times:
                        histogram.observe(elapsed_ms)
                    compile_cursor[0] = len(times)

        self.telemetry.add_collector(collect)

    # -- deployment ---------------------------------------------------------

    def deploy(self, preprocessed_hex: str) -> None:
        """Receive the preprocessed HEX and store it on the external flash.

        Mirrors the flash utility: the HEX record stream is decoded on
        arrival and the chip holds the compact binary (code + symbol
        blob), which is what lets a 220 KB application plus its symbols
        squeeze into a chip sized like the application processor's flash.
        """
        image = FirmwareImage.from_preprocessed_hex(preprocessed_hex)
        blob = image.to_flash_blob()
        if not self.external_flash.fits(len(blob)):
            # the chip is sized like the application flash; when a huge
            # image leaves no room for the relocation index, ship without
            # it — the patcher rebuilds the index in RAM on first use
            blob = image.to_flash_blob(include_index=False)
        self.external_flash.store(blob)
        self._original = None  # re-read the chip on next boot

    def deploy_blob(self, blob: bytes) -> None:
        """Store a ready-made external-flash blob (the artifact fast path).

        The blob is byte-identical to what :meth:`deploy` would have
        stored for the same preprocessed HEX — it was captured off a
        cold deployment and content-addressed by the artifact cache —
        so the decode/encode round-trip is skipped without changing a
        single byte on the chip.
        """
        self.external_flash.store(blob)
        self._original = None  # re-read the chip on next boot

    def _original_image(self) -> FirmwareImage:
        if self._original is None:
            blob = self.external_flash.read_all()
            if not blob:
                raise DefenseError("no application deployed on the external flash")
            image = _parsed_blob(blob)
            self.backend.check_deployable(image)
            self._original = image
        return self._original

    # -- boot sequence --------------------------------------------------------

    def boot(self, attack_detected: bool = False) -> float:
        """Power the system up (or recover it); returns startup overhead ms.

        The randomize step uses the relocation-index fast path (the index
        rode in on the external-flash blob), and the ISP transfer is
        differential: only pages the shuffle actually changed cross the
        wire, so a re-randomization costs a fraction of the Table II full
        transfer.
        """
        telemetry = self.telemetry
        with telemetry.span("mavr.boot", attack_detected=attack_detected) as span:
            original = self._original_image()
            overhead_ms = 0.0
            randomized_this_boot = False
            if attack_detected and not self.backend.reflashes_on_detection:
                # zero-reflash recovery: the backend repairs the running
                # core in place, no page crosses the ISP link
                with telemetry.span("mavr.recover", backend=self.backend.name):
                    overhead_ms = self.backend.recover(self)
            elif self.backend.should_diversify(
                self.policy, self.stats.boots, attack_detected
            ):
                randomized_this_boot = True
                with telemetry.span("mavr.randomize"):
                    randomized, permutation = self.backend.diversify(
                        original, self.rng
                    )
                with telemetry.span("mavr.reflash"):
                    overhead_ms = self.isp.program(
                        self.autopilot.cpu.flash, randomized.code
                    )
                self.autopilot.adopt_image(randomized)
                self.current_image = randomized
                self.last_permutation = permutation
                self.stats.randomizations += 1
            else:
                self.autopilot.reset()
            self.stats.boots += 1
            self.stats.last_startup_overhead_ms = overhead_ms
            if overhead_ms:
                self.stats.startup_overheads_ms.append(overhead_ms)
                self._startup_hist.observe(overhead_ms)
            isp_stats = self.isp.stats
            self.stats.flash_cycles_remaining = self.isp.remaining_cycles
            self.stats.last_pages_written = isp_stats.last_pages_written
            self.stats.last_pages_skipped = isp_stats.last_pages_skipped
            self.stats.last_bytes_on_wire = isp_stats.last_bytes_on_wire
            self.monitor = WatchdogMonitor(self.autopilot.feed, self.watchdog_config)
            if span is not None:
                span.attrs.update(
                    randomized=randomized_this_boot, overhead_ms=overhead_ms
                )
        return overhead_ms

    # -- runtime monitoring ------------------------------------------------------

    def watch(self) -> bool:
        """One monitoring pass; on a detected failure, recover per backend.

        Detection is the union of a crashed core, watchdog silence, and
        the backend's own integrity probe.  Recovery is the backend's
        call: re-diversify + reflash (mavr/daedalus) or an in-place
        context restore (ctomp).  Healthy passes give the backend a
        checkpointing opportunity.  Returns True when a failure was
        detected and handled.
        """
        crashed = self.autopilot.status.value == "crashed"
        now_cycles = self.autopilot.cpu.cycles
        silent = not self.monitor.check(now_cycles)
        corrupted = not (crashed or silent) and self.backend.check(self)
        if crashed or silent or corrupted:
            telemetry = self.telemetry
            if silent:
                telemetry.emit(
                    "watchdog.starved",
                    now_cycles=now_cycles,
                    last_feed_cycle=self.monitor.feed.last_feed_cycle,
                    window_cycles=self.monitor.config.window_cycles,
                )
            if crashed and self.autopilot.crash is not None:
                crash = self.autopilot.crash
                telemetry.emit(
                    "autopilot.crashed", reason=crash.reason,
                    pc_bytes=crash.pc_bytes, cycle=crash.cycle,
                )
            cause = (
                "crash" if crashed
                else "watchdog_silence" if silent
                else "integrity"
            )
            telemetry.emit("attack.detected", cause=cause, boots=self.stats.boots)
            self.stats.attacks_detected += 1
            if self.flight_recorder is not None:
                crash = self.autopilot.crash
                self.last_forensic_bundle = self.flight_recorder.bundle(
                    reason=f"attack detected ({cause})",
                    kind="attack_detected",
                    symbols=self.autopilot.debug_symbols,
                    telemetry=telemetry,
                    profiler=self.profiler,
                    fault_pc=(
                        crash.pc_bytes if crashed and crash is not None else None
                    ),
                )
            with telemetry.span("mavr.rerandomize", cause=cause):
                self.boot(attack_detected=True)
            return True
        self.backend.observe_healthy(self)
        return False

    def run(self, ticks: int, watch_every: int = 10) -> int:
        """Drive the autopilot with periodic monitoring; returns detections."""
        detections = 0
        with self.telemetry.span(
            "mavr.run", ticks=ticks, watch_every=watch_every
        ) as span:
            for tick_index in range(ticks):
                self.autopilot.tick()
                if (tick_index + 1) % watch_every == 0:
                    if self.watch():
                        detections += 1
            if span is not None:
                span.attrs["detections"] = detections
        return detections

    # -- reporting ----------------------------------------------------------------

    def startup_overhead_ms(self) -> float:
        """Overhead of one full randomize+program cycle (Table II).

        A timing-model dry run: it prices the full sequential transfer of
        the deployed image without touching the application flash, the
        wear budget, or the boot/randomization counters.  (It used to
        *perform* a forced re-randomization just to read a number back —
        burning a flash write cycle and inflating the stats per call.)
        """
        image = self._original_image()
        return self.isp.estimate_full_ms(len(image.code))
