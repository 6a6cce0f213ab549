"""The program's layers as the benchmark sees them, timed from outside.

A layer is a package under ``src/repro``.  Two kinds of instrument are
installed by wrapping public entry points, never by editing the program:

* :class:`ScenarioProbe` is always on.  It wraps the scenario entry the
  campaign runner calls, the AVR core's constructor and the master's
  boot, so every result comes back carrying its host time, instructions
  retired, recoveries, host speed and the peak RSS of the process that
  ran it.  It adds a handful of calls per scenario and none per tick.
* :func:`install_tracer` wraps every layer's entry points in spans for
  the traced run, plus counters read at the same boundaries.

Methods are wrapped on their classes.  Functions are replaced in every
module that imported them by name (``core.master`` holds its own
``build_relocation_index``); the scenario entry is replaced only where
``repro.sim.campaign`` looks it up, which also reaches forked workers.
"""

from __future__ import annotations

import functools
import hashlib
import resource
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro.sim.campaign as campaign_module
from repro.attack.gadgets import GadgetFinder
from repro.attack.registry import attack_kinds
from repro.avr.cpu import AvrCpu
from repro.binfmt import relocindex
from repro.binfmt.image import FirmwareImage
from repro.core.defenses import DefenseBackend
from repro.core.master import MasterProcessor
from repro.core.mavr import MavrSystem
from repro.firmware import apps
from repro.hw.isp import IspProgrammer
from repro.mavlink.attacks import ProtocolSession
from repro.sim import scenario as scenario_module
from repro.sim.artifacts import ArtifactCache
from repro.sim.scenario import Board
from repro.uav.autopilot import Autopilot
from repro.uav.groundstation import GcsAnomalyDetector, GroundStation

from measure import REFERENCE_MS, Patches, SpeedGauge, Tracer, covered, self_times

LAYERS = ("avr", "uav", "mavlink", "attack", "core", "hw", "binfmt", "firmware", "sim")

#: engine counters summed over a scenario's cores, where the engine has them
ENGINE_COUNTERS = ("decode_misses", "blocks_built", "compiled_built")

#: result attribute the probe attaches its sample to
SAMPLE_ATTR = "perfbench_sample"


@dataclass
class ScenarioSample:
    """What one scenario cost, measured in the process that ran it."""

    host_ms: float
    insn: int
    maxrss_kb: int
    #: host speed around the scenario (SpeedGauge readings before and after)
    probe_ms: float
    #: time this scenario's wrapper spent probing, outside host_ms
    probe_spent_ms: float
    #: (simulated ms, pages written) per recovery boot
    recoveries: List[Tuple[float, int]] = field(default_factory=list)
    #: the ENGINE_COUNTERS (plus compile_ms) that the active engine has
    engine: Dict[str, float] = field(default_factory=dict)

    @property
    def speed_factor(self) -> float:
        """Multiplier from host time to time at reference speed."""
        return REFERENCE_MS / self.probe_ms

    @property
    def reference_ms(self) -> float:
        return self.host_ms * self.speed_factor


def sample_of(result) -> Optional[ScenarioSample]:
    return getattr(result, SAMPLE_ATTR, None)


def _engine_counters(cpus: Sequence[AvrCpu]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for cpu in cpus:
        engine = cpu.engine
        for name in ENGINE_COUNTERS:
            if hasattr(engine, name):
                totals[name] = totals.get(name, 0) + getattr(engine, name)
        if hasattr(engine, "compile_times_ms"):
            totals["compile_ms"] = (
                totals.get("compile_ms", 0.0) + sum(engine.compile_times_ms)
            )
    return totals


class ScenarioProbe:
    """Per-scenario host time, instructions, recoveries, speed and RSS."""

    def __init__(self) -> None:
        self.patches = Patches()
        self.gauge = SpeedGauge()
        self._cpus: List[AvrCpu] = []
        self._recoveries: List[Tuple[float, int]] = []

    def install(self) -> "ScenarioProbe":
        self.patches.method(AvrCpu, "__init__", self._registering)
        self.patches.method(MasterProcessor, "boot", self._recording)
        for name in ("run_scenario", "run_swarm_scenario"):
            self.patches.function(campaign_module, name, self._timed)
        return self

    def _registering(self, init):
        cpus = self._cpus

        @functools.wraps(init)
        def registering(cpu, *args, **kwargs):
            init(cpu, *args, **kwargs)
            cpus.append(cpu)

        return registering

    def _recording(self, boot):
        recoveries = self._recoveries

        @functools.wraps(boot)
        def recording(master, attack_detected=False):
            pages = master.isp.stats.pages_written
            overhead_ms = boot(master, attack_detected)
            if attack_detected:
                recoveries.append(
                    (overhead_ms, master.isp.stats.pages_written - pages)
                )
            return overhead_ms

        return recording

    def _timed(self, play):
        cpus, recoveries, gauge = self._cpus, self._recoveries, self.gauge

        @functools.wraps(play)
        def timed(*args, **kwargs):
            before, spent = gauge.read()
            cpus.clear()
            recoveries.clear()
            start = time.perf_counter()
            result = play(*args, **kwargs)
            host_ms = (time.perf_counter() - start) * 1000.0
            # a scenario longer than the probe interval is bracketed by a
            # fresh reading, which the next scenario then reuses
            after, spent_after = gauge.read()
            setattr(result, SAMPLE_ATTR, ScenarioSample(
                host_ms=host_ms,
                insn=sum(
                    cpu.instructions_lifetime + cpu.instructions_retired
                    for cpu in cpus
                ),
                maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                probe_ms=(before + after) / 2.0,
                probe_spent_ms=spent + spent_after,
                recoveries=list(recoveries),
                engine=_engine_counters(cpus),
            ))
            cpus.clear()
            recoveries.clear()
            return result

        return timed


# -- the traced run ---------------------------------------------------------

#: per-layer metrics that sum the self time of the spans named
SELF_TIME_METRICS = {
    "avr.busy_ms": ("AvrCpu.run",),
    "uav.tick_self_ms": ("Autopilot.tick",),
    "uav.detector_ms": ("GcsAnomalyDetector.observe",),
    "uav.monitor_ms": ("GroundStation.ingest",),
    "mavlink.session_self_ms": ("ProtocolSession.run",),
    "attack.inject_self_ms": ("AttackKind.inject",),
    "attack.gadget_scan_ms": ("GadgetFinder.gadgets",),
    "core.preprocess_ms": ("DefenseBackend.preprocess",),
    "core.diversify_ms": ("DefenseBackend.diversify",),
    "core.boot_self_ms": ("MasterProcessor.boot",),
    "core.watch_self_ms": ("MasterProcessor.watch",),
    "hw.program_ms": ("IspProgrammer.program",),
    "binfmt.codec_ms": (
        "FirmwareImage.to_preprocessed_hex", "FirmwareImage.from_preprocessed_hex",
        "FirmwareImage.to_flash_blob", "FirmwareImage.from_flash_blob",
    ),
    "binfmt.reloc_index_ms": ("build_relocation_index",),
    "firmware.build_ms": ("build_app", "build_program"),
    "sim.scenario_self_ms": ("scenario",),
    "sim.cache_ms": (
        "ArtifactCache.get_bytes", "ArtifactCache.put_bytes",
        "ArtifactCache.get_object", "ArtifactCache.put_object",
    ),
    "sim.snapshot_ms": ("MavrSystem.capture_snapshot", "MavrSystem.from_snapshot"),
}

#: per-layer metrics that count the spans named
SPAN_COUNT_METRICS = {
    "avr.run_calls": "AvrCpu.run",
    "uav.ticks": "Autopilot.tick",
    "core.diversifications": "DefenseBackend.diversify",
    "core.watches": "MasterProcessor.watch",
    "hw.programs": "IspProgrammer.program",
    "firmware.builds": "build_program",
}

#: counters the entry-point wrappers add to while tracing
TRACE_COUNTERS = (
    "avr.insn", "avr.flash_generations", "uav.detector_frames",
    "mavlink.frames", "mavlink.attack_frames", "attack.gadget_scans",
    "attack.images_scanned", "core.recoveries", "core.recovery_host_ms",
    "hw.pages_written", "hw.pages_skipped", "hw.bytes_on_wire",
)


def _counting_run(counts, run):
    generations = weakref.WeakKeyDictionary()

    def counted(cpu, *args, **kwargs):
        generation = cpu.flash.generation
        if generations.get(cpu) != generation:
            generations[cpu] = generation
            counts["avr.flash_generations"] += 1
        before = cpu.instructions_lifetime + cpu.instructions_retired
        try:
            return run(cpu, *args, **kwargs)
        finally:
            counts["avr.insn"] += (
                cpu.instructions_lifetime + cpu.instructions_retired - before
            )

    return counted


def _counting_observe(counts, observe):
    def counted(detector, *args, **kwargs):
        packets = observe(detector, *args, **kwargs)
        counts["uav.detector_frames"] += len(packets)
        return packets

    return counted


def _counting_session(counts, run):
    def counted(session, *args, **kwargs):
        try:
            return run(session, *args, **kwargs)
        finally:
            attack = session.attacker.frames_sent if session.attacker else 0
            counts["mavlink.frames"] += session.benign_frames + attack
            counts["mavlink.attack_frames"] += attack

    return counted


def _counting_gadgets(counts, gadgets):
    scanned = weakref.WeakSet()  # a finder scans on its first call only
    images = set()

    def counted(finder, *args, **kwargs):
        if finder not in scanned:
            scanned.add(finder)
            counts["attack.gadget_scans"] += 1
            digest = hashlib.blake2b(finder.image.code, digest_size=16).digest()
            if digest not in images:
                images.add(digest)
                counts["attack.images_scanned"] += 1
        return gadgets(finder, *args, **kwargs)

    return counted


def _counting_program(counts, program):
    def counted(isp, *args, **kwargs):
        elapsed = program(isp, *args, **kwargs)
        stats = isp.stats
        counts["hw.pages_written"] += stats.last_pages_written
        counts["hw.pages_skipped"] += stats.last_pages_skipped
        counts["hw.bytes_on_wire"] += stats.last_bytes_on_wire
        return elapsed

    return counted


def _counting_boot(counts, boot):
    def counted(master, attack_detected=False):
        start = time.perf_counter()
        try:
            return boot(master, attack_detected)
        finally:
            if attack_detected:
                counts["core.recoveries"] += 1
                counts["core.recovery_host_ms"] += (
                    time.perf_counter() - start
                ) * 1000.0

    return counted


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found += _subclasses(sub)
    return found


def install_tracer(tracer: Tracer, counts: Dict[str, float]) -> Patches:
    """Wrap every layer's entry points in spans; returns the patches to
    restore when the traced section ends."""
    patches = Patches()

    def method(cls, name, layer, label=None, counting=None):
        label = label or f"{cls.__name__}.{name}"

        def wrap(fn):
            inner = counting(counts, fn) if counting is not None else fn
            return tracer.wrap(label, layer, inner)

        patches.method(cls, name, wrap)

    def function(module, name, layer, label=None, everywhere=True):
        patches.function(
            module, name,
            lambda fn: tracer.wrap(label or name, layer, fn),
            everywhere=everywhere,
        )

    method(AvrCpu, "__init__", "avr")
    method(AvrCpu, "run", "avr", counting=_counting_run)
    method(Autopilot, "__init__", "uav")
    method(Autopilot, "tick", "uav")
    method(GcsAnomalyDetector, "observe", "uav", counting=_counting_observe)
    method(GroundStation, "ingest", "uav")
    method(ProtocolSession, "__init__", "mavlink")
    method(ProtocolSession, "run", "mavlink", counting=_counting_session)
    method(ProtocolSession, "outcome", "mavlink")
    method(GadgetFinder, "gadgets", "attack", counting=_counting_gadgets)
    for kind in attack_kinds():
        if kind.inject is not None:
            patches.field(
                kind, "inject",
                lambda fn: tracer.wrap("AttackKind.inject", "attack", fn),
            )
    method(MavrSystem, "__init__", "core")
    for name in ("deploy", "deploy_blob", "watch", "run"):
        method(MasterProcessor, name, "core")
    method(MasterProcessor, "boot", "core", counting=_counting_boot)
    for backend in _subclasses(DefenseBackend):
        for name in ("preprocess", "diversify"):
            if name in backend.__dict__:
                method(backend, name, "core", label=f"DefenseBackend.{name}")
    method(IspProgrammer, "program", "hw", counting=_counting_program)
    for name in (
        "to_preprocessed_hex", "from_preprocessed_hex",
        "to_flash_blob", "from_flash_blob",
    ):
        method(FirmwareImage, name, "binfmt")
    function(relocindex, "build_relocation_index", "binfmt")
    function(apps, "build_app", "firmware")
    function(apps, "build_program", "firmware")
    for name in ("run_scenario", "run_swarm_scenario"):
        function(campaign_module, name, "sim", label="scenario", everywhere=False)
    function(scenario_module, "load_spec_image", "sim")
    method(Board, "__init__", "sim")
    method(Board, "run", "sim")
    for name in ("get_bytes", "put_bytes", "get_object", "put_object"):
        method(ArtifactCache, name, "sim")
    method(MavrSystem, "capture_snapshot", "sim")
    method(MavrSystem, "from_snapshot", "sim")
    return patches


def _ratio(part: float, whole: float) -> Optional[float]:
    return part / whole if whole else None


def layer_metrics(
    tracer: Tracer,
    counts: Dict[str, float],
    samples: Sequence[ScenarioSample],
    cache_counts: dict,
    wall_s: float,
    pool_ms: float,
    overhead_ratio: float,
) -> Dict[str, Optional[float]]:
    """Per-layer metrics of a traced run; None marks not applicable."""
    spans = tracer.spans
    by_name: Dict[str, float] = defaultdict(float)
    by_layer: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        by_name[span[0]] += own * 1000.0
        by_layer[span[1]] += own * 1000.0
        calls[span[0]] += 1

    metrics: Dict[str, Optional[float]] = {
        f"{layer}.self_ms": by_layer.get(layer, 0.0) for layer in LAYERS
    }
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = sum(by_name.get(name, 0.0) for name in names)
    for metric, name in SPAN_COUNT_METRICS.items():
        metrics[metric] = calls[name]
    for name in TRACE_COUNTERS:
        metrics[name] = counts.get(name, 0)

    metrics["avr.ns_per_insn"] = (
        metrics["avr.busy_ms"] * 1e6 / metrics["avr.insn"]
        if metrics["avr.insn"] else None
    )
    for name in ENGINE_COUNTERS + ("compile_ms",):
        exposed = [s.engine[name] for s in samples if name in s.engine]
        metrics[f"avr.{name}"] = sum(exposed) if exposed else None
    metrics["hw.page_skip_ratio"] = _ratio(
        metrics["hw.pages_skipped"],
        metrics["hw.pages_written"] + metrics["hw.pages_skipped"],
    )
    hits, misses = cache_counts.get("hits", {}), cache_counts.get("misses", {})
    for kind in ("build", "deploy", "board"):
        metrics[f"sim.cache_hit_ratio.{kind}"] = _ratio(
            hits.get(kind, 0), hits.get(kind, 0) + misses.get(kind, 0)
        )
    metrics["sim.snapshot_reuse_ratio"] = _ratio(
        calls["MavrSystem.from_snapshot"], calls["MavrSystem.capture_snapshot"]
    )

    used = {span[1] for span in spans}
    for name in metrics:
        if name.split(".", 1)[0] not in used:
            metrics[name] = None
    metrics["sim.pool_ms"] = pool_ms
    metrics["sim.unattributed_ms"] = (wall_s - covered(spans)) * 1000.0
    metrics["trace.wall_ms"] = wall_s * 1000.0
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics
