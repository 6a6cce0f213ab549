"""Declarative board scenarios: spec -> lifecycle -> structured result.

A :class:`ScenarioSpec` describes one complete experiment — which
application, which execution engine, protected or not, which attack
variant with which parameters, and the tick/step budget.  It is a frozen
dataclass of plain builtins, so it pickles across process boundaries and
serializes into campaign JSONL records verbatim.

:class:`Board` owns construction: it is the only place in the codebase
that wires an :class:`~repro.uav.autopilot.Autopilot` or
:class:`~repro.core.mavr.MavrSystem` together with a
:class:`~repro.telemetry.Telemetry` handle from a spec.  Higher layers
(analysis campaigns, the CLI, integration fixtures, benchmarks) never
call those constructors directly.

:func:`run_scenario` plays a spec end to end and returns a
:class:`ScenarioResult` whose fields are deterministic functions of the
spec — no wall-clock time, no process identity — which is what makes
serial and parallel campaign runs bit-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..attack.registry import attack_kind, attack_names
from ..avr.engine import DEFAULT_ENGINE
from ..avr.profile import PROFILE_MODES
from ..binfmt.image import FirmwareImage
from ..binfmt.symtab import Symbol, SymbolTable
from ..core.defenses import DEFENSE_BACKENDS
from ..telemetry import Telemetry, jsonable
from .artifacts import ArtifactCache, artifact_key, get_cache

#: attack kinds a spec may name (``None`` = fly clean); derived from the
#: attack registry, whose registration order defines CLI choice order
ATTACK_VARIANTS = attack_names()

_SEED_SPACE = 2**31


def derive_seed(base_seed: int, index: int, stream: str = "") -> int:
    """Deterministic per-spec seed: stable across processes and sessions.

    Python's builtin ``hash`` is randomized per interpreter, so campaign
    workers derive sub-seeds with BLAKE2b over ``(base_seed, index,
    stream)`` instead.  The same arguments always yield the same seed,
    which is the foundation of the serial-vs-parallel determinism
    contract.
    """
    digest = hashlib.blake2b(
        f"{base_seed}:{index}:{stream}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % _SEED_SPACE


def seeded_specs(spec_type, count: int, seed: int, label: str, **fields):
    """``count`` specs of ``spec_type``, each seeded from ``seed``.

    The one place campaigns derive per-scenario seeds: spec *i* gets board
    seed ``derive_seed(seed, i, "board")``, attacker seed
    ``derive_seed(seed, i, "attack")`` and label ``f"{label}-{i}"``.
    ``fields`` are shared by every spec — e.g. ``app``/``attack``, or
    ``image_hex`` for a custom image.
    """
    return [
        spec_type(
            seed=derive_seed(seed, index, "board"),
            attack_seed=derive_seed(seed, index, "attack"),
            label=f"{label}-{index}",
            **fields,
        )
        for index in range(count)
    ]


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment, as data.

    The app is named (rebuilt from the deterministic manifest cache in
    each worker process) or carried inline as preprocessed HEX
    (``image_hex``, for images that exist only in the parent — e.g. a
    test fixture).  Everything else is an override over the defaults the
    hand-wired drivers used to repeat.
    """

    # -- firmware ---------------------------------------------------------
    app: str = "testapp"
    toolchain: str = "mavr"
    vulnerable: bool = True
    image_hex: Optional[str] = None  # overrides the named build when given

    # -- board ------------------------------------------------------------
    protected: bool = True           # defended system vs bare autopilot
    defense: str = "mavr"            # backend name (DEFENSE_BACKENDS)
    engine: str = DEFAULT_ENGINE
    seed: int = 1                    # board-side randomization seed
    randomize_every_boots: int = 1   # RandomizationPolicy override
    watchdog_period_cycles: int = 100_000
    watchdog_missed_periods: int = 4
    link_baud: Optional[int] = None  # ProgrammingLink override

    # -- attack -----------------------------------------------------------
    attack: Optional[str] = None     # one of ATTACK_VARIANTS, or None
    attack_seed: int = 0             # layout seed for guess/oracle attackers
    target_variable: str = "gyro_offset"
    values: bytes = b"\x40\x00\x00"

    # -- budget -----------------------------------------------------------
    warmup_ticks: int = 10
    observe_ticks: int = 150
    watch_every: int = 5

    # -- faults and observability ----------------------------------------
    fault: Optional[str] = None      # "wild_jump" | "silence"
    telemetry: bool = False
    profile: Optional[str] = None    # PC profiler mode, or None (off)
    flight_recorder: bool = False    # ring-buffer forensics on the core
    label: str = ""
    # test-only: path of a marker file; a campaign *worker* seeing no
    # marker creates it and dies hard (simulating a worker crash), the
    # retry sees the marker and proceeds.  Ignored outside worker
    # processes so serial runs stay safe.
    worker_fault_marker: Optional[str] = None

    def __post_init__(self) -> None:
        if self.defense not in DEFENSE_BACKENDS:
            raise ValueError(
                f"unknown defense backend {self.defense!r}; "
                f"expected one of {DEFENSE_BACKENDS}"
            )
        if self.attack is not None:
            kind = attack_kind(self.attack)  # raises on an unknown name
            if kind.validate is not None:
                kind.validate(self)
        if self.fault not in (None, "wild_jump", "silence"):
            raise ValueError(f"unknown fault {self.fault!r}")
        if self.profile is not None and self.profile not in PROFILE_MODES:
            raise ValueError(
                f"unknown profile mode {self.profile!r}; "
                f"expected one of {PROFILE_MODES}"
            )

    def to_record(self) -> dict:
        """JSON-ready spec (bytes become hex via the shared serializer)."""
        record = jsonable(self)
        record.pop("image_hex", None)  # bulky and binary-equivalent to app
        record.pop("worker_fault_marker", None)
        return record


#: inline-image decode cache: bounded, content-keyed LRU.  The key is the
#: BLAKE2b digest of the preprocessed HEX payload itself, so two specs
#: carrying byte-identical firmware share one decode and a long-lived
#: process can never grow it past the bound.
_IMAGE_CACHE: "OrderedDict[str, FirmwareImage]" = OrderedDict()
_IMAGE_CACHE_LIMIT = 16


def _cached_inline_image(image_hex: str) -> FirmwareImage:
    key = hashlib.blake2b(
        image_hex.encode("ascii"), digest_size=16
    ).hexdigest()
    image = _IMAGE_CACHE.get(key)
    if image is None:
        image = _IMAGE_CACHE[key] = FirmwareImage.from_preprocessed_hex(
            image_hex
        )
    else:
        _IMAGE_CACHE.move_to_end(key)
    while len(_IMAGE_CACHE) > _IMAGE_CACHE_LIMIT:
        _IMAGE_CACHE.popitem(last=False)
    return image


def load_spec_image(
    spec: ScenarioSpec, cache: Optional[ArtifactCache] = None
) -> FirmwareImage:
    """Resolve the spec's firmware image (cached per process).

    Named apps go through :func:`repro.firmware.build_app`'s own cache;
    inline images are decoded from the preprocessed HEX once per distinct
    payload (bounded LRU).  With an artifact ``cache`` the built image is
    also shared *across* processes — a fresh pool worker unpickles the
    build artifact instead of paying the toolchain.  Serial and parallel
    campaign paths both resolve through here, so every run sees
    byte-identical firmware.
    """
    if spec.image_hex is not None:
        return _cached_inline_image(spec.image_hex)
    if cache is not None:
        key = _build_key(spec)
        image = cache.get_object(key)
        if image is not None:
            return image
    from ..asm.linker import TOOLCHAINS
    from ..firmware import build_app, manifest_by_name

    image = build_app(
        manifest_by_name(spec.app), TOOLCHAINS[spec.toolchain],
        vulnerable=spec.vulnerable,
    )
    if cache is not None:
        cache.put_object(_build_key(spec), image)
    return image


# -- artifact-cache keys -----------------------------------------------------

def _firmware_fields(spec: ScenarioSpec) -> dict:
    """The spec fields that determine the built firmware bytes."""
    fields = {
        "app": spec.app,
        "toolchain": spec.toolchain,
        "vulnerable": spec.vulnerable,
    }
    if spec.image_hex is not None:
        fields["image_hex"] = hashlib.blake2b(
            spec.image_hex.encode("ascii"), digest_size=16
        ).hexdigest()
    return fields


def _build_key(spec: ScenarioSpec) -> str:
    return artifact_key("build", layout=_build_layout(), **_firmware_fields(spec))


def _build_layout() -> str:
    """Fingerprint of the instance layouts a pickled build artifact holds.

    A build artifact is a pickled :class:`FirmwareImage`.  One written
    under an older layout of these classes unpickles fine into objects
    that lack attributes the current code reads, so the layouts (dataclass
    field names, and the attributes of a fresh :class:`SymbolTable`) are
    part of the key: a layout change addresses a new file.
    """
    from ..binfmt.relocindex import PatchSite, RelocationIndex

    layouts = [
        (cls.__name__, [f.name for f in dataclasses.fields(cls)])
        for cls in (FirmwareImage, Symbol, RelocationIndex, PatchSite)
    ]
    layouts.append((SymbolTable.__name__, sorted(vars(SymbolTable()))))
    digest = hashlib.blake2b(repr(layouts).encode("utf-8"), digest_size=8)
    return digest.hexdigest()


def _deploy_key(spec: ScenarioSpec) -> str:
    """Key of the external-flash blob (firmware x defense backend)."""
    return artifact_key(
        "deploy", defense=spec.defense, **_firmware_fields(spec)
    )


#: lifecycle phases, in execution order — the keys of every phase breakdown
PHASE_ORDER = (
    "build", "preprocess", "program", "boot", "warmup", "attack", "run"
)


class PhaseRecorder:
    """Dual-clock attribution of one scenario's lifecycle phases.

    ``host_ms`` is wall time the worker actually paid (nondeterministic:
    it depends on the machine and the process mix, so it never enters a
    JSONL record field that must be byte-identical across runners);
    ``sim_ms`` is simulated time (deterministic: cycle counts and the ISP
    timing model are pure functions of the spec).  Aggregated across a
    campaign this is the measurement that says *which* phase swamps the
    workers — the attribution the parallel-speedup work is blocked on.
    """

    def __init__(self) -> None:
        self.phases: Dict[str, List[float]] = {}  # name -> [host_s, sim_ms]

    def record(self, name: str, host_s: float, sim_ms: float = 0.0) -> None:
        cell = self.phases.get(name)
        if cell is None:
            self.phases[name] = [host_s, sim_ms]
        else:
            cell[0] += host_s
            cell[1] += sim_ms

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready breakdown in :data:`PHASE_ORDER` order."""
        out: Dict[str, Dict[str, float]] = {}
        for name in PHASE_ORDER:
            cell = self.phases.get(name)
            if cell is None:
                continue
            out[name] = {
                "host_ms": round(cell[0] * 1000.0, 3),
                "sim_ms": round(cell[1], 6),
            }
        return out

    def emit_spans(self, telemetry: Telemetry) -> None:
        """Publish the breakdown as ``scenario.phase`` marker spans.

        The measured values ride as span attrs (the span's own duration
        is ~0 — the phases were timed externally), so they travel through
        ``Telemetry.merge`` back to the campaign parent like any other
        worker span.
        """
        if not telemetry.enabled:
            return
        for name, cell in self.snapshot().items():
            with telemetry.span(
                "scenario.phase", phase=name,
                host_ms=cell["host_ms"], sim_ms=cell["sim_ms"],
            ):
                pass


class Board:
    """Lifecycle object owning one simulated board built from a spec.

    For a protected spec this wires ``Autopilot`` + ``MasterProcessor``
    inside a :class:`~repro.core.mavr.MavrSystem` with the spec's policy,
    watchdog and link overrides; for an unprotected spec it is a bare
    ``Autopilot``.  Either way there is exactly one ``Telemetry`` handle,
    created here (or passed in by a caller who wants the JSONL sink open
    before boot).  With an artifact ``cache`` a protected board loads the
    deploy blob from it instead of running the preprocess pass, or
    publishes the blob it deployed for the next worker.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        telemetry: Optional[Telemetry] = None,
        image: Optional[FirmwareImage] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        from ..core import MavrSystem, RandomizationPolicy, WatchdogConfig
        from ..hw.serialbus import PROTOTYPE_LINK, ProgrammingLink
        from ..uav.autopilot import Autopilot

        self.spec = spec
        if image is not None:
            cache = None  # a caller-transformed image is never cacheable
        self.image = image if image is not None else load_spec_image(spec, cache)
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(enabled=spec.telemetry)
        )
        if spec.protected:
            link = (
                ProgrammingLink(baud=spec.link_baud)
                if spec.link_baud is not None else PROTOTYPE_LINK
            )
            policy = RandomizationPolicy(spec.randomize_every_boots)
            watchdog = WatchdogConfig(
                expected_period_cycles=spec.watchdog_period_cycles,
                missed_periods_threshold=spec.watchdog_missed_periods,
            )
            deploy_blob = (
                cache.get_bytes(_deploy_key(spec)) if cache is not None else None
            )
            self.system: Optional[MavrSystem] = MavrSystem(
                self.image,
                policy=policy,
                link=link,
                watchdog=watchdog,
                seed=spec.seed,
                telemetry=self.telemetry,
                engine=spec.engine,
                defense=spec.defense,
                deploy_blob=deploy_blob,
            )
            if cache is not None and deploy_blob is None:
                # publish the chip contents for the next worker; the blob
                # is exactly what deploy() stored, fallback decisions
                # included
                cache.put_bytes(
                    _deploy_key(spec),
                    self.system.master.external_flash.read_all(),
                )
            self.autopilot = self.system.autopilot
        else:
            self.system = None
            self.autopilot = Autopilot(self.image, engine=spec.engine)
        self.profiler = None
        self.recorder = None

    # -- lifecycle --------------------------------------------------------

    def attach_observers(self) -> None:
        """Attach the spec's profiler / flight recorder to the live core.

        Called after the first boot so function attribution uses the
        *running* (possibly randomized) layout's symbols.  The hooks live
        on the CPU object, which persists across reflashes — but a mid-run
        re-randomization does shift the layout out from under the
        profiler's function table (documented caveat in
        docs/OBSERVABILITY.md).
        """
        from ..avr.profile import AvrProfiler
        from ..avr.trace import FlightRecorder

        spec = self.spec
        cpu = self.autopilot.cpu
        if spec.profile is not None and self.profiler is None:
            self.profiler = AvrProfiler(
                mode=spec.profile,
                symbols=self.autopilot.debug_symbols,
                telemetry=self.telemetry,
            ).attach(cpu, cpu.engine)
            if self.system is not None:
                self.system.master.profiler = self.profiler
        if spec.flight_recorder and self.recorder is None:
            self.recorder = FlightRecorder().attach(cpu)
            if self.system is not None:
                self.system.master.flight_recorder = self.recorder

    def forensic_bundle(
        self, reason: str, kind: str = "manual", fault_pc: Optional[int] = None
    ) -> Optional[dict]:
        """The forensic bundle for this board, or ``None`` (no recorder).

        Prefers the bundle the master froze at detection time (captured
        *before* recovery rebooted the core) over a fresh post-run one.
        """
        if self.recorder is None:
            return None
        if (
            self.system is not None
            and self.system.master.last_forensic_bundle is not None
        ):
            return self.system.master.last_forensic_bundle
        return self.recorder.bundle(
            reason,
            kind=kind,
            symbols=self.autopilot.debug_symbols,
            telemetry=self.telemetry,
            profiler=self.profiler,
            fault_pc=fault_pc,
        )

    def boot(self) -> float:
        """Power on; returns the startup overhead in ms (0 when bare)."""
        if self.system is not None:
            return self.system.boot()
        return 0.0

    def run(self, ticks: int, watch_every: Optional[int] = None) -> int:
        """Fly for ``ticks``; returns the master's detection count (0 bare)."""
        if self.system is not None:
            return self.system.run(
                ticks, watch_every if watch_every is not None else 10
            )
        self.autopilot.run_ticks(ticks)
        return 0

    def inject_fault(self) -> None:
        """Apply the spec's fault to the live board.

        * ``wild_jump`` — point the PC into the middle of ``.text``:
          guaranteed crash or watchdog starvation.
        * ``silence`` — no-op the watchdog-feed GPIO write hook: the
          firmware keeps flying but the master hears nothing (genuine
          starvation, not a crash).
        """
        if self.spec.fault is None:
            return
        if self.spec.fault == "wild_jump":
            running = (
                self.system.running_image if self.system is not None else self.image
            )
            self.autopilot.cpu.pc = (running.size + 64) // 2
        elif self.spec.fault == "silence":
            from ..avr.iospace import FEED_PORT, IO_TO_DATA_OFFSET

            self.autopilot.cpu.data.add_write_hook(
                FEED_PORT + IO_TO_DATA_OFFSET, lambda _address, _value: None
            )

    # -- observation ------------------------------------------------------

    def report(self):
        """The MAVR defense report, or None for an unprotected board."""
        return self.system.report() if self.system is not None else None

    def read_target(self) -> int:
        return self.autopilot.read_variable(self.spec.target_variable)


@dataclass
class ScenarioResult:
    """What happened when one spec was played out.

    Every field is a deterministic function of the spec: results carry
    no wall-clock time and no process identity, so the JSONL record of a
    scenario is byte-identical whether it ran serially, in a worker, or
    on a retry.  (The in-memory ``snapshot`` holds dual-clock spans and
    is therefore excluded from :meth:`to_record`.)
    """

    index: int
    spec: ScenarioSpec
    outcome: str                      # clean|stealthy|landed|deflected|crashed|halted|error
    effect: bool
    detected: bool
    stealthy: bool
    succeeded: bool
    status: str                       # autopilot status after the run
    crash: Optional[dict] = None
    delivered_bytes: int = 0
    link_lost: bool = False
    telemetry_frames_after: int = 0
    boots: int = 0
    randomizations: int = 0
    attacks_detected: int = 0
    startup_overhead_ms: float = 0.0
    profile_anomalies: int = 0
    events: List[dict] = field(default_factory=list)
    snapshot: Optional[dict] = None
    # per-phase time breakdown; host_ms values are wall-clock and thus
    # excluded (with profile/forensics) from the deterministic record
    phases: Dict[str, dict] = field(default_factory=dict)
    profile: Optional[dict] = None
    forensics: Optional[dict] = None
    error: Optional[str] = None
    # protocol-tier verdict (GcsAnomalyDetector + attack effect), or None
    # for memory-tier/clean scenarios; deterministic, enters the record
    detector: Optional[dict] = None
    # per-board breakdown of a swarm scenario, or None for single-board
    swarm: Optional[dict] = None

    @property
    def still_flying(self) -> bool:
        return self.status == "running"

    def to_record(self) -> dict:
        """Deterministic JSON-ready record for the campaign JSONL sink."""
        record = {
            "index": self.index,
            "label": self.spec.label,
            "spec": self.spec.to_record(),
            "outcome": self.outcome,
            "effect": self.effect,
            "detected": self.detected,
            "stealthy": self.stealthy,
            "succeeded": self.succeeded,
            "status": self.status,
            "crash": jsonable(self.crash),
            "delivered_bytes": self.delivered_bytes,
            "link_lost": self.link_lost,
            "telemetry_frames_after": self.telemetry_frames_after,
            "boots": self.boots,
            "randomizations": self.randomizations,
            "attacks_detected": self.attacks_detected,
            "profile_anomalies": self.profile_anomalies,
            "error": self.error,
        }
        # appended (never inserted) so pre-existing memory-tier records
        # stay byte-identical — the registry refactor's pinned contract
        if self.detector is not None:
            record["detector"] = self.detector
        if self.swarm is not None:
            record["swarm"] = self.swarm
        return record


def _classify(
    spec: ScenarioSpec, *, effect: bool, detected: bool, stealthy: bool,
    status: str,
) -> str:
    if spec.attack is None:
        if status == "running":
            return "clean"
        return status
    if effect:
        return "stealthy" if stealthy else "landed"
    if detected:
        return "deflected"
    return status if status != "running" else "no_effect"


def run_scenario(
    spec: ScenarioSpec,
    index: int = 0,
    telemetry: Optional[Telemetry] = None,
    cache: Optional[ArtifactCache] = None,
) -> ScenarioResult:
    """Play one spec end to end: build, boot, attack/fault, observe.

    The protocol mirrors the paper's experiment loop: boot (randomizing
    per policy when protected), fly ``warmup_ticks``, deliver the attack
    or inject the fault, then fly ``observe_ticks`` with the master
    watching every ``watch_every`` ticks, and read the outcome off the
    board.

    Every lifecycle phase is timed into a :class:`PhaseRecorder`
    (host wall time + deterministic simulated time); the breakdown rides
    ``ScenarioResult.phases`` and, when telemetry is enabled, also merges
    back to campaign parents as ``scenario.phase`` spans.

    ``cache`` (an :class:`~repro.sim.artifacts.ArtifactCache`, or a root
    path for one) turns on the campaign fast path: builds and deploy
    blobs are shared across processes.  Every board is still programmed
    and booted, so the cache only ever changes host time — the result
    record and every deterministic phase field are byte-identical with
    caching off, on a cold cache, or on a primed one.
    """
    cache = get_cache(cache)
    host = time.perf_counter
    phases = PhaseRecorder()

    start = host()
    load_spec_image(spec, cache)  # "build": toolchain build / HEX decode
    phases.record("build", host() - start)

    start = host()
    board, base = _build_board(spec, telemetry, cache)
    phases.record("preprocess", host() - start)

    overhead_ms = _boot_with_phases(board, phases)

    cpu = board.autopilot.cpu
    ms_per_cycle = 1000.0 / cpu.clock_hz

    def cpu_total() -> int:
        return cpu.cycles_lifetime + cpu.cycles

    cycles = cpu_total()
    start = host()
    board.run(spec.warmup_ticks)
    phases.record(
        "warmup", host() - start, (cpu_total() - cycles) * ms_per_cycle
    )
    baseline = board.read_target()
    detections_before = _detections(board)

    play = None
    cycles = cpu_total()
    start = host()
    if spec.attack is not None:
        play = attack_kind(spec.attack).inject(spec, board, base)
        phases.record(
            "attack", host() - start, (cpu_total() - cycles) * ms_per_cycle
        )
    board.inject_fault()
    cycles = cpu_total()
    start = host()
    if play is None or not play.observe_done:
        board.run(spec.observe_ticks, spec.watch_every)
    phases.record(
        "run", host() - start, (cpu_total() - cycles) * ms_per_cycle
    )

    status = board.autopilot.status.value
    effect = board.read_target() != baseline
    detected = _detections(board) > detections_before
    attack_outcome = play.outcome if play is not None else None
    protocol_outcome = play.protocol if play is not None else None
    if attack_outcome is not None:
        effect = effect or attack_outcome.succeeded
    stealthy = (
        attack_outcome.stealthy if attack_outcome is not None
        else (effect and status == "running" and not detected)
    )
    succeeded = attack_outcome.succeeded if attack_outcome else effect
    link_lost = attack_outcome.link_lost if attack_outcome else False
    frames_after = (
        attack_outcome.telemetry_frames_after if attack_outcome else 0
    )
    detector_record = None
    if protocol_outcome is not None:
        # protocol tier: the link attack's effect and the GCS detector's
        # verdict replace the memory-tier SRAM readout
        effect = protocol_outcome.effect
        succeeded = protocol_outcome.effect
        detected = detected or protocol_outcome.detected
        link_lost = protocol_outcome.link_lost
        frames_after = protocol_outcome.telemetry_frames
        stealthy = (
            effect and status == "running"
            and not detected and not link_lost
        )
        detector_record = protocol_outcome.record()
    crash = jsonable(board.autopilot.crash) if board.autopilot.crash else None

    report = board.report()
    result = ScenarioResult(
        index=index,
        spec=spec,
        outcome=_classify(
            spec, effect=effect, detected=detected, stealthy=stealthy,
            status=status,
        ),
        effect=effect,
        detected=detected,
        stealthy=stealthy,
        succeeded=succeeded,
        status=status,
        crash=crash,
        delivered_bytes=play.delivered_bytes if play is not None else 0,
        link_lost=link_lost,
        telemetry_frames_after=frames_after,
        boots=report.boots if report else 1,
        randomizations=report.randomizations if report else 0,
        attacks_detected=report.attacks_detected if report else 0,
        startup_overhead_ms=overhead_ms,
        detector=detector_record,
    )
    result.phases = phases.snapshot()
    if board.profiler is not None:
        result.profile = board.profiler.snapshot()
        result.profile_anomalies = board.profiler.anomaly_count
    if board.recorder is not None and (
        crash is not None or detected or result.profile_anomalies
    ):
        kind = (
            "cpu_fault" if crash is not None
            else "attack_detected" if detected
            else "profile_anomaly"
        )
        reason = (
            crash["reason"] if crash is not None
            else f"outcome {result.outcome}"
        )
        result.forensics = board.forensic_bundle(
            reason, kind=kind,
            fault_pc=crash["pc_bytes"] if crash is not None else None,
        )
    phases.emit_spans(board.telemetry)
    if board.telemetry.enabled:
        result.events = board.telemetry.events.events()
        result.snapshot = board.telemetry.snapshot()
    return result


# -- scenario internals -----------------------------------------------------

def _build_board(
    spec: ScenarioSpec,
    telemetry: Optional[Telemetry],
    cache: Optional[ArtifactCache] = None,
):
    """Build the board, applying the attack kind's board transform.

    Most kinds fly the spec's image as built; a kind with a
    ``build_board`` hook (the oracle: a *randomized* image whose layout
    the attacker fully knows) constructs its own board instead.
    Returns ``(board, base_image)`` — base is what attackers statically
    analyze (the paper's threat model: the unprotected public binary).
    """
    base = load_spec_image(spec, cache)
    if spec.attack is not None:
        kind = attack_kind(spec.attack)
        if kind.build_board is not None:
            return kind.build_board(spec, telemetry, cache, base), base
    return Board(spec, telemetry, cache=cache), base


def _boot_with_phases(board: Board, phases: PhaseRecorder) -> float:
    """Program + boot one built board, recording the program/boot phases.

    The ISP's host and simulated programming time is split out of the
    boot call, so both phases are measured on every board.  Shared by the
    single-board and swarm runners — the operation order here is part of
    the byte-identity contract.  Returns the startup overhead in ms.
    """
    host = time.perf_counter
    isp = board.system.master.isp if board.system is not None else None
    program_host = isp.host_program_s if isp is not None else 0.0
    program_sim = isp.stats.total_programming_ms if isp is not None else 0.0
    start = host()
    overhead_ms = board.boot()
    boot_host = host() - start
    if isp is not None:
        program_host = isp.host_program_s - program_host
        program_sim = isp.stats.total_programming_ms - program_sim
    else:
        program_host = program_sim = 0.0
    phases.record("program", program_host, program_sim)
    phases.record(
        "boot",
        max(boot_host - program_host, 0.0),
        max(overhead_ms - program_sim, 0.0),
    )
    board.attach_observers()
    return overhead_ms


def _detections(board: Board) -> int:
    report = board.report()
    return report.attacks_detected if report else 0
