"""Swarm scenarios: one ground station, N boards, one MAVLink channel.

A :class:`SwarmSpec` is the fleet analogue of a
:class:`~repro.sim.scenario.ScenarioSpec`: frozen, picklable, and a pure
function of its fields, so swarm campaigns inherit the whole campaign
fast path — process fan-out, artifact cache, checkpoints — without new
runner code.  Each fleet member is expanded to a derived single-board
spec (:meth:`SwarmSpec.board_spec`) whose seed comes from
:func:`~repro.sim.scenario.derive_seed`; every member shares the
fleet's firmware build and deploy blob with every other campaign run
that flies the same firmware and defense.

The engagement itself is a
:class:`~repro.mavlink.attacks.ProtocolSession`: deterministic
interleaved scheduling of benign traffic, the (optional) protocol
attacker, and the per-tick flight of every board, with one
:class:`~repro.uav.groundstation.GcsAnomalyDetector` tapping the shared
channel.  A benign swarm (``attack=None``) measures the detector's false
alarms; an attacked swarm scores one protocol attack kind against the
fleet.  Results come back as ordinary
:class:`~repro.sim.scenario.ScenarioResult` objects (with ``detector``
and ``swarm`` extensions), so JSONL records stay byte-identical between
serial and parallel runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..attack.registry import PROTOCOL_LAYER, attack_kind
from ..avr.engine import DEFAULT_ENGINE
from ..core.defenses import DEFENSE_BACKENDS
from ..telemetry import Telemetry, jsonable
from .artifacts import ArtifactCache, get_cache
from .scenario import (
    PhaseRecorder,
    ScenarioResult,
    ScenarioSpec,
    _boot_with_phases,
    _build_board,
    _classify,
    derive_seed,
    load_spec_image,
)

#: per-board seed stream name (derive_seed third argument)
SWARM_BOARD_STREAM = "swarm-board"


@dataclass(frozen=True)
class SwarmSpec:
    """One fleet experiment, as data.

    ``attack`` names a protocol-layer registry kind (or ``None`` for a
    benign fleet — the detector false-alarm baseline); memory-tier kinds
    target a single board's firmware and belong in a plain
    :class:`ScenarioSpec`.
    """

    # -- firmware / board configuration (shared by the whole fleet) -------
    app: str = "testapp"
    toolchain: str = "mavr"
    vulnerable: bool = True
    protected: bool = True
    defense: str = "mavr"
    engine: str = DEFAULT_ENGINE
    seed: int = 1                    # fleet seed; boards derive from it

    # -- fleet ------------------------------------------------------------
    boards: int = 3
    attack: Optional[str] = None     # protocol-layer attack kind, or None
    attack_seed: int = 0
    attack_board: int = 0            # which member the attacker targets

    # -- budget -----------------------------------------------------------
    warmup_ticks: int = 10
    observe_ticks: int = 60
    watch_every: int = 5
    label: str = ""
    # test-only worker-crash marker (see ScenarioSpec.worker_fault_marker)
    worker_fault_marker: Optional[str] = None

    def __post_init__(self) -> None:
        if self.boards < 1:
            raise ValueError("a swarm needs at least one board")
        if not 0 <= self.attack_board < self.boards:
            raise ValueError(
                f"attack_board {self.attack_board} out of range for "
                f"{self.boards} boards"
            )
        if self.defense not in DEFENSE_BACKENDS:
            raise ValueError(
                f"unknown defense backend {self.defense!r}; "
                f"expected one of {DEFENSE_BACKENDS}"
            )
        if self.attack is not None:
            kind = attack_kind(self.attack)  # raises on an unknown name
            if kind.layer != PROTOCOL_LAYER:
                raise ValueError(
                    f"attack kind {self.attack!r} is {kind.layer}-layer; "
                    "swarm scenarios play protocol-layer kinds only"
                )

    def board_spec(self, index: int) -> ScenarioSpec:
        """The derived single-board spec for fleet member ``index``.

        ``attack=None``: the protocol attacker never touches the
        firmware, so each member's board is exactly the clean scenario
        board — which is what lets the build and deploy artifacts be
        shared with non-swarm campaigns.
        """
        return ScenarioSpec(
            app=self.app,
            toolchain=self.toolchain,
            vulnerable=self.vulnerable,
            protected=self.protected,
            defense=self.defense,
            engine=self.engine,
            seed=derive_seed(self.seed, index, SWARM_BOARD_STREAM),
            warmup_ticks=self.warmup_ticks,
            observe_ticks=self.observe_ticks,
            watch_every=self.watch_every,
            label=f"{self.label}/b{index}" if self.label else f"b{index}",
        )

    def to_record(self) -> dict:
        """JSON-ready spec for campaign records and checkpoint digests."""
        record = jsonable(self)
        record.pop("worker_fault_marker", None)
        return record


def run_swarm_scenario(
    spec: SwarmSpec,
    index: int = 0,
    telemetry: Optional[Telemetry] = None,
    cache: Optional[ArtifactCache] = None,
) -> ScenarioResult:
    """Play one swarm spec end to end: boot the fleet, warm up, engage.

    Per-board lifecycle (build → preprocess → program/boot → warmup)
    reuses the single-board helpers, so phase accounting and artifact
    caching behave identically; the observe window is one shared
    :class:`ProtocolSession` driving every board tick-by-tick in
    deterministic interleaved order.
    """
    from ..mavlink.attacks import run_benign_session, run_protocol_attack

    cache = get_cache(cache)
    host = time.perf_counter
    phases = PhaseRecorder()
    session_telemetry = (
        telemetry if telemetry is not None else Telemetry(enabled=False)
    )

    boards = []
    overhead_ms = 0.0
    for member in range(spec.boards):
        sub = spec.board_spec(member)
        start = host()
        load_spec_image(sub, cache)
        phases.record("build", host() - start)
        start = host()
        # each board gets its own (disabled) Telemetry handle; the swarm
        # session's gcs.anomaly events go to the caller's handle instead
        board, _base = _build_board(sub, None, cache)
        phases.record("preprocess", host() - start)
        overhead_ms += _boot_with_phases(board, phases)
        boards.append(board)

    def fleet_cycles() -> int:
        return sum(
            b.autopilot.cpu.cycles_lifetime + b.autopilot.cpu.cycles
            for b in boards
        )

    ms_per_cycle = 1000.0 / boards[0].autopilot.cpu.clock_hz
    cycles = fleet_cycles()
    start = host()
    for board in boards:
        board.run(spec.warmup_ticks)
    phases.record(
        "warmup", host() - start, (fleet_cycles() - cycles) * ms_per_cycle
    )

    cycles = fleet_cycles()
    start = host()
    if spec.attack is not None:
        kind = attack_kind(spec.attack)
        outcome = run_protocol_attack(
            spec, boards, kind.name, kind.expected_anomalies,
            telemetry=session_telemetry,
        )
        phases.record(
            "attack", host() - start,
            (fleet_cycles() - cycles) * ms_per_cycle,
        )
    else:
        outcome = run_benign_session(
            spec, boards, telemetry=session_telemetry
        )
        phases.record(
            "run", host() - start, (fleet_cycles() - cycles) * ms_per_cycle
        )

    status = outcome.statuses[spec.attack_board]
    effect = outcome.effect
    detected = outcome.detected
    stealthy = (
        effect and status == "running"
        and not detected and not outcome.link_lost
    )
    reports = [board.report() for board in boards]
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
        succeeded=effect,
        status=status,
        delivered_bytes=outcome.attack_bytes,
        link_lost=outcome.link_lost,
        telemetry_frames_after=outcome.telemetry_frames,
        boots=sum(r.boots for r in reports if r),
        randomizations=sum(r.randomizations for r in reports if r),
        attacks_detected=sum(r.attacks_detected for r in reports if r),
        startup_overhead_ms=overhead_ms,
        detector=outcome.record(),
        swarm={
            "boards": spec.boards,
            "statuses": list(outcome.statuses),
            "benign_frames": outcome.benign_frames,
        },
    )
    result.phases = phases.snapshot()
    phases.emit_spans(session_telemetry)
    if session_telemetry.enabled:
        result.events = session_telemetry.events.events()
        result.snapshot = session_telemetry.snapshot()
    return result
