"""The benchmark's three campaign workloads: specs from a seed, and verdicts.

Every workload is a closed loop: the campaign runner plays one batch of
scenario specs and the next batch starts only when the previous one has
returned.  Spec ``i`` of a run depends only on the run's seed and ``i``
(``derive_seed(seed, i, "board" | "attack")``), so every scenario flies
its own board seed and board snapshots always start cold.

The first batch of a run (``verdict_batch`` scenarios) is fixed per seed:
its JSONL records are digested and the simulated metrics are taken from
it, so both repeat exactly between runs of one seed however many later
batches fit in the measuring time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim import ScenarioResult, ScenarioSpec, SwarmSpec, derive_seed

#: swarm fleets cycle through these attack kinds (None = a benign fleet)
SWARM_KINDS = (
    "replay", "gps_spoof", "waypoint_inject", "command_inject", "flood", None,
)


def _guess_spec(seed: int, index: int) -> ScenarioSpec:
    return ScenarioSpec(
        app="testapp",
        attack="guess",
        seed=derive_seed(seed, index, "board"),
        attack_seed=derive_seed(seed, index, "attack"),
        label=f"guess-{index}",
    )


def _recovery_spec(seed: int, index: int) -> ScenarioSpec:
    return ScenarioSpec(
        app="arduplane",
        fault="wild_jump",
        warmup_ticks=1,
        observe_ticks=2,
        watch_every=1,
        seed=derive_seed(seed, index, "board"),
        label=f"recovery-{index}",
    )


def _swarm_spec(seed: int, index: int) -> SwarmSpec:
    return SwarmSpec(
        boards=3,
        attack=SWARM_KINDS[index % len(SWARM_KINDS)],
        seed=derive_seed(seed, index, "board"),
        attack_seed=derive_seed(seed, index, "attack"),
        label=f"swarm-{index}",
    )


def _no_effect(result: ScenarioResult) -> bool:
    """Guessing attacker: the wrong layout never lands (stealthy or not)."""
    return not result.effect


def _one_recovery(result: ScenarioResult) -> bool:
    """Wild jump: caught at the first watch, recovered, and still flying."""
    return result.attacks_detected == 1 and result.still_flying


def _detector_verdict(result: ScenarioResult) -> bool:
    """Attacked fleets flag their kind's expected anomalies; benign fleets
    flag nothing.  Only the detector is judged: the master never watches
    inside a protocol session, so detection counts are not pinned."""
    detector = result.detector or {}
    flagged = set(detector.get("flagged", ()))
    if result.spec.attack is None:
        return not flagged
    return set(detector.get("expected", ())) <= flagged


@dataclass(frozen=True)
class Workload:
    name: str
    #: campaign clients: 1 plays inline, more fan out over a process pool
    jobs: int
    #: scenarios in a run's first batch (digested, simulated metrics)
    verdict_batch: int
    #: scenarios per later batch (a whole swarm cycle, so kinds stay mixed)
    batch: int
    make_spec: Callable[[int, int], object]
    verdict: Callable[[ScenarioResult], bool]

    def specs(self, seed: int, start: int, count: int) -> List[object]:
        return [self.make_spec(seed, index) for index in range(start, start + count)]

    def setup_spec(self, seed: int) -> ScenarioSpec:
        """The board spec whose build and deploy artifacts set-up publishes
        (they depend on app, toolchain and defense, not on the seed)."""
        spec = self.make_spec(seed, 0)
        return spec.board_spec(0) if isinstance(spec, SwarmSpec) else spec

    def failure(self, result: ScenarioResult) -> Optional[str]:
        """Why ``result`` counts as a failed operation, or None."""
        if result.outcome in ("error", "timeout"):
            return f"{result.outcome}: {result.error}"
        if not self.verdict(result):
            return f"expected verdict broken (outcome {result.outcome})"
        return None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("guess", 1, 8, 1, _guess_spec, _no_effect),
        Workload("recovery", 2, 60, 160, _recovery_spec, _one_recovery),
        Workload(
            "swarm", 1, len(SWARM_KINDS), len(SWARM_KINDS), _swarm_spec,
            _detector_verdict,
        ),
    )
}
