"""Scenario layer: the single way to stand up and drive simulated boards.

The paper's evaluation (§VII) is campaign-shaped — many attack attempts
against many randomized boards.  This package turns one such experiment
into data (:class:`ScenarioSpec`), runs it (:func:`run_scenario` /
:class:`Board`), and fans lists of them out over a process pool
(:class:`CampaignRunner`) with per-task timeouts, retry-once-on-worker-death,
an ordered JSONL result sink, and cross-process telemetry snapshot
merging.  :func:`seeded_specs` is the one spec builder: spec *i* of a
campaign gets its board and attacker seeds from :func:`derive_seed`.

Everything above this layer — ``repro.analysis``, the CLI's
``attack``/``campaign``/``report``/``telemetry`` commands, the
integration-test fixtures and the throughput benchmarks — constructs
boards only through here.  See ``docs/SCENARIOS.md`` for the spec
schema, the runner semantics and the determinism contract.
"""

from .artifacts import ArtifactCache, artifact_key, get_cache
from .campaign import (
    CampaignReport,
    CampaignRunner,
    aggregate_phases,
    aggregate_results,
    deterministic_phases,
    spec_digest,
)
from .pool import PoolTaskError, map_indexed
from .scenario import (
    ATTACK_VARIANTS,
    PHASE_ORDER,
    Board,
    PhaseRecorder,
    ScenarioResult,
    ScenarioSpec,
    derive_seed,
    load_spec_image,
    run_scenario,
    seeded_specs,
)
from .swarm import SwarmSpec, run_swarm_scenario

__all__ = [
    "ATTACK_VARIANTS",
    "SwarmSpec",
    "run_swarm_scenario",
    "ArtifactCache",
    "Board",
    "CampaignReport",
    "CampaignRunner",
    "PHASE_ORDER",
    "PhaseRecorder",
    "PoolTaskError",
    "ScenarioResult",
    "ScenarioSpec",
    "aggregate_phases",
    "aggregate_results",
    "artifact_key",
    "derive_seed",
    "deterministic_phases",
    "get_cache",
    "load_spec_image",
    "map_indexed",
    "run_scenario",
    "seeded_specs",
    "spec_digest",
]
