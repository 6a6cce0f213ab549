"""Cached provisioning: the artifact cache and the byte-identity contract.

The artifact cache's whole claim is that it changes *host* time only:
a scenario's deterministic record and its simulated phase times must be
byte-identical whether the board was provisioned cold (full preprocess +
deploy) or from a cached deploy blob read in a different process.
Every board is still programmed and booted; what a process shares
across boards is only seed-independent work — the parsed deploy blob
and, for the attackers that randomize the public binary, its
relocation index.  These tests pin that.
"""

import dataclasses
import importlib

import pytest

import repro.binfmt.relocindex as relocindex_mod
import repro.core.master as master_mod
import repro.core.patching as patching_mod
import repro.sim.scenario as scenario_mod
from repro.binfmt.image import FirmwareImage
from repro.sim import Board, ScenarioSpec, run_scenario
from repro.sim.artifacts import ArtifactCache

# the package re-exports a function under the submodule's name
preprocess_mod = importlib.import_module("repro.core.preprocess")


def spec_for(**overrides):
    defaults = dict(
        app="testapp", seed=7, attack="guess", attack_seed=11, label="warm"
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def sim_phases(result):
    return {name: cell["sim_ms"] for name, cell in result.phases.items()}


def board_files(root):
    return [p for p in root.iterdir() if p.name.startswith("board-")]


# -- byte-identity across provisioning paths ---------------------------------

@pytest.mark.parametrize("defense", ("mavr", "daedalus", "ctomp"))
def test_cold_prime_warm_records_identical(tmp_path, defense):
    spec = spec_for(defense=defense)
    cold = run_scenario(spec, 3)
    prime = run_scenario(spec, 3, cache=ArtifactCache(tmp_path))
    # a fresh cache instance (a different pool worker) reads the deploy
    # blob from disk; with the parsed-blob memo cleared it parses it too
    master_mod._ORIGINAL_CACHE.clear()
    fresh_cache = ArtifactCache(tmp_path)
    cached = run_scenario(spec, 3, cache=fresh_cache)
    assert fresh_cache.hits["deploy"] == 1
    # ...and a second board in the same process reuses that parse
    memoized = run_scenario(spec, 3, cache=ArtifactCache(tmp_path))
    assert not board_files(tmp_path)
    runs = (cold, prime, cached, memoized)
    assert all(run.to_record() == cold.to_record() for run in runs)
    assert all(sim_phases(run) == sim_phases(cold) for run in runs)


def test_image_override_bypasses_cache(tmp_path):
    cache = ArtifactCache(tmp_path)
    spec = spec_for()
    run_scenario(spec, 0, cache=cache)
    image = scenario_mod.load_spec_image(spec)
    before = cache.counts()
    Board(spec, image=image, cache=cache)
    assert cache.counts() == before  # nothing read, nothing published


def test_ineligible_specs_write_no_board_snapshot(tmp_path):
    """No spec writes a board snapshot, observed or not."""
    cache = ArtifactCache(tmp_path)
    for spec in (
        spec_for(),
        spec_for(telemetry=True),
        spec_for(profile="block"),
        spec_for(flight_recorder=True),
    ):
        run_scenario(spec, 0, cache=cache)
    assert not board_files(tmp_path)
    # ...but the firmware/deploy artifacts were still shared
    assert [p for p in tmp_path.iterdir() if p.name.startswith("deploy-")]


# -- per-process sharing of seed-independent work ----------------------------

@pytest.fixture
def fresh_worker_cache(tmp_path):
    """A primed cache as a fresh pool worker sees it: the deploy blob on
    disk, a build artifact published before any preprocess pass (so the
    base image carries no relocation index), and no parsed blob yet."""
    spec = spec_for()
    run_scenario(spec, 0, cache=ArtifactCache(tmp_path))
    image = dataclasses.replace(
        scenario_mod.load_spec_image(spec), reloc_index=None
    )
    ArtifactCache(tmp_path).put_object(scenario_mod._build_key(spec), image)
    master_mod._ORIGINAL_CACHE.clear()
    return ArtifactCache(tmp_path)


@pytest.fixture
def index_builds(monkeypatch):
    """Count every relocation-index build, whichever module calls it."""
    calls = []
    real = relocindex_mod.build_relocation_index

    def counting(image):
        calls.append(image)
        return real(image)

    for module in (relocindex_mod, patching_mod, preprocess_mod):
        monkeypatch.setattr(module, "build_relocation_index", counting)
    return calls


def test_cached_boards_parse_the_deploy_blob_once(fresh_worker_cache, monkeypatch):
    parses = []
    real = FirmwareImage.from_flash_blob.__func__

    def counting(cls, blob):
        parses.append(len(blob))
        return real(cls, blob)

    monkeypatch.setattr(FirmwareImage, "from_flash_blob", classmethod(counting))
    for seed in (21, 22):
        Board(spec_for(seed=seed), cache=fresh_worker_cache).boot()
    assert len(parses) == 1


def test_cached_scenario_without_attack_builds_no_index(
    fresh_worker_cache, index_builds
):
    result = run_scenario(
        spec_for(attack=None, fault="wild_jump"), 0, cache=fresh_worker_cache
    )
    assert result.outcome != "error"
    assert index_builds == []


def test_cached_guess_randomizes_through_one_index_build(
    fresh_worker_cache, index_builds
):
    Board(spec_for(), cache=fresh_worker_cache)
    assert index_builds == []  # building a board leaves the index alone
    for seed in (7, 8):
        result = run_scenario(
            spec_for(seed=seed, attack_seed=seed), 0, cache=fresh_worker_cache
        )
        assert result.outcome != "error", result.error
    assert len(index_builds) == 1


# -- the bounded inline-image cache ------------------------------------------

def test_inline_image_cache_is_bounded_lru(monkeypatch):
    class FakeImage:
        built = 0

        @classmethod
        def from_preprocessed_hex(cls, hex_text):
            cls.built += 1
            return (cls.built, hex_text)

    monkeypatch.setattr(scenario_mod, "FirmwareImage", FakeImage)
    monkeypatch.setattr(scenario_mod, "_IMAGE_CACHE", type(scenario_mod._IMAGE_CACHE)())
    limit = scenario_mod._IMAGE_CACHE_LIMIT
    for index in range(limit + 4):
        scenario_mod._cached_inline_image(f"hex-{index}")
    assert len(scenario_mod._IMAGE_CACHE) == limit
    assert FakeImage.built == limit + 4
    # newest entry is still memoized...
    scenario_mod._cached_inline_image(f"hex-{limit + 3}")
    assert FakeImage.built == limit + 4
    # ...the evicted oldest is rebuilt
    scenario_mod._cached_inline_image("hex-0")
    assert FakeImage.built == limit + 5
