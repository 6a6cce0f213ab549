"""A damaged artifact file is a cache miss, never a wrong or failed record.

Each cache file carries a BLAKE2b digest of its payload.  A file cut
short at any byte, or with a byte flipped anywhere, must read as a miss
so the scenario takes the cold path and emits the record an uncached
run emits.  The per-offset sweeps run at the cache level; one scenario
per damage class checks the end-to-end fallback.  A build pickle that is
intact but was written under an older layout of the pickled classes is
never read back either.
"""

import pickle

import pytest

import repro.core.master as master_mod
import repro.firmware.apps as apps_mod
import repro.sim.artifacts as artifacts_mod
from repro.binfmt.image import FirmwareImage
from repro.binfmt.symtab import SymbolTable
from repro.sim import Board, ScenarioSpec, run_scenario
from repro.sim.artifacts import DIGEST_SIZE, ArtifactCache, artifact_key
from repro.sim.scenario import load_spec_image

SPEC = ScenarioSpec(
    app="testapp", seed=7, attack="guess", attack_seed=11, label="damaged"
)


@pytest.fixture(scope="module")
def payloads():
    """The testapp deploy blob and build pickle, as a campaign publishes
    them."""
    return {
        "deploy": Board(SPEC).system.master.external_flash.read_all(),
        "build": pickle.dumps(
            load_spec_image(SPEC), protocol=pickle.HIGHEST_PROTOCOL
        ),
    }


def _published(tmp_path, kind, payload):
    cache = ArtifactCache(tmp_path)
    key = artifact_key(kind, app="damaged")
    cache.put_bytes(key, payload)
    assert cache.get_bytes(key) == payload
    return cache, key


def _reads_as_miss(cache, key):
    # get_object reads through get_bytes; neither may return damage
    return cache.get_bytes(key) is None and cache.get_object(key) is None


# -- cache level: every offset -----------------------------------------------

@pytest.mark.parametrize("kind", ("deploy", "build"))
def test_truncated_artifact_reads_as_miss_at_every_offset(tmp_path, payloads, kind):
    cache, key = _published(tmp_path, kind, payloads[kind])
    path = cache.path_for(key)
    with open(path, "r+b") as handle:
        for length in reversed(range(path.stat().st_size)):
            handle.truncate(length)
            assert _reads_as_miss(cache, key), f"cut at byte {length} read as a hit"


@pytest.mark.parametrize("kind", ("deploy", "build"))
def test_flipped_byte_reads_as_miss(tmp_path, payloads, kind):
    cache, key = _published(tmp_path, kind, payloads[kind])
    path = cache.path_for(key)
    stored = path.read_bytes()
    offsets = list(range(0, len(stored), len(stored) // 97)) + [len(stored) - 1]
    for offset in offsets:
        damaged = bytearray(stored)
        damaged[offset] ^= 0x01
        path.write_bytes(damaged)
        assert _reads_as_miss(cache, key), f"flip at byte {offset} read as a hit"


# -- scenario level: one damage of each class ---------------------------------

@pytest.fixture(scope="module")
def uncached_record():
    return run_scenario(SPEC, 0).to_record()


def _deploy_damage(blob, where):
    """File offset of the damage inside the stored deploy file."""
    image = FirmwareImage.from_flash_blob(blob)
    index_start = len(blob) - len(image.reloc_index.to_bytes())
    code_start = index_start - len(image.code)
    return DIGEST_SIZE + {
        "header": 10,
        "code": code_start + len(image.code) // 2,
        "index": index_start + 8,
    }[where]


@pytest.mark.parametrize("damage", (
    "cut-header", "cut-code", "cut-index", "flip-code",
))
def test_damaged_deploy_file_falls_back_to_cold_path(
    tmp_path, payloads, uncached_record, damage
):
    run_scenario(SPEC, 0, cache=ArtifactCache(tmp_path))  # prime
    (path,) = [p for p in tmp_path.iterdir() if p.name.startswith("deploy-")]
    stored = bytearray(path.read_bytes())
    assert stored[DIGEST_SIZE:] == payloads["deploy"]
    action, where = damage.split("-")
    offset = _deploy_damage(payloads["deploy"], where)
    if action == "cut":
        del stored[offset:]
    else:
        stored[offset] ^= 0xFF
    path.write_bytes(stored)

    cache = ArtifactCache(tmp_path)
    result = run_scenario(SPEC, 0, cache=cache)
    assert cache.misses.get("deploy") == 1
    assert result.to_record() == uncached_record
    # the cold path republished an intact blob
    assert ArtifactCache(tmp_path).get_bytes(path.name) == payloads["deploy"]


def test_build_pickled_under_an_older_class_layout_is_a_miss(
    tmp_path, uncached_record, monkeypatch
):
    run_scenario(SPEC, 0, cache=ArtifactCache(tmp_path))  # prime
    # a later version of SymbolTable grows an attribute functions() reads;
    # the primed pickle holds tables without it
    real_init, real_functions = SymbolTable.__init__, SymbolTable.functions

    def init(self, symbols=()):
        self._layout_probe = True
        real_init(self, symbols)

    def functions(self):
        assert self._layout_probe
        return real_functions(self)

    monkeypatch.setattr(SymbolTable, "__init__", init)
    monkeypatch.setattr(SymbolTable, "functions", functions)
    # ...and runs in a new process: nothing built or parsed in memory
    monkeypatch.setattr(apps_mod, "_CACHE", {})
    monkeypatch.setattr(
        master_mod, "_ORIGINAL_CACHE", type(master_mod._ORIGINAL_CACHE)()
    )
    monkeypatch.setattr(artifacts_mod, "_CACHES", {})

    cache = ArtifactCache(tmp_path)
    result = run_scenario(SPEC, 0, cache=cache)
    assert result.to_record() == uncached_record
    assert cache.misses.get("build") == 1
