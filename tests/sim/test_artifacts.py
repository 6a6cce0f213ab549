"""ArtifactCache: keying, atomic publish, memoization, accounting."""

import pickle

import pytest

from repro.sim.artifacts import (
    MEMO_LIMIT,
    ArtifactCache,
    artifact_key,
    get_cache,
)


# -- keys --------------------------------------------------------------------

def test_key_is_stable_and_prefixed():
    key = artifact_key("build", app="testapp", toolchain="mavr")
    assert key == artifact_key("build", toolchain="mavr", app="testapp")
    assert key.startswith("build-")


def test_key_changes_with_any_field_and_kind():
    base = artifact_key("build", app="testapp", vulnerable=False)
    assert artifact_key("build", app="testapp", vulnerable=True) != base
    assert artifact_key("build", app="arduplane", vulnerable=False) != base
    assert artifact_key("deploy", app="testapp", vulnerable=False) != base


# -- bytes/text round trips --------------------------------------------------

def test_bytes_round_trip_and_counts(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = artifact_key("deploy", app="x")
    assert cache.get_bytes(key) is None
    cache.put_bytes(key, b"\x00\xff blob")
    assert cache.get_bytes(key) == b"\x00\xff blob"
    assert cache.counts() == {
        "hits": {"deploy": 1}, "misses": {"deploy": 1}, "stores": {"deploy": 1},
    }


def test_put_leaves_no_temp_files(tmp_path):
    cache = ArtifactCache(tmp_path)
    for index in range(5):
        cache.put_bytes(artifact_key("build", index=index), b"x" * index)
    names = [path.name for path in tmp_path.iterdir()]
    assert len(names) == 5
    assert not any(name.startswith(".") for name in names)


def test_second_cache_instance_sees_published_artifacts(tmp_path):
    key = artifact_key("build", app="shared")
    ArtifactCache(tmp_path).put_bytes(key, b"shared")
    assert ArtifactCache(tmp_path).get_bytes(key) == b"shared"


# -- pickled objects ---------------------------------------------------------

def test_object_round_trip_memoizes_same_object(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = artifact_key("build", app="obj")
    cache.put_object(key, {"a": [1, 2, 3]})
    first = cache.get_object(key)
    assert first == {"a": [1, 2, 3]}
    assert cache.get_object(key) is first  # per-process memo
    # a fresh cache instance unpickles a new but equal object
    assert ArtifactCache(tmp_path).get_object(key) == first


def test_torn_object_file_reads_as_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = artifact_key("board", app="torn")
    cache.path_for(key).write_bytes(
        pickle.dumps({"ok": True})[:-3]  # truncated mid-stream
    )
    assert cache.get_object(key) is None


def test_object_memo_is_bounded(tmp_path):
    cache = ArtifactCache(tmp_path)
    for index in range(MEMO_LIMIT + 8):
        key = artifact_key("build", index=index)
        cache.put_object(key, index)
        assert cache.get_object(key) == index  # reads fill the memo
    assert len(cache._memo) == MEMO_LIMIT
    # the oldest entries were evicted but remain readable from disk
    assert cache.get_object(artifact_key("build", index=0)) == 0


def test_put_object_does_not_memoize(tmp_path):
    """Publishing leaves the memo empty (a process rarely reads back what
    it wrote, e.g. per-seed board snapshots); a later read still sees an
    equal value and memoizes it."""
    cache = ArtifactCache(tmp_path)
    key = artifact_key("board", app="published")
    value = {"registers": list(range(32))}
    cache.put_object(key, value)
    assert len(cache._memo) == 0
    assert cache.get_object(key) == value
    assert len(cache._memo) == 1


# -- get_cache resolution ----------------------------------------------------

def test_get_cache_passthrough_and_singleton(tmp_path):
    assert get_cache(None) is None
    cache = ArtifactCache(tmp_path)
    assert get_cache(cache) is cache
    resolved = get_cache(str(tmp_path))
    assert isinstance(resolved, ArtifactCache)
    assert get_cache(str(tmp_path)) is resolved
    assert get_cache(tmp_path) is resolved  # Path and str resolve the same
