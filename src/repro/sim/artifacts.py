"""Content-addressed artifact cache for the campaign fast path.

Scenario setup repeats the same expensive host-side work in every pool
worker: the toolchain build, the defense backend's preprocess pass
(pointer-coverage scan + HEX encode), the external-flash blob encode,
and the full ISP programming + boot of the first scenario per board
configuration.  All of those artifacts are pure functions of their
inputs, so they are cached *content-addressed*: the key is a BLAKE2b
digest over the canonical JSON of the producing configuration (app,
toolchain, vulnerability flag, defense backend, board seed, …) plus a
format version, and the value lives in one file under a shared cache
root.

Three artifact kinds ride the same store:

* ``build``    — the built :class:`~repro.binfmt.image.FirmwareImage`
  (pickled), so a fresh pool worker skips the linker,
* ``deploy``   — the external-flash blob exactly as the master stored it
  (preprocessed binary + symbols + relocation index), so a worker skips
  the preprocess pass and the HEX round-trip,
* ``board``    — a booted-board snapshot (see
  :meth:`repro.core.mavr.MavrSystem.capture_snapshot`), so a worker
  skips the simulated ISP programming and boot entirely.

Design constraints, in order:

* **Determinism first.**  The cache changes *host* time only.  Every
  JSONL byte a campaign emits is identical with the cache disabled,
  cold, or warm — proven by test and asserted by the throughput bench.
* **Concurrent writers.**  Pool workers share the root; writes go to a
  temp file in the same directory followed by :func:`os.replace`, so a
  reader never observes a torn artifact and the last writer wins with
  byte-identical content.
* **Bounded memory.**  The per-process memo over disk hits is an LRU
  (:data:`MEMO_LIMIT` entries) filled on *read* only: publishing an
  object does not memoize it, because most published objects (one board
  snapshot per scenario seed) are never read back by the process that
  wrote them.  The disk store is bounded only by the root the caller
  owns (campaign runs typically point it at a temp dir).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Union

#: bump when any cached artifact's format or producing code changes in a
#: way that invalidates old entries (keys embed this, so stale files are
#: simply never addressed again)
CACHE_VERSION = 1

#: per-process memo entries kept per cache root (an LRU over disk hits)
MEMO_LIMIT = 64


def artifact_key(kind: str, **fields) -> str:
    """Content-addressed key: ``kind-<blake2b of canonical fields>``.

    ``fields`` must be JSON-serializable builtins; the digest covers the
    sorted canonical encoding plus :data:`CACHE_VERSION`, so any change
    to the producing configuration (or the format) addresses a different
    artifact.
    """
    canonical = json.dumps(
        {"kind": kind, "cache_version": CACHE_VERSION, **fields},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()
    return f"{kind}-{digest}"


class ArtifactCache:
    """Disk-backed content-addressed store shared across pool workers."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # hit/miss/store counts by artifact kind (the key prefix); the
        # warm-path tests and the throughput bench read these
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.stores: Dict[str, int] = {}
        self._memo: "OrderedDict[str, object]" = OrderedDict()

    # -- accounting -------------------------------------------------------

    @staticmethod
    def _kind(key: str) -> str:
        return key.split("-", 1)[0]

    def _count(self, table: Dict[str, int], key: str) -> None:
        kind = self._kind(key)
        table[kind] = table.get(kind, 0) + 1

    def counts(self) -> dict:
        """JSON-ready accounting snapshot (diagnostics only)."""
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "stores": dict(self.stores),
        }

    # -- raw bytes --------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / key

    def get_bytes(self, key: str) -> Optional[bytes]:
        try:
            data = self.path_for(key).read_bytes()
        except OSError:
            self._count(self.misses, key)
            return None
        self._count(self.hits, key)
        return data

    def put_bytes(self, key: str, data: bytes) -> None:
        """Atomic publish: a concurrent reader sees all of it or nothing."""
        handle = tempfile.NamedTemporaryFile(
            dir=self.root, prefix=f".{key}.", delete=False
        )
        try:
            with handle:
                handle.write(data)
            os.replace(handle.name, self.path_for(key))
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self._count(self.stores, key)

    # -- text -------------------------------------------------------------

    def get_text(self, key: str) -> Optional[str]:
        data = self.get_bytes(key)
        return None if data is None else data.decode("utf-8")

    def put_text(self, key: str, text: str) -> None:
        self.put_bytes(key, text.encode("utf-8"))

    # -- pickled objects (memoized per process) ---------------------------

    def get_object(self, key: str) -> Optional[object]:
        """Unpickle an artifact, memoizing per process.

        The memo returns the *same object* to every caller in a process,
        mirroring how the in-process build cache already shares images;
        cached objects are treated as immutable by convention (the one
        sanctioned exception — lazily attaching a relocation index —
        is deterministic in content).
        """
        memo = self._memo
        if key in memo:
            memo.move_to_end(key)
            self._count(self.hits, key)
            return memo[key]
        data = self.get_bytes(key)
        if data is None:
            return None
        try:
            value = pickle.loads(data)
        except Exception:
            return None  # torn/foreign file: treat as a miss
        memo[key] = value
        while len(memo) > MEMO_LIMIT:
            memo.popitem(last=False)
        return value

    def put_object(self, key: str, value: object) -> None:
        """Pickle and publish ``value``; the memo is filled on read only."""
        self.put_bytes(key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


_CACHES: Dict[str, ArtifactCache] = {}


def get_cache(root: Union[str, Path, ArtifactCache, None]) -> Optional[ArtifactCache]:
    """Per-process :class:`ArtifactCache` singleton for ``root``.

    Campaign workers receive the cache root as a string in their payload
    and resolve it here, so every scenario in a worker shares one memo.
    ``None`` (caching disabled) and ready-made caches pass through.
    """
    if root is None or isinstance(root, ArtifactCache):
        return root
    resolved = str(Path(root).resolve())
    cache = _CACHES.get(resolved)
    if cache is None:
        cache = _CACHES[resolved] = ArtifactCache(resolved)
    return cache
