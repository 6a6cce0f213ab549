"""Re-randomization latency: precomputed relocation index vs streaming patcher.

Every attack detection triggers a full re-randomization (paper §V-C), so
the patch pass sits on the recovery-latency critical path.  The streaming
patcher (the test oracle, ``tests/core/streaming_patcher.py``) re-decodes
the whole instruction stream on every shuffle; the one production
patcher replays a precomputed patch-site list and touches only the words
that actually need new targets.  This bench prices both on the largest
paper application (ArduPlane, 917 functions), verifies the production
patcher is byte-identical to the oracle for every measured seed, and
records the median whole ``MavrBackend.diversify`` call (shuffle and
patch; the symbol table is built only when read) — what one
re-randomization costs the master (``diversify_ms``).

It also prices the second half of the fast path — differential page
reflash — by programming a flash the size of the image once in full,
then with fresh layouts: it records how many pages (and wire bytes) the
page diff avoids retransferring, and the median host time of a whole
differential ``IspProgrammer.program`` pass (``program_ms``).

Results land in ``BENCH_rerandomize.json`` at the repo root.  The indexed
patcher must stay at least 3x faster than the streaming patcher — that
floor is asserted here, not just documented (measured: ~100x).

Run from the repo root (the oracle is imported from ``tests``):
  PYTHONPATH=src python -m pytest benchmarks/bench_rerandomize_latency.py -q -s
Scale the seed count with REPRO_BENCH_RERANDOMIZE_SEEDS (default 3).
"""

import json
import os
import random
import time
from pathlib import Path

from repro.binfmt import build_relocation_index
from repro.core.defenses import MavrBackend
from repro.core.patching import patch_image
from repro.core.randomize import generate_permutation
from repro.hw.isp import IspProgrammer
from repro.avr.memory import FlashMemory
from tests.core import streaming_patcher

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_rerandomize.json"
SPEEDUP_FLOOR = 3.0
#: whole diversify calls timed for the median
DIVERSIFY_CALLS = 15
#: whole differential programming passes timed for the median
PROGRAM_PASSES = 15


def _seeds() -> list:
    count = int(os.environ.get("REPRO_BENCH_RERANDOMIZE_SEEDS", "3"))
    return list(range(1, count + 1))


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def test_rerandomize_latency(benchmark, arduplane):
    # one-time host-side cost: the full-stream decode that builds the index
    start = time.perf_counter()
    index = build_relocation_index(arduplane)
    index_build_ms = (time.perf_counter() - start) * 1e3
    arduplane.reloc_index = index  # what the preprocessor ships

    legacy_ms, indexed_ms = [], []
    for seed in _seeds():
        permutation = generate_permutation(arduplane, random.Random(seed))

        start = time.perf_counter()
        legacy = streaming_patcher.patch_image(arduplane, permutation)
        legacy_ms.append((time.perf_counter() - start) * 1e3)

        start = time.perf_counter()
        fast = patch_image(arduplane, permutation)
        indexed_ms.append((time.perf_counter() - start) * 1e3)

        assert fast == legacy, f"fast path diverged from legacy at seed {seed}"

    speedup = _median(legacy_ms) / _median(indexed_ms)

    backend, rng = MavrBackend(), random.Random(0)
    diversify_ms = []
    for _ in range(DIVERSIFY_CALLS):
        start = time.perf_counter()
        backend.diversify(arduplane, rng)
        diversify_ms.append((time.perf_counter() - start) * 1e3)

    # pytest-benchmark row: the indexed patcher at paper scale
    permutation = generate_permutation(arduplane, random.Random(0))
    benchmark.pedantic(
        lambda: patch_image(arduplane, permutation),
        rounds=3, iterations=1,
    )

    # differential reflash: how much of the wire/wear a re-randomization
    # actually costs once the chip already holds a layout
    flash = FlashMemory(size=len(arduplane.code))
    isp = IspProgrammer()
    isp.program(flash, arduplane.code)
    full_wire = isp.stats.last_bytes_on_wire
    full_prog_ms = isp.stats.last_programming_ms
    layouts = [patch_image(arduplane, permutation)] + [
        patch_image(arduplane, generate_permutation(arduplane, random.Random(seed)))
        for seed in range(100, 100 + PROGRAM_PASSES - 1)
    ]
    program_ms = []
    for passes, code in enumerate(layouts, start=1):
        start = time.perf_counter()
        isp.program(flash, code)
        program_ms.append((time.perf_counter() - start) * 1e3)
        assert isp.stats.differential_passes == passes
        if passes == 1:
            # the first diff's pricing is the one recorded
            stats = isp.stats.as_dict()
    assert flash.dump(0, len(layouts[-1])) == layouts[-1]
    assert stats["last_bytes_on_wire"] < full_wire

    results = {
        "app": arduplane.name,
        "functions": arduplane.function_count(),
        "code_bytes": len(arduplane.code),
        "seeds": _seeds(),
        "index": {
            "sites": index.site_count,
            "bytes": index.byte_length(),
            "build_ms": round(index_build_ms, 2),
        },
        "patch_ms": {
            "legacy": round(_median(legacy_ms), 2),
            "indexed": round(_median(indexed_ms), 2),
        },
        "speedup": round(speedup, 1),
        "diversify_ms": round(_median(diversify_ms), 2),
        "program_ms": round(_median(program_ms), 2),
        "reflash": {
            "full_wire_bytes": full_wire,
            "full_programming_ms": round(full_prog_ms, 1),
            "diff_wire_bytes": stats["last_bytes_on_wire"],
            "diff_programming_ms": round(stats["last_programming_ms"], 1),
            "pages_written": stats["last_pages_written"],
            "pages_skipped": stats["last_pages_skipped"],
            "wire_saving_fraction": round(
                1.0 - stats["last_bytes_on_wire"] / full_wire, 3
            ),
        },
    }

    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(
        f"\n{arduplane.name}: legacy {results['patch_ms']['legacy']} ms, "
        f"indexed {results['patch_ms']['indexed']} ms "
        f"({results['speedup']}x); index {index.site_count} sites / "
        f"{index.byte_length()} bytes, built in {results['index']['build_ms']} ms"
    )
    print(
        f"whole MavrBackend.diversify: {results['diversify_ms']} ms per call "
        f"(median of {DIVERSIFY_CALLS})"
    )
    print(
        f"reflash: {stats['last_pages_written']} pages rewritten, "
        f"{stats['last_pages_skipped']} skipped, "
        f"{stats['last_bytes_on_wire']}/{full_wire} bytes on wire; "
        f"whole differential IspProgrammer.program: {results['program_ms']} ms "
        f"per pass (median of {PROGRAM_PASSES})"
    )
    print(f"results written to {RESULTS_PATH}")

    assert speedup >= SPEEDUP_FLOOR, (
        f"indexed patcher is only {speedup:.2f}x faster than the streaming "
        f"patcher; the floor is {SPEEDUP_FLOOR}x"
    )
