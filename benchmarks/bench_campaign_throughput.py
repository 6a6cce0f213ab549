"""Campaign throughput: the fleet-scale fast path, cold vs cached.

The workload is the paper's §VII-A guessing campaign expressed as
scenario specs — one freshly randomized protected board per attempt —
fanned out by :class:`repro.sim.CampaignRunner`.  Three measurements:

* **cold serial baseline** — no artifact cache, every scenario pays the
  toolchain build, the defense preprocess pass and the simulated ISP
  programming + boot, exactly as before the fast path existed;
* **cached runs at jobs ∈ {1, 2, 4}** — a priming pass publishes the
  build and deploy artifacts, then every job level re-runs the same
  specs against the shared cache root (each scenario still programs
  and boots its own board seed);
* **per-scenario setup time** — the ``build+preprocess+program+boot``
  host milliseconds from the phase attribution, cold vs cached.

Asserted floors:

* cached setup beats cold setup by >= ``CACHED_SETUP_FLOOR`` (5x) per
  scenario — enforced everywhere, including single-core boxes;
* 4 cached jobs beat 1 cached job by >= ``SPEEDUP_FLOOR`` (2.5x)
  wall-clock — enforced only with >= 2 usable cores (CI runners);
* the JSONL bytes are identical across cold/cached and serial/parallel,
  so neither speedup is ever bought with a determinism regression.

Results land in ``BENCH_campaign_throughput.json`` at the repo root.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_campaign_throughput.py -q -s
Scale with REPRO_BENCH_SCENARIOS (default 8).
"""

import json
import os
import time
from pathlib import Path

from repro.sim import CampaignRunner, ScenarioSpec, seeded_specs

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_campaign_throughput.json"
)
JOB_LEVELS = (1, 2, 4)
#: 4 cached jobs vs 1 cached job, wall-clock (enforced with >= 2 cores)
SPEEDUP_FLOOR = 2.5
#: cold vs cached per-scenario setup host time (always enforced)
CACHED_SETUP_FLOOR = 5.0
SETUP_PHASES = ("build", "preprocess", "program", "boot")
BASE_SEED = 2024


def _scenario_count() -> int:
    return int(os.environ.get("REPRO_BENCH_SCENARIOS", "8"))


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def _specs(count):
    return seeded_specs(
        ScenarioSpec, count, BASE_SEED, "bench", app="testapp", attack="guess"
    )


def _setup_ms(report) -> float:
    return sum(
        report.phases[name]["host_ms"]
        for name in SETUP_PHASES if name in report.phases
    )


def test_campaign_throughput(benchmark, tmp_path):
    count = _scenario_count()
    specs = _specs(count)
    cores = _usable_cores()
    cache_dir = tmp_path / "artifact-cache"

    # cold serial baseline: the pre-fast-path cost, straight off the specs
    cold_path = tmp_path / "cold.jsonl"
    start = time.perf_counter()
    cold = CampaignRunner(jobs=1, jsonl_path=cold_path).run(specs)
    cold_wall = time.perf_counter() - start
    assert cold.aggregates["errors"] == 0

    # priming pass publishes build/deploy artifacts to the shared root
    prime_path = tmp_path / "prime.jsonl"
    start = time.perf_counter()
    prime = CampaignRunner(
        jobs=1, jsonl_path=prime_path, cache_dir=cache_dir
    ).run(specs)
    prime_wall = time.perf_counter() - start
    assert prime.aggregates == cold.aggregates

    # cached runs: every job level replays the same specs against the cache
    wall, rate, reports = {}, {}, {}
    for jobs in JOB_LEVELS:
        jsonl = tmp_path / f"cached-{jobs}.jsonl"
        runner = CampaignRunner(jobs=jobs, jsonl_path=jsonl, cache_dir=cache_dir)
        start = time.perf_counter()
        report = runner.run(specs)
        wall[jobs] = time.perf_counter() - start
        rate[jobs] = count / wall[jobs]
        reports[jobs] = report
        assert report.aggregates["errors"] == 0
        # neither speedup is bought with nondeterminism: cold vs cached
        # and serial vs parallel emit byte-identical JSONL
        assert jsonl.read_bytes() == cold_path.read_bytes(), (
            f"cached jobs={jobs} JSONL diverged from the cold serial baseline"
        )
    assert prime_path.read_bytes() == cold_path.read_bytes()

    cold_setup = _setup_ms(cold) / count
    cached_setup = _setup_ms(reports[1]) / count
    setup_speedup = cold_setup / cached_setup if cached_setup else float("inf")
    speedup_at_4 = wall[1] / wall[4]

    results = {
        "scenarios": count,
        "usable_cores": cores,
        "wall_s": {
            "cold_serial": round(cold_wall, 3),
            "prime_serial": round(prime_wall, 3),
            **{f"cached_{j}": round(wall[j], 3) for j in JOB_LEVELS},
        },
        "scenarios_per_second": {
            "cold_serial": round(count / cold_wall, 3),
            **{f"cached_{j}": round(rate[j], 3) for j in JOB_LEVELS},
        },
        "cached_speedup_vs_serial": {
            str(j): round(wall[1] / wall[j], 3) for j in JOB_LEVELS
        },
        "setup_ms_per_scenario": {
            "cold": round(cold_setup, 3),
            "cached": round(cached_setup, 3),
            "speedup": round(setup_speedup, 1),
        },
        "jsonl_identity": {"cold_vs_cached": True, "serial_vs_parallel": True},
        "floors": {
            "speedup_at_4_jobs": SPEEDUP_FLOOR,
            "parallel_enforced": cores >= 2,
            "cached_setup_speedup": CACHED_SETUP_FLOOR,
            "cached_setup_enforced": True,
        },
    }

    # pytest-benchmark row: one cached scenario batch
    benchmark.pedantic(
        lambda: CampaignRunner(jobs=1, cache_dir=cache_dir).run(specs[:1]),
        rounds=1, iterations=1,
    )

    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\n{'run':>12} {'wall':>9} {'scen/s':>8} {'speedup':>8}")
    print(f"{'cold serial':>12} {cold_wall:>8.2f}s {count / cold_wall:>8.2f} {'':>8}")
    for jobs in JOB_LEVELS:
        print(f"{f'cached x{jobs}':>12} {wall[jobs]:>8.2f}s {rate[jobs]:>8.2f} "
              f"{wall[1] / wall[jobs]:>7.2f}x")
    print(f"setup/scenario: cold {cold_setup:.1f} ms, cached {cached_setup:.2f} ms "
          f"({setup_speedup:.0f}x); usable cores: {cores}; "
          f"results written to {RESULTS_PATH}")

    assert setup_speedup >= CACHED_SETUP_FLOOR, (
        f"cached setup only {setup_speedup:.1f}x faster than cold per scenario; "
        f"the floor is {CACHED_SETUP_FLOOR}x"
    )
    if cores >= 2:
        assert speedup_at_4 >= SPEEDUP_FLOOR, (
            f"4 jobs only {speedup_at_4:.2f}x faster than serial on "
            f"{cores} cores; the floor is {SPEEDUP_FLOOR}x"
        )
    else:
        print(f"single-core machine: {SPEEDUP_FLOOR}x parallel floor "
              f"recorded, not enforced (speedup {speedup_at_4:.2f}x)")
