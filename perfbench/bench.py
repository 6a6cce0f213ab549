"""Benchmark orchestration: set-up, timed campaigns, the traced run, report.

A run of one workload starts in a fresh interpreter (``run.py``):

1. **Set-up** builds the workload's firmware and publishes its ``build``
   and ``deploy`` artifacts into an empty artifact cache.  It runs
   :data:`SETUP_REPEATS` times, each in a new interpreter on a new cache
   directory, and ``setup_s`` is the median wall time of those processes.
2. **Timed campaign** (``--trace 0``): batches of specs go through
   :class:`repro.sim.CampaignRunner` against the last set-up's cache until
   ``--seconds`` of campaign wall time have passed.  The first batch is the
   verdict batch: its JSONL is digested and the simulated metrics come from
   it, so they repeat exactly per seed.
3. **Traced run** (``--trace 1``): set-up and the verdict batch are traced
   in-process, inline, with spans around every layer's entry points; the
   same batch also runs untraced (as timed, and inline when the workload
   uses a pool) for the pool time and the tracing overhead.

The gated host times (``scenarios_per_s``, ``scenario_ms.p50``,
``sim_insn_per_s``, ``setup_s``) are reported at reference speed: each
scenario and set-up is scaled by the host speed read next to it in the
same process (``measure.SpeedGauge``), because a shared host's cores slow
by up to half for tens of seconds at a time.  The report prints the
as-measured value beside each.

Every scenario's result must meet its workload's expected verdict; any
scenario that does not, or that ends in ``error``/``timeout``, is a failed
operation and makes the run exit non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.defenses import create_backend
from repro.sim import Board, CampaignRunner, SwarmSpec, get_cache, load_spec_image

from layers import LAYERS, ScenarioProbe, install_tracer, layer_metrics, sample_of
from measure import REFERENCE_MS, Tracer, percentile, speed_probe
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"
#: traces and per-run scratch space, inside the checkout
OUTPUT_DIR = ROOT / ".bench_build" / "perfbench"
#: cold set-ups per run; setup_s is their median
SETUP_REPEATS = 3
#: a traced run fails when more of its wall than this lies outside spans
UNATTRIBUTED_LIMIT = 0.05


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- set-up -----------------------------------------------------------------

def setup(workload: Workload, seed: int, cache_root: Path) -> None:
    """Build the firmware; publish its build and deploy artifacts."""
    spec = workload.setup_spec(seed)
    cache = get_cache(cache_root)
    load_spec_image(spec, cache)
    Board(spec, cache=cache)


def cold_setup_s(workload: Workload, seed: int, cache_root: Path) -> Tuple[float, float]:
    """Wall time of a new interpreter doing :func:`setup` on an empty
    cache, as measured and at reference speed.

    The child reads the host speed itself, before and after its set-up:
    the two vCPUs of a shared host can be slowed by different amounts.
    """
    start = time.perf_counter()
    child = subprocess.run(
        [
            sys.executable, str(RUN_SCRIPT), "--setup-only", str(cache_root),
            "--workload", workload.name, "--seed", str(seed),
        ],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    probes = json.loads(child.stdout.strip().splitlines()[-1])
    wall = time.perf_counter() - start - probes["spent_ms"] / 1000.0
    return wall, wall * REFERENCE_MS / statistics.fmean(probes["probe_ms"])


def setup_child(workload: Workload, seed: int, cache_root: Path) -> None:
    """The set-up process: :func:`setup` between two speed readings."""
    start = time.perf_counter()
    before = speed_probe()
    spent = time.perf_counter() - start
    setup(workload, seed, cache_root)
    start = time.perf_counter()
    after = speed_probe()
    spent += time.perf_counter() - start
    print(json.dumps({"probe_ms": [before, after], "spent_ms": spent * 1000.0}))


def copy_cache(source: Path, target: Path) -> Path:
    target.mkdir(parents=True)
    for path in source.iterdir():
        shutil.copyfile(path, target / path.name)
    return target


# -- campaigns ----------------------------------------------------------------

def reap_workers() -> None:
    """Wait for pool workers: the runner shuts its pool down without waiting."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)
        if child.is_alive():
            child.terminate()
            child.join()


def run_batch(
    specs: Sequence, jobs: int, cache_root: Path, jsonl_path: Optional[Path] = None
):
    """One closed-loop batch; returns (wall seconds, CampaignReport)."""
    runner = CampaignRunner(jobs=jobs, cache_dir=cache_root, jsonl_path=jsonl_path)
    start = time.perf_counter()
    report = runner.run(specs)
    wall = time.perf_counter() - start
    reap_workers()
    return wall, report


def records_digest(jsonl_path: Path) -> str:
    """BLAKE2b of a campaign's deterministic JSONL."""
    return hashlib.blake2b(jsonl_path.read_bytes(), digest_size=16).hexdigest()


def failures(workload: Workload, results: Sequence) -> List[Tuple[int, str]]:
    found = []
    for result in results:
        reason = workload.failure(result)
        if reason is None and sample_of(result) is None:
            reason = "no sample: the scenario did not run through the probe"
        if reason is not None:
            found.append((result.index, reason))
    return found


def _boards(result) -> int:
    return result.spec.boards if isinstance(result.spec, SwarmSpec) else 1


def simulated_metrics(
    workload: Workload, seed: int, verdict_results: Sequence, cache_root: Path
) -> Dict[str, Optional[float]]:
    """Deterministic metrics of the verdict batch (simulated time)."""
    boards = sum(_boards(result) for result in verdict_results)
    recoveries = [
        recovery
        for result in verdict_results
        for recovery in sample_of(result).recoveries
    ]
    spec = workload.setup_spec(seed)
    image = load_spec_image(spec, get_cache(cache_root))
    return {
        "startup_sim_ms": sum(r.startup_overhead_ms for r in verdict_results) / boards,
        "recovery_sim_ms": (
            statistics.fmean(sim_ms for sim_ms, _ in recoveries) if recoveries else None
        ),
        "pages_per_recovery": (
            statistics.fmean(pages for _, pages in recoveries) if recoveries else None
        ),
        "entropy_bits": create_backend(spec.defense).entropy_bits(image),
        "_boards": boards,
        "_recoveries": len(recoveries),
    }


def timed_run(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        cache_root = work / f"cache-{repeat}"
        setup_times.append(cold_setup_s(workload, seed, cache_root))

    ScenarioProbe().install()
    jsonl = work / "records.jsonl"
    wall, report = run_batch(
        workload.specs(seed, 0, workload.verdict_batch), workload.jobs,
        cache_root, jsonl,
    )
    verdict_results = list(report.results)
    results = list(report.results)
    walls = [wall]
    while sum(walls) < seconds:
        # every scenario has its own board seed, so no snapshot is ever
        # read back; dropping them bounds the disk a run uses
        for path in cache_root.glob("board-*"):
            path.unlink()
        wall, report = run_batch(
            workload.specs(seed, len(results), workload.batch), workload.jobs,
            cache_root,
        )
        results += report.results
        walls.append(wall)

    failed = failures(workload, results)
    samples = [sample_of(r) for r in results if sample_of(r) is not None]
    if not samples:
        raise SystemExit("perfbench: no scenario completed")
    # the gauge's own probing is no part of the campaign
    wall_s = sum(walls) - sum(s.probe_spent_ms for s in samples) / 1000.0 / workload.jobs
    factor = sum(s.reference_ms for s in samples) / sum(s.host_ms for s in samples)
    insn = sum(sample.insn for sample in samples)
    p50, p50_valid = percentile([s.reference_ms for s in samples], 50)
    p90, p90_valid = percentile([s.reference_ms for s in samples], 90)
    peak_kb = max(
        [sample.maxrss_kb for sample in samples]
        + [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
    )
    measured = {
        "scenarios_per_s": len(samples) / wall_s,
        "scenario_ms.p50": percentile([s.host_ms for s in samples], 50)[0],
        "scenario_ms.p90": percentile([s.host_ms for s in samples], 90)[0],
        "sim_insn_per_s": insn / wall_s,
        "setup_s": statistics.median(wall for wall, _ in setup_times),
    }
    verdict_failed = failures(workload, verdict_results)
    simulated = (
        simulated_metrics(workload, seed, verdict_results, cache_root)
        if not verdict_failed else {}
    )
    return {
        "metrics": {
            "scenarios_per_s": len(samples) / (wall_s * factor),
            "scenario_ms.p50": p50,
            "scenario_ms.p90": p90,
            "sim_insn_per_s": insn / (wall_s * factor),
            "setup_s": statistics.median(reference for _, reference in setup_times),
            "peak_rss_mb": peak_kb / 1024.0,
            **{k: v for k, v in simulated.items() if not k.startswith("_")},
        },
        "measured": measured,
        "notes": {
            "scenarios_per_s": f"n={len(samples)} scenarios, {wall_s:.2f} s wall, "
            f"{len(walls)} batches, host {1.0 / factor:.3f}x slower than reference",
            "scenario_ms.p50": f"n={len(samples)}" + ("" if p50_valid else " (fewer than 10 beyond)"),
            "scenario_ms.p90": f"n={len(samples)}" + (
                "" if p90_valid else " (not valid: needs >= 100 scenarios)"
            ),
            "sim_insn_per_s": f"{insn} insn",
            "setup_s": f"n={len(setup_times)} cold set-ups, measured "
            + " ".join(f"{wall:.3f}" for wall, _ in setup_times),
            "peak_rss_mb": "largest of the campaign process and its pool workers",
            "startup_sim_ms": f"mean of {simulated.get('_boards', 0)} boards (verdict batch)",
            "recovery_sim_ms": f"mean of {simulated.get('_recoveries', 0)} recoveries (verdict batch)",
            "pages_per_recovery": f"mean of {simulated.get('_recoveries', 0)} recoveries (verdict batch)",
            "entropy_bits": "of the deployed image",
        },
        "p90_valid": p90_valid,
        "attempted": len(results),
        "failed": failed,
        "digest": records_digest(jsonl),
        "correct": not failed,
    }


def traced_run(workload: Workload, seed: int, work: Path) -> dict:
    tracer = Tracer()
    counts: Dict[str, float] = defaultdict(float)
    specs = workload.specs(seed, 0, workload.verdict_batch)

    setup_root = work / "cache-setup"
    patches = install_tracer(tracer, counts)
    start = time.perf_counter()
    setup(workload, seed, setup_root)
    setup_wall = time.perf_counter() - start
    patches.restore()
    probe = ScenarioProbe().install()

    timed_wall, timed = run_batch(
        specs, workload.jobs, copy_cache(setup_root, work / "cache-timed"),
        work / "timed.jsonl",
    )
    digests = {"timed": records_digest(work / "timed.jsonl")}
    reports = [timed]
    timed_samples = [sample_of(r) for r in timed.results if sample_of(r) is not None]
    in_worker_ms = sum(s.host_ms + s.probe_spent_ms for s in timed_samples)
    pool_ms = timed_wall * 1000.0 - in_worker_ms / workload.jobs
    inline_wall = timed_wall
    if workload.jobs > 1:
        inline_wall, inline = run_batch(
            specs, 1, copy_cache(setup_root, work / "cache-inline"),
            work / "inline.jsonl",
        )
        digests["inline"] = records_digest(work / "inline.jsonl")
        reports.append(inline)

    traced_root = copy_cache(setup_root, work / "cache-traced")
    # the probe goes back on outside the spans, so its speed readings fall
    # between scenario spans and come off the traced wall below
    probe.patches.restore()
    patches = install_tracer(tracer, counts)
    probe.install()
    traced_wall, traced = run_batch(specs, 1, traced_root, work / "traced.jsonl")
    probe.patches.restore()
    patches.restore()
    digests["traced"] = records_digest(work / "traced.jsonl")
    reports.append(traced)

    # per scenario at reference speed, paired by index: a slow spell of the
    # host during one pass moves a few pairs, not the median
    untraced_ms = {
        r.index: sample_of(r).reference_ms for r in reports[-2].results
        if sample_of(r) is not None
    }
    traced_samples = [sample_of(r) for r in traced.results if sample_of(r) is not None]
    overhead = statistics.median(
        sample_of(r).reference_ms / untraced_ms[r.index] for r in traced.results
        if sample_of(r) is not None and r.index in untraced_ms
    )
    # the gauge probes between scenarios, outside every span
    traced_wall -= sum(s.probe_spent_ms for s in traced_samples) / 1000.0
    wall_s = setup_wall + traced_wall
    metrics = layer_metrics(
        tracer, counts, traced_samples, get_cache(traced_root).counts(),
        wall_s, pool_ms, overhead,
    )
    layer_sum = sum(metrics[f"{layer}.self_ms"] or 0.0 for layer in LAYERS)
    unattributed = metrics["sim.unattributed_ms"]
    balanced = abs(layer_sum + unattributed - wall_s * 1000.0) <= 1e-6 * wall_s * 1000.0
    share = unattributed / (wall_s * 1000.0)
    results = [r for report in reports for r in report.results]
    failed = failures(workload, results)

    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUTPUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "wall_ms": wall_s * 1000.0,
        "spans": tracer.records(),
    }), encoding="utf-8")
    return {
        "metrics": metrics,
        "attempted": len(results),
        "failed": failed,
        "digests": digests,
        "walls_ms": {
            "setup": setup_wall * 1000.0, "traced": traced_wall * 1000.0,
            "untraced_inline": inline_wall * 1000.0, "timed": timed_wall * 1000.0,
        },
        "layer_sum_ms": layer_sum,
        "balanced": balanced,
        "unattributed_share": share,
        "spans_path": spans_path,
        "correct": (
            not failed and balanced and share <= UNATTRIBUTED_LIMIT
            and len(set(digests.values())) == 1
        ),
    }


# -- report -----------------------------------------------------------------

#: every end-to-end metric of a timed run, in report order, with units for
#: those BENCHMARK.json does not gate (p90 lacks samples on two workloads;
#: the simulated ones repeat exactly, so a time bound means nothing there)
REPORTED = {
    "scenarios_per_s": None,
    "scenario_ms.p50": None,
    "scenario_ms.p90": "ms",
    "sim_insn_per_s": None,
    "setup_s": None,
    "peak_rss_mb": None,
    "startup_sim_ms": "sim_ms",
    "recovery_sim_ms": "sim_ms",
    "pages_per_recovery": "pages",
    "entropy_bits": "bits",
}


def _show(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _print_failures(failed: Sequence[Tuple[int, str]]) -> None:
    for index, reason in failed[:10]:
        print(f"perfbench: scenario {index}: {reason}", file=sys.stderr)


def report_timed(workload: Workload, seed: int, outcome: dict, contract: dict) -> dict:
    metrics, notes = outcome["metrics"], outcome["notes"]
    gated = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    clients = "inline" if workload.jobs == 1 else f"{workload.jobs} workers"
    print(f"perfbench workload={workload.name} seed={seed} trace=0 "
          f"(closed loop, {clients}; host times at reference speed)")
    for name, unit in REPORTED.items():
        unit = gated.get(name, unit)
        note = notes.get(name, "")
        if name in outcome["measured"]:
            note = f"measured {_show(outcome['measured'][name])}; {note}"
        print(f"  {name:<20} {_show(metrics.get(name)):>14} {unit:<7} {note}")
    print(f"  attempted {outcome['attempted']}  failed {len(outcome['failed'])}")
    print(f"  records_digest {outcome['digest']} "
          f"(first {workload.verdict_batch} scenarios)")
    _print_failures(outcome["failed"])
    return {m["name"]: metrics[m["name"]] for m in contract["end_to_end"]}


def report_traced(workload: Workload, seed: int, outcome: dict, contract: dict) -> dict:
    metrics = outcome["metrics"]
    walls = outcome["walls_ms"]
    print(f"perfbench workload={workload.name} seed={seed} trace=1 "
          f"(inline; verdict batch of {workload.verdict_batch})")
    for entry in contract["per_layer"]:
        print(f"  {entry['name']:<30} {_show(metrics[entry['name']]):>14} {entry['unit']}")
    print(f"  traced wall {walls['setup'] + walls['traced']:.3f} ms "
          f"(set-up {walls['setup']:.3f} + campaign {walls['traced']:.3f}); "
          f"layer self times {outcome['layer_sum_ms']:.3f} ms + unattributed "
          f"{metrics['sim.unattributed_ms']:.3f} ms "
          f"({100.0 * outcome['unattributed_share']:.2f}%, limit "
          f"{100.0 * UNATTRIBUTED_LIMIT:.0f}%), balanced={outcome['balanced']}")
    print(f"  tracing overhead {metrics['trace.overhead_ratio']:.4f} "
          f"(median over scenarios of traced / untraced inline host ms; "
          f"walls {walls['traced']:.1f} / {walls['untraced_inline']:.1f} ms)")
    print(f"  attempted {outcome['attempted']}  failed {len(outcome['failed'])}")
    for name, digest in outcome["digests"].items():
        print(f"  records_digest[{name}] {digest}")
    print(f"  spans written to {outcome['spans_path'].relative_to(ROOT)}")
    _print_failures(outcome["failed"])
    return {
        m["name"]: 0.0 if metrics[m["name"]] is None else metrics[m["name"]]
        for m in contract["per_layer"]
    }


def run_one(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    contract = load_contract()
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(
        prefix=f"work-{workload.name}-seed{seed}-", dir=OUTPUT_DIR
    ))
    # anything the program or the pool puts in a temp dir stays in the checkout
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    try:
        if trace:
            outcome = traced_run(workload, seed, work)
            values = report_traced(workload, seed, outcome, contract)
            units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        else:
            outcome = timed_run(workload, seed, seconds, work)
            values = report_timed(workload, seed, outcome, contract)
            units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    finally:
        reap_workers()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }), flush=True)
    return 0 if outcome["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own fresh interpreter."""
    status = 0
    summary = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [
                sys.executable, str(RUN_SCRIPT), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace)),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        summary[name] = (
            json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        )
        status = status or child.returncode
    print(json.dumps({"workloads": summary}), flush=True)
    return 1 if status else 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="CACHE_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only is not None:
        setup_child(WORKLOADS[args.workload], args.seed, Path(args.setup_only))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
