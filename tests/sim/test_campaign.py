"""CampaignRunner: determinism contract, pool failure semantics, sinks.

The determinism suite is the acceptance test for the whole scenario
layer: the same spec list must yield identical aggregates and identical
JSONL bytes whether it runs inline, across 4 workers, or twice in a row.
"""

import json
import signal

import pytest

from repro.sim import (
    PHASE_ORDER,
    CampaignRunner,
    PoolTaskError,
    ScenarioSpec,
    SwarmSpec,
    aggregate_phases,
    aggregate_results,
    derive_seed,
    deterministic_phases,
    map_indexed,
    run_scenario,
    seeded_specs,
)


def specs_for(n, base_seed=99, telemetry=False, **overrides):
    return [
        ScenarioSpec(
            app="testapp",
            seed=derive_seed(base_seed, index, "board"),
            attack="guess",
            attack_seed=derive_seed(base_seed, index, "attack"),
            telemetry=telemetry,
            label=f"g{index}",
            **overrides,
        )
        for index in range(n)
    ]


# -- determinism contract ----------------------------------------------------

def test_serial_vs_parallel_bit_identical(tmp_path):
    specs = specs_for(4, telemetry=True)
    serial_path = tmp_path / "serial.jsonl"
    parallel_path = tmp_path / "parallel.jsonl"
    serial = CampaignRunner(jobs=1, jsonl_path=serial_path).run(specs)
    parallel = CampaignRunner(jobs=4, jsonl_path=parallel_path).run(specs)
    assert serial.aggregates == parallel.aggregates
    assert serial.records() == parallel.records()
    assert serial_path.read_bytes() == parallel_path.read_bytes()
    # runner diagnostics are the non-deterministic part, by design
    assert serial.runner["jobs"] == 1 and parallel.runner["jobs"] == 4


def test_repeated_parallel_runs_identical(tmp_path):
    specs = specs_for(3)
    first_path = tmp_path / "first.jsonl"
    second_path = tmp_path / "second.jsonl"
    first = CampaignRunner(jobs=4, jsonl_path=first_path).run(specs)
    second = CampaignRunner(jobs=4, jsonl_path=second_path).run(specs)
    assert first.aggregates == second.aggregates
    assert first_path.read_bytes() == second_path.read_bytes()


@pytest.mark.parametrize("spec_type,fields", (
    (ScenarioSpec, {"attack": "guess"}),
    (SwarmSpec, {"attack": "flood", "boards": 2}),
), ids=("ScenarioSpec", "SwarmSpec"))
def test_seeded_spec_builder(spec_type, fields):
    specs = seeded_specs(spec_type, 3, 8, "run", app="testapp", **fields)
    assert [type(spec) for spec in specs] == [spec_type] * 3
    assert [spec.seed for spec in specs] == [
        derive_seed(8, index, "board") for index in range(3)
    ]
    assert [spec.attack_seed for spec in specs] == [
        derive_seed(8, index, "attack") for index in range(3)
    ]
    assert [spec.label for spec in specs] == ["run-0", "run-1", "run-2"]
    assert all(spec.attack == fields["attack"] for spec in specs)
    # the same arguments always build the same list; another seed does not
    assert seeded_specs(spec_type, 3, 8, "run", app="testapp", **fields) == specs
    other = seeded_specs(spec_type, 3, 9, "run", app="testapp", **fields)
    assert all(a != b for a, b in zip(other, specs))


# -- aggregates and sinks ----------------------------------------------------

def test_jsonl_sink_layout(tmp_path):
    specs = specs_for(2)
    path = tmp_path / "out.jsonl"
    report = CampaignRunner(jobs=1, jsonl_path=path).run(specs)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 4  # one per spec + trailing aggregates + phases
    assert [line["index"] for line in lines[:-2]] == [0, 1]
    assert lines[-2]["campaign.aggregates"] == report.aggregates
    assert lines[-1]["campaign.phases"] == deterministic_phases(report.phases)
    for line in lines[:-2]:
        assert line["spec"]["app"] == "testapp"
        assert "wall_s" not in line


def test_aggregates_shape():
    results = [run_scenario(spec, index=i) for i, spec in enumerate(specs_for(2))]
    aggregates = aggregate_results(results)
    assert aggregates["scenarios"] == 2
    assert aggregates["attacks"] == 2
    assert aggregates["effects"] == 0
    assert aggregates["detections"] == 2
    assert aggregates["detection_rate"] == 1.0
    assert aggregates["by_outcome"] == {"deflected": 2}
    assert aggregates["errors"] == 0


def test_merged_snapshot_spans_all_scenarios():
    specs = specs_for(2, telemetry=True)
    report = CampaignRunner(jobs=2).run(specs)
    merged = report.merged_snapshot
    assert merged is not None
    assert merged["sources"] == 2
    detected = [e for e in merged["events"] if e["event"] == "attack.detected"]
    assert len(detected) == 2
    assert {e["source"] for e in detected} == {0, 1}


# -- phase attribution -------------------------------------------------------

def test_phase_breakdown_shape_and_order():
    specs = specs_for(2)
    report = CampaignRunner(jobs=1).run(specs)
    assert list(report.phases) == [
        name for name in PHASE_ORDER if name in report.phases
    ]
    for name in ("build", "program", "warmup", "run"):
        assert name in report.phases
        cell = report.phases[name]
        assert cell["scenarios"] == 2
        assert cell["host_ms"] >= 0.0 and cell["sim_ms"] >= 0.0
    # the attack phase only counts scenarios that actually attacked
    assert report.phases["attack"]["scenarios"] == 2
    # programming is simulated time (the ISP timing model), not host time
    assert report.phases["program"]["sim_ms"] > 0.0


def test_phase_deterministic_fields_identical_serial_vs_parallel():
    specs = specs_for(3)
    serial = CampaignRunner(jobs=1).run(specs)
    parallel = CampaignRunner(jobs=4).run(specs)
    assert deterministic_phases(serial.phases) == deterministic_phases(
        parallel.phases
    )
    # host_ms is wall time: present in both, excluded from the contract
    assert all("host_ms" in cell for cell in serial.phases.values())
    assert all(
        "host_ms" not in cell
        for cell in deterministic_phases(serial.phases).values()
    )


def test_aggregate_phases_sums_per_scenario_cells():
    specs = specs_for(2)
    results = [run_scenario(spec, index=i) for i, spec in enumerate(specs)]
    totals = aggregate_phases(results)
    for name, cell in totals.items():
        expected = sum(r.phases[name]["sim_ms"] for r in results
                       if name in r.phases)
        assert cell["sim_ms"] == pytest.approx(expected, abs=1e-6)


def test_progress_callback_reports_each_scenario_once():
    specs = specs_for(3)
    for jobs in (1, 3):
        calls = []
        CampaignRunner(
            jobs=jobs,
            progress=lambda d, t, i, o: calls.append((d, t, i, o)),
        ).run(specs)
        assert [c[0] for c in calls] == [1, 2, 3]
        assert sorted(c[2] for c in calls) == [0, 1, 2]
        assert all(t == 3 for _, t, _, _ in calls)
        assert all(outcome == "deflected" for _, _, _, outcome in calls)


def test_progress_reports_pool_errors_too():
    bad = ScenarioSpec(app="nonesuch", attack="guess", label="broken")
    calls = []
    CampaignRunner(
        jobs=1, progress=lambda d, t, i, o: calls.append(o)
    ).run([bad])
    assert calls == ["exception"]


# -- failure semantics -------------------------------------------------------

def test_worker_crash_is_retried_and_recovers(tmp_path):
    marker = tmp_path / "crash.marker"
    specs = specs_for(2, worker_fault_marker=str(marker))
    report = CampaignRunner(jobs=2).run(specs)
    assert marker.exists()  # a worker really did die mid-campaign
    assert report.aggregates["errors"] == 0
    assert report.aggregates["detections"] == 2
    assert report.runner["worker_deaths"] == 0  # retry cleared them


def test_worker_crash_without_retry_reports_partial_results(tmp_path):
    marker = tmp_path / "crash.marker"
    specs = specs_for(3)[:2] + [
        ScenarioSpec(app="testapp", attack="guess",
                     worker_fault_marker=str(marker), label="doomed")
    ]
    report = CampaignRunner(jobs=2, retry_worker_death=False).run(specs)
    assert marker.exists()
    # every spec still has an ordered slot; the dead ones carry errors
    assert len(report.results) == 3
    assert report.aggregates["errors"] >= 1
    errored = [r for r in report.results if r.outcome == "error"]
    assert all(r.status == "unknown" and r.error for r in errored)
    assert report.runner["worker_deaths"] >= 1


def test_worker_fault_marker_is_inert_inline(tmp_path):
    marker = tmp_path / "never.marker"
    spec = ScenarioSpec(app="testapp", attack="guess",
                        worker_fault_marker=str(marker))
    report = CampaignRunner(jobs=1).run([spec])
    assert not marker.exists()  # only pool workers honor the marker
    assert report.aggregates["errors"] == 0


def test_task_exception_becomes_error_result_not_crash():
    bad = ScenarioSpec(app="nonesuch", attack="guess", label="broken")
    good = specs_for(1)[0]
    report = CampaignRunner(jobs=1).run([bad, good])
    assert report.results[0].outcome == "error"
    assert "nonesuch" in report.results[0].error
    assert report.results[1].outcome == "deflected"
    assert report.aggregates["errors"] == 1


def test_timed_out_tasks_become_timeout_results_and_are_not_checkpointed(
    tmp_path,
):
    # far more flight than a 1 s alarm allows (a fresh worker's firmware
    # build alone can take that long, so there is no in-budget control)
    specs = [
        ScenarioSpec(app="testapp", observe_ticks=100_000, label=f"slow{i}")
        for i in range(2)
    ]
    ckpt = tmp_path / "ckpt"
    report = CampaignRunner(jobs=2, timeout_s=1, checkpoint_dir=ckpt).run(specs)
    assert [r.outcome for r in report.results] == ["timeout", "timeout"]
    assert all(r.error == "exceeded 1s" for r in report.results)
    assert report.aggregates["errors"] == 2
    checkpoint = ckpt / "checkpoint.jsonl"
    assert not checkpoint.exists() or not checkpoint.read_text()


def test_timeouts_fire_when_the_launching_process_blocks_sigalrm():
    # forked workers inherit the blocked mask; unless they unblock SIGALRM
    # the alarm stays pending and each task flies all its ticks (~15 s)
    specs = [
        ScenarioSpec(app="testapp", observe_ticks=10_000, label=f"masked{i}")
        for i in range(2)
    ]
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        report = CampaignRunner(jobs=2, timeout_s=1).run(specs)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)
    assert [r.outcome for r in report.results] == ["timeout", "timeout"]
    assert all(r.error == "exceeded 1s" for r in report.results)


@pytest.mark.parametrize("timeout_s", (0, -1))
def test_non_positive_timeout_rejected(timeout_s):
    with pytest.raises(ValueError):
        CampaignRunner(timeout_s=timeout_s)


def test_map_indexed_orders_and_wraps_exceptions():
    def square(x):
        if x == 2:
            raise ValueError("boom")
        return x * x

    # inline path
    results = map_indexed(square, [1, 2, 3], jobs=1)
    assert results[0] == 1 and results[2] == 9
    assert isinstance(results[1], PoolTaskError)
    assert results[1].kind == "exception"
    assert "boom" in results[1].message
