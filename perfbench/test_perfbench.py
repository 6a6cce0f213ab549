"""Self-tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
from collections import defaultdict

import pytest

import measure
from bench import ROOT, copy_cache, records_digest, run_batch, setup
from layers import layer_metrics
from measure import SpeedGauge, Tracer, covered, percentile, self_times
from workloads import WORKLOADS


# -- percentiles --------------------------------------------------------------

def test_percentile_is_nearest_rank_on_unsorted_samples():
    samples = [float(v) for v in range(100, 0, -1)]
    assert percentile(samples, 50) == (50.0, True)
    assert percentile(samples, 90) == (90.0, True)
    assert percentile([7.0], 50) == (7.0, False)


@pytest.mark.parametrize(
    "count, p, valid",
    [(99, 90, False), (100, 90, True), (19, 50, False), (20, 50, True)],
)
def test_percentile_needs_ten_samples_beyond(count, p, valid):
    assert percentile([float(v) for v in range(count)], p)[1] is valid


def test_percentile_of_no_samples_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


# -- spans and self time --------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _watch_boot_program(tracer, clock):
    """watch (core) -> boot (core) -> diversify (core) + program (hw)."""

    def program():
        clock.advance(3.0)

    def diversify():
        clock.advance(2.0)

    def boot():
        clock.advance(1.0)
        diversify()
        program()
        clock.advance(1.0)

    def watch():
        clock.advance(0.5)
        boot()
        clock.advance(0.5)

    program = tracer.wrap("IspProgrammer.program", "hw", program)
    diversify = tracer.wrap("DefenseBackend.diversify", "core", diversify)
    boot = tracer.wrap("MasterProcessor.boot", "core", boot)
    return tracer.wrap("MasterProcessor.watch", "core", watch)


def test_self_time_subtracts_children_of_same_and_other_layers():
    clock = FakeClock()
    tracer = Tracer(clock)
    watch = _watch_boot_program(tracer, clock)
    clock.advance(10.0)
    watch()
    clock.advance(4.0)  # outside every span

    names = [span[0] for span in tracer.spans]
    own = dict(zip(names, self_times(tracer.spans)))
    assert own == {
        "MasterProcessor.watch": 1.0,
        "MasterProcessor.boot": 2.0,
        "DefenseBackend.diversify": 2.0,
        "IspProgrammer.program": 3.0,
    }
    assert covered(tracer.spans) == 8.0

    wall_s = clock.now - 10.0
    metrics = layer_metrics(tracer, {}, [], {}, wall_s, 0.0, 1.0)
    assert metrics["core.self_ms"] == 5000.0  # watch + boot + diversify
    assert metrics["hw.self_ms"] == 3000.0
    assert metrics["core.watch_self_ms"] == 1000.0
    assert metrics["core.boot_self_ms"] == 2000.0
    assert metrics["hw.program_ms"] == 3000.0
    assert metrics["sim.unattributed_ms"] == 4000.0
    assert metrics["core.self_ms"] + metrics["hw.self_ms"] + 4000.0 == wall_s * 1000.0
    assert metrics["uav.ticks"] is None  # layer unused: not applicable


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def failing():
        clock.advance(1.0)
        raise RuntimeError("boom")

    failing = tracer.wrap("f", "core", failing)
    with pytest.raises(RuntimeError):
        failing()
    tracer.wrap("g", "core", lambda: clock.advance(2.0))()
    assert [span[4] for span in tracer.spans] == [-1, -1]
    assert self_times(tracer.spans) == [1.0, 2.0]


# -- host speed ----------------------------------------------------------------

def test_speed_gauge_reuses_a_fresh_reading(monkeypatch):
    readings = iter([10.0, 20.0])
    gauge = SpeedGauge(probe=lambda: next(readings))
    first = gauge.read()
    assert first[0] == 10.0 and first[1] >= 0.0
    assert gauge.read() == (10.0, 0.0)  # younger than PROBE_EVERY_S
    monkeypatch.setattr(measure, "PROBE_EVERY_S", 0.0)
    assert gauge.read()[0] == 20.0


# -- determinism -------------------------------------------------------------

def test_recovery_records_digest_same_inline_and_on_the_pool(tmp_path):
    workload = WORKLOADS["recovery"]
    setup(workload, 2, tmp_path / "setup")
    specs = workload.specs(2, 0, 6)
    digests = []
    for jobs in (1, 2):
        jsonl = tmp_path / f"jobs{jobs}.jsonl"
        _wall, report = run_batch(
            specs, jobs, copy_cache(tmp_path / "setup", tmp_path / f"cache{jobs}"),
            jsonl,
        )
        assert [workload.failure(r) for r in report.results] == [None] * len(specs)
        digests.append(records_digest(jsonl))
    assert digests[0] == digests[1]


# -- the benchmark's own files agree -----------------------------------------------

def test_interaction_map_covers_every_per_layer_metric_once():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    interactions = json.loads(
        (ROOT / "perfbench" / "interactions.json").read_text()
    )
    mapped = defaultdict(int)
    for group in interactions["per_layer"]:
        for name in group["metrics"]:
            mapped[name] += 1
        for name in group["moves"]:
            assert name in {m["name"] for m in contract["end_to_end"]} | {
                "scenario_ms.p90", "recovery_sim_ms", "pages_per_recovery",
            }
        assert set(group["on"] + group["not_on"]) <= set(WORKLOADS)
    assert dict(mapped) == {m["name"]: 1 for m in contract["per_layer"]}
    assert set(interactions["workloads"]) == set(WORKLOADS)
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
