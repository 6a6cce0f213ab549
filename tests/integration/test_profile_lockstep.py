"""Profiler consistency across both engines, plus the V2 forensic
golden test.

The profiler's accuracy contract (docs/OBSERVABILITY.md):

* ``exact`` mode attributes *every* cycle the core spends — the sum of
  per-PC samples equals the CPU cycle counter bit-for-bit on every
  engine, and the per-function tables are identical across engines.
* ``block`` mode (compiled engine only) charges whole fused blocks;
  taken-branch extras, interrupt service overhead and budget-tail
  instructions are invisible at that granularity, so its totals agree
  with ``exact`` only to within a few percent — but the hot-function
  ranking must match.
* the gadget heatmap must flag a V2 code-reuse chain (forged returns
  into gadget bodies) on an otherwise clean run, and the forensic
  bundle built from that run must carry the gadget PCs.
"""

import pytest

from repro.avr import AvrProfiler, FlightRecorder
from repro.sim import Board, ScenarioSpec, run_scenario

ENGINES = ("interpreter", "compiled")


def profile_flight(engine, mode, ticks=40):
    board = Board(ScenarioSpec(
        app="testapp", protected=False, engine=engine, profile=mode,
    ))
    board.boot()
    board.attach_observers()
    board.run(ticks)
    return board


# -- exact mode: cycle conservation on every engine -------------------------

def test_exact_totals_equal_cycle_counter_on_all_engines():
    tables = {}
    for engine in ENGINES:
        board = profile_flight(engine, "exact")
        cpu = board.autopilot.cpu
        profiler = board.profiler
        assert profiler.effective_mode == "exact"
        assert profiler.total_cycles == cpu.cycles_lifetime + cpu.cycles
        report = profiler.report()
        assert report["total_cycles"] == profiler.total_cycles
        tables[engine] = [
            (f["name"], f["hits"], f["self_cycles"])
            for f in report["functions"]
        ]
    # identical attribution, not merely identical totals
    for engine in ENGINES[1:]:
        assert tables[engine] == tables[ENGINES[0]], engine


# -- block mode: fast-path attribution within tolerance ---------------------

@pytest.mark.parametrize("engine", ("compiled",))
def test_block_mode_agrees_with_exact_within_granularity(engine):
    exact = profile_flight("interpreter", "exact")
    block = profile_flight(engine, "block")
    assert block.profiler.effective_mode == "block"
    # the superblock fast path stayed fast: no trace hooks attached
    assert not block.autopilot.cpu.trace_hooks

    exact_total = exact.profiler.total_cycles
    block_total = block.profiler.total_cycles
    assert block_total == pytest.approx(exact_total, rel=0.10)

    top_exact = [f["name"] for f in exact.profiler.report()["functions"][:5]]
    top_block = [f["name"] for f in block.profiler.report()["functions"][:5]]
    assert set(top_exact) & set(top_block), (top_exact, top_block)
    assert top_exact[0] == top_block[0]


# -- gadget heatmap + forensic bundle: the V2 golden test -------------------

@pytest.fixture(scope="module")
def v2_result():
    return run_scenario(ScenarioSpec(
        app="testapp", protected=False, attack="v2",
        warmup_ticks=10, observe_ticks=30,
        profile="heatmap", flight_recorder=True, telemetry=True,
    ))


def test_v2_heatmap_flags_out_of_chain_pcs(v2_result):
    assert v2_result.stealthy  # the attack itself still works
    assert v2_result.profile_anomalies >= 1
    anomalies = v2_result.profile["anomalies"]
    kinds = {a["kind"] for a in anomalies}
    assert "bad_return" in kinds
    # the forged returns land in the gadget functions the chain reuses
    targets = {a["target_function"] for a in anomalies}
    assert {"rtos_context_restore", "param_block_write"} & targets


def test_v2_forensic_bundle_contains_gadget_evidence(v2_result):
    bundle = v2_result.forensics
    assert bundle is not None
    assert bundle["kind"] == "profile_anomaly"
    assert bundle["schema"] == 1
    assert len(bundle["registers"]) == 32
    assert bundle["ring"], "flight-recorder ring is empty"
    assert any(entry["current"] for entry in bundle["disassembly"])
    profile = bundle["profile"]
    assert profile["anomaly_count"] == v2_result.profile_anomalies
    gadget_pcs = {
        a["target_pc"] for a in profile["anomalies"]
        if a["target_function"] in ("rtos_context_restore", "param_block_write")
    }
    assert gadget_pcs, "no out-of-chain PC pointed into a gadget body"
    # the anomaly events rode the telemetry stream too
    names = [e.get("event") for e in v2_result.events]
    assert "attack.profile_anomaly" in names


def test_clean_flight_has_no_anomalies_on_any_engine():
    for engine in ENGINES:
        board = profile_flight(engine, "heatmap", ticks=30)
        assert board.profiler.anomaly_count == 0, engine


def test_protected_detection_freezes_bundle_before_recovery(testapp):
    result = run_scenario(ScenarioSpec(
        app="testapp", protected=True, attack="v2",
        warmup_ticks=20, observe_ticks=100, watch_every=5,
        profile="heatmap", flight_recorder=True, telemetry=True,
    ))
    assert result.detected
    bundle = result.forensics
    assert bundle is not None
    # frozen by the master at detection time, not rebuilt post-recovery
    assert bundle["kind"] == "attack_detected"


def test_flight_recorder_ring_is_bounded():
    board = Board(ScenarioSpec(app="testapp", protected=False))
    board.boot()
    recorder = FlightRecorder(depth=64).attach(board.autopilot.cpu)
    board.run(20)
    assert len(recorder.states) == 64
    bundle = recorder.bundle("bounded-ring check")
    assert len(bundle["ring"]) == 64
