"""Unit tests for the PC profiler: attribution, modes, anomaly checks.

Engine-spanning consistency (exact totals equal the cycle counter on
both engines, block-mode tolerance) lives in
``tests/integration/test_profile_lockstep.py``; this file covers the
pieces in isolation on synthetic programs.
"""

import pytest

from repro.avr import AvrCpu, AvrProfiler, Instruction, Mnemonic, encode_stream
from repro.avr.profile import PROFILE_MODES, function_regions
from repro.telemetry.profiler import (
    FIXED_REGION,
    FunctionTable,
    UNMAPPED_REGION,
    build_report,
    collapsed_stack_lines,
    format_profile_table,
    merge_reports,
)

I = Instruction
M = Mnemonic


def run_profiled(program, mode="exact", engine="compiled", table=None,
                 max_instructions=500, sp=None):
    cpu = AvrCpu(engine=engine)
    cpu.load_program(encode_stream(program))
    cpu.reset()
    if sp is not None:
        # leave pop room above SP (a bare RET at RAMEND reads off the
        # end of the data space)
        cpu.data.sp = sp
    profiler = AvrProfiler(mode=mode)
    if table is not None:
        profiler.table = table
    profiler.attach(cpu, cpu.engine)
    cpu.run(max_instructions)
    return cpu, profiler


# -- FunctionTable ----------------------------------------------------------

def test_function_table_resolves_regions_and_pseudo_regions():
    table = FunctionTable(
        [("alpha", 100, 120), ("beta", 120, 160)], text_start=100
    )
    assert table.resolve(104).name == "alpha"
    assert table.resolve(119).name == "alpha"
    assert table.resolve(120).name == "beta"
    assert table.resolve(40).name == FIXED_REGION
    assert table.resolve(400).name == UNMAPPED_REGION
    # repeated lookups hit the one-entry cache, same answer
    assert table.resolve(104).name == "alpha"
    assert len(table) == 2


def test_function_table_gap_between_functions_is_unmapped():
    table = FunctionTable(
        [("alpha", 100, 110), ("beta", 200, 220)], text_start=100
    )
    assert table.resolve(150).name == UNMAPPED_REGION


# -- report assembly --------------------------------------------------------

def test_build_report_sums_and_orders():
    table = FunctionTable([("hot", 0, 10), ("cold", 10, 20)], text_start=0)
    samples = {0: [5, 50], 2: [5, 60], 12: [1, 3]}
    report = build_report(samples, table)
    assert report["total_hits"] == 11
    assert report["total_cycles"] == 113
    assert [f["name"] for f in report["functions"]] == ["hot", "cold"]
    hot = report["functions"][0]
    assert hot["hits"] == 10 and hot["self_cycles"] == 110
    assert report["hot_addresses"][0]["pc"] in (0, 2)
    assert report["hot_addresses"][0]["function"] == "hot"
    # shares sum to ~100
    assert sum(f["share_pct"] for f in report["functions"]) == pytest.approx(
        100.0, abs=0.1
    )


def test_merge_reports_folds_totals():
    table = FunctionTable([("f", 0, 10)], text_start=0)
    a = build_report({0: [1, 10]}, table)
    b = build_report({2: [2, 30]}, table)
    merged = merge_reports([a, b])
    assert merged["mode"] == "merged"
    assert merged["total_cycles"] == 40
    assert merged["functions"][0]["self_cycles"] == 40


def test_collapsed_stack_lines_sorted_and_nonzero():
    lines = collapsed_stack_lines(
        {("main", "leaf"): 7, ("main",): 3, ("dead",): 0}
    )
    assert lines == ["main 3", "main;leaf 7"]


def test_format_profile_table_mentions_mode_and_functions():
    table = FunctionTable([("busy", 0, 10)], text_start=0)
    text = format_profile_table(build_report({0: [4, 9]}, table))
    assert "mode: exact" in text
    assert "busy" in text


# -- sampling: exact mode ---------------------------------------------------

def test_exact_mode_attributes_every_cycle():
    cpu, profiler = run_profiled([I(M.NOP)] * 20 + [I(M.BREAK)])
    assert cpu.halted
    assert profiler.total_cycles == cpu.cycles_lifetime + cpu.cycles
    assert sum(h for h, _ in profiler._samples.values()) == 21


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        AvrProfiler(mode="sampling")
    assert PROFILE_MODES == ("exact", "block", "heatmap")


def test_double_attach_raises():
    cpu = AvrCpu()
    cpu.load_program(encode_stream([I(M.BREAK)]))
    cpu.reset()
    profiler = AvrProfiler().attach(cpu)
    with pytest.raises(RuntimeError):
        profiler.attach(cpu)
    profiler.detach()
    profiler.attach(cpu)  # reattachable after detach


def test_detach_removes_trace_hook():
    cpu = AvrCpu()
    cpu.load_program(encode_stream([I(M.BREAK)]))
    cpu.reset()
    profiler = AvrProfiler().attach(cpu)
    assert cpu.trace_hooks
    profiler.detach()
    assert not cpu.trace_hooks


# -- sampling: block mode ---------------------------------------------------

def test_block_mode_on_superblock_engine_uses_profile_hook():
    cpu, profiler = run_profiled(
        [I(M.NOP)] * 20 + [I(M.BREAK)], mode="block", engine="compiled"
    )
    assert profiler.effective_mode == "block"
    assert not cpu.trace_hooks  # the fast path stayed fast
    assert profiler._block_counts
    # block attribution reconstructs per-PC weights at snapshot time; the
    # cold head was fused for attribution, so straight-line code is exact
    assert profiler.total_cycles == cpu.cycles
    assert cpu.engine.compiled_built == 0  # ...but never compiled


@pytest.mark.parametrize("warm", (1, 1 << 62), ids=("hot", "cold"))
def test_block_mode_charges_a_short_run_only_its_prefix(warm):
    """A body leaving at a hooked store, and a cold run stopping at a
    store the hot block fuses through, are charged exactly the
    instructions they retired, so straight-line totals stay exact."""
    cpu = AvrCpu(engine="compiled")
    cpu.load_program(encode_stream(
        [I(M.NOP)] * 3 + [I(M.STS, k=0x0300, rr=0)] + [I(M.NOP)] * 3
        + [I(M.BREAK)]
    ))
    cpu.reset()
    cpu.engine.WARM_THRESHOLD = warm
    cpu.data.add_write_hook(0x0300, lambda address, value: None)
    profiler = AvrProfiler(mode="block").attach(cpu, cpu.engine)
    cpu.run(100)
    assert cpu.halted
    runs = {(head, retired) for head, _, retired, _ in profiler._block_runs()}
    assert runs == {(0, 4), (5, 4)}
    assert profiler.total_cycles == cpu.cycles


def test_block_mode_degrades_to_exact_on_per_instruction_engine():
    cpu, profiler = run_profiled(
        [I(M.NOP)] * 5 + [I(M.BREAK)], mode="block", engine="interpreter"
    )
    assert profiler.mode == "block"
    assert profiler.effective_mode == "exact"
    assert profiler.total_cycles == cpu.cycles_lifetime + cpu.cycles


def test_block_mode_detach_clears_engine_hook():
    cpu = AvrCpu(engine="compiled")
    cpu.load_program(encode_stream([I(M.BREAK)]))
    cpu.reset()
    profiler = AvrProfiler(mode="block").attach(cpu, cpu.engine)
    assert cpu.engine.profile_hook is not None
    profiler.detach()
    assert cpu.engine.profile_hook is None


# -- sampling: heatmap mode -------------------------------------------------

def test_heatmap_clean_call_return_has_no_anomalies():
    table = FunctionTable([("main", 0, 8), ("leaf", 8, 12)], text_start=0)
    cpu, profiler = run_profiled(
        [
            I(M.RCALL, k=3),   # word 0 -> leaf at word 4
            I(M.NOP),
            I(M.NOP),
            I(M.BREAK),        # word 3
            I(M.NOP),          # word 4: leaf body
            I(M.RET),
        ],
        mode="heatmap",
        table=table,
    )
    assert cpu.halted
    assert profiler.anomaly_count == 0
    # the collapsed stacks saw the real chain
    assert ("main", "leaf") in profiler.collapsed()


def test_heatmap_flags_return_without_call():
    # a RET with an empty shadow stack: the signature of a pivoted stack
    cpu, profiler = run_profiled(
        [I(M.NOP), I(M.RET), I(M.BREAK)], mode="heatmap",
        max_instructions=10, sp=0x2100,
    )
    assert profiler.anomaly_count >= 1
    assert profiler.anomalies[0]["kind"] == "return_underflow"


def test_heatmap_flags_mid_function_cross_jump():
    table = FunctionTable([("a", 0, 4), ("b", 4, 12)], text_start=0)
    cpu, profiler = run_profiled(
        [
            I(M.RJMP, k=2),    # word 0 (inside a) -> word 3 (mid-b)
            I(M.BREAK),
            I(M.NOP),          # word 2: b's entry
            I(M.NOP),          # word 3: mid-b target
            I(M.BREAK),
        ],
        mode="heatmap",
        table=table,
        max_instructions=10,
    )
    kinds = [a["kind"] for a in profiler.anomalies]
    assert "bad_jump" in kinds
    record = next(a for a in profiler.anomalies if a["kind"] == "bad_jump")
    assert record["target_function"] == "b"
    assert record["target_pc"] == 6


def test_heatmap_jump_to_function_entry_is_a_legit_tail_call():
    table = FunctionTable([("a", 0, 4), ("b", 4, 12)], text_start=0)
    cpu, profiler = run_profiled(
        [
            I(M.RJMP, k=1),    # word 0 (inside a) -> word 2 == b's entry
            I(M.BREAK),
            I(M.NOP),          # word 2: b's entry
            I(M.BREAK),
        ],
        mode="heatmap",
        table=table,
        max_instructions=10,
    )
    assert profiler.anomaly_count == 0


def test_heatmap_anomaly_list_is_capped_but_count_is_not():
    cpu = AvrCpu()
    # RET forever: every iteration underflows the shadow stack
    cpu.load_program(encode_stream([I(M.RET)]))
    cpu.reset()
    cpu.data.sp = 0x2100
    profiler = AvrProfiler(mode="heatmap", max_anomalies=4).attach(cpu)
    cpu.run(20)
    assert len(profiler.anomalies) == 4
    assert profiler.anomaly_count > 4


def test_function_regions_extends_zero_size_symbols(testapp):
    regions = function_regions(testapp.symbols)
    assert all(end > start for _, start, end in regions)
    names = [name for name, _, _ in regions]
    assert "main" in names


def test_snapshot_is_json_ready(testapp):
    from repro.telemetry import jsonable
    import json

    cpu, profiler = run_profiled([I(M.NOP)] * 5 + [I(M.BREAK)])
    snapshot = profiler.snapshot()
    json.dumps(jsonable(snapshot))
    assert snapshot["mode"] == "exact"
    assert snapshot["report"]["total_hits"] == 6
