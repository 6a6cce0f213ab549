"""CLI tool tests (direct main() invocation; builds are cached)."""

import pytest

from repro.tools import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_info(capsys, testapp):
    code, out = run(capsys, "info", "testapp")
    assert code == 0
    assert "functions" in out
    assert "60" in out


def test_build(capsys, tmp_path):
    out_file = tmp_path / "app.hex"
    code, out = run(capsys, "build", "testapp", "--out", str(out_file))
    assert code == 0
    assert out_file.exists()
    text = out_file.read_text()
    assert text.startswith(":")
    assert "wrote preprocessed HEX" in out


def test_build_stock_toolchain(capsys):
    code, out = run(capsys, "build", "testapp", "--toolchain", "stock")
    assert code == 0
    assert "mcall-prologues" in out


def test_disasm_single_function(capsys):
    code, out = run(capsys, "disasm", "testapp", "--function", "watchdog_feed")
    assert code == 0
    assert "<watchdog_feed>:" in out
    assert "out 0x05" in out


def test_gadgets(capsys):
    code, out = run(capsys, "gadgets", "testapp")
    assert code == 0
    assert "stk_move" in out
    assert "write_mem_gadget" in out
    assert "out 0x3e, r29" in out


def test_attack_v2(capsys):
    code, out = run(capsys, "attack", "testapp", "--variant", "v2")
    assert code == 0
    assert "STEALTHY" in out


def test_attack_v1(capsys):
    code, out = run(capsys, "attack", "testapp", "--variant", "v1")
    assert code == 0  # the write landed (even though the board crashed)
    assert "crashed" in out


def test_attack_protected_with_defense_backend(capsys):
    # ctomp has no layout secrecy: the V2 payload built against the
    # public layout lands (the tradeoff docs/DEFENSES.md documents)
    code, out = run(
        capsys, "attack", "testapp", "--variant", "v2",
        "--protected", "--defense", "ctomp",
    )
    import re

    assert code == 1
    assert "ctomp-protected" in out
    assert re.search(r"write landed\s*\|\s*True", out)


def test_attack_protected_mavr_stops_v2(capsys):
    code, out = run(
        capsys, "attack", "testapp", "--variant", "v2",
        "--protected", "--defense", "mavr",
    )
    assert code == 0
    assert "mavr-protected" in out


def test_campaign_with_defense_backend(capsys):
    code, out = run(
        capsys, "campaign", "--app", "testapp", "-n", "1", "--seed", "3",
        "--defense", "daedalus",
    )
    assert code == 0
    assert "daedalus-protected" in out


def test_parser_defaults_to_mavr_defense():
    for argv in (
        ["attack", "testapp"],
        ["campaign", "--app", "testapp"],
    ):
        assert build_parser().parse_args(argv).defense == "mavr"


def test_parser_rejects_unknown_defense():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["attack", "testapp", "--defense", "aslr"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["info", "nonesuch"])


def test_info_json(capsys):
    import json

    code, out = run(capsys, "info", "testapp", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "testapp"
    assert data["functions"] == 60
    assert data["text"]["end"] > data["text"]["start"]


def test_report_json(capsys):
    import json

    code, out = run(capsys, "report", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["analysis"]["entropy_paper_bits"] == 6567
    assert data["effectiveness"]["v2_vs_unprotected_stealthy"] is True
    assert "tables" not in data  # needs --full


def test_attack_with_telemetry(capsys, tmp_path):
    import json

    log = tmp_path / "attack.jsonl"
    code, out = run(
        capsys, "attack", "testapp", "--protected", "--telemetry", str(log)
    )
    assert code == 0
    assert "mavr-protected" in out
    records = [json.loads(line) for line in log.read_text().splitlines()]
    names = {r["event"] for r in records}
    assert "attack.outcome" in names
    snapshot = json.loads((tmp_path / "attack.jsonl.snapshot.json").read_text())
    metric_names = {m["name"] for m in snapshot["metrics"]}
    assert "cpu.instructions_retired" in metric_names
    assert "isp.bytes_on_wire" in metric_names
    assert any(s["name"].startswith("mavr.") and s["parent_id"] is not None
               for s in snapshot["spans"])  # at least one nested mavr.* span


def test_campaign_jobs_matches_serial(capsys):
    import json

    argv = ("campaign", "--app", "testapp", "-n", "2", "--seed", "5", "--json")
    code_serial, out_serial = run(capsys, *argv, "--jobs", "1")
    code_jobs, out_jobs = run(capsys, *argv, "--jobs", "2")
    assert code_serial == code_jobs == 0
    assert (json.loads(out_serial)["aggregates"]
            == json.loads(out_jobs)["aggregates"])


def test_campaign_json_schema(capsys, tmp_path):
    import json

    records_path = tmp_path / "records.jsonl"
    code, out = run(capsys, "campaign", "--app", "testapp", "--attack",
                    "guess", "-n", "2", "--seed", "7", "--json",
                    "--jsonl", str(records_path))
    assert code == 0
    data = json.loads(out)
    assert data["app"] == "testapp"
    assert data["attack"] == "guess"
    aggregates = data["aggregates"]
    assert aggregates["scenarios"] == 2
    assert aggregates["effects"] == 0
    assert aggregates["detections"] == 2
    assert aggregates["errors"] == 0
    assert aggregates["by_outcome"] == {"deflected": 2}
    assert data["runner"]["jobs"] == 1
    # per-phase breakdown rides the JSON output
    assert "run" in data["phases"]
    assert data["phases"]["run"]["scenarios"] == 2
    lines = [json.loads(line) for line in records_path.read_text().splitlines()]
    assert [line.get("index") for line in lines[:-2]] == [0, 1]
    assert lines[-2]["campaign.aggregates"] == aggregates
    phase_line = lines[-1]["campaign.phases"]
    assert set(phase_line["run"]) == {"scenarios", "sim_ms"}


def test_campaign_table_output(capsys):
    code, out = run(capsys, "campaign", "--app", "testapp", "-n", "1")
    assert code == 0
    assert "campaign vs mavr-protected testapp" in out
    assert "outcome[deflected]" in out


def test_campaign_worker_crash_retries(capsys, tmp_path):
    import json

    marker = tmp_path / "crash.marker"
    code, out = run(capsys, "campaign", "--app", "testapp", "-n", "2",
                    "--jobs", "2", "--seed", "7", "--json",
                    "--inject-worker-fault", str(marker))
    assert marker.exists()  # a pool worker genuinely died mid-run
    assert code == 0  # ...and the retry recovered every scenario
    data = json.loads(out)
    assert data["aggregates"]["errors"] == 0
    assert data["aggregates"]["scenarios"] == 2


def test_campaign_cache_checkpoint_and_resume(capsys, tmp_path):
    import json

    cache = tmp_path / "cache"
    ckpt = tmp_path / "ckpt"
    common = ("campaign", "--app", "testapp", "-n", "2", "--seed", "7",
              "--json", "--cache-dir", str(cache),
              "--checkpoint-dir", str(ckpt))
    code, out = run(capsys, *common)
    assert code == 0
    data = json.loads(out)
    assert data["runner"]["cache_dir"] == str(cache)
    assert any(cache.iterdir())  # build/deploy/board artifacts published
    assert (ckpt / "checkpoint.jsonl").exists()
    # resume replays everything from the checkpoints, runs nothing new
    code, out = run(capsys, *common, "--resume")
    assert code == 0
    resumed = json.loads(out)
    assert resumed["runner"]["resumed"] == 2
    assert resumed["aggregates"] == data["aggregates"]


def test_campaign_resume_requires_checkpoint_dir(capsys):
    code, _ = run(capsys, "campaign", "-n", "1", "--resume")
    assert code == 2


@pytest.mark.parametrize("argv", (
    ["-n", "0"],
    ["-n", "-3"],
    ["--attack", "flood", "--swarm", "-1"],
    ["--timeout", "0"],
    ["--timeout", "-1"],
    ["--jobs", "0"],
    ["--jobs", "-1"],
))
def test_campaign_rejects_bad_arguments(capsys, argv):
    code = main(["campaign", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("campaign: ")
    assert captured.out == ""  # nothing ran


def test_telemetry_command(capsys, tmp_path):
    import json

    snap = tmp_path / "snap.json"
    code, out = run(capsys, "telemetry", "testapp", "--out", str(snap))
    assert code == 0
    assert "attacks detected" in out
    data = json.loads(snap.read_text())
    assert data["schema"] == 1
    assert any(e["event"] == "attack.detected" for e in data["events"])


def test_telemetry_with_profile_and_flight_recorder(capsys, tmp_path):
    import json

    snap = tmp_path / "snap.json"
    code, out = run(capsys, "telemetry", "testapp", "--ticks", "10",
                    "--profile", "exact", "--flight-recorder",
                    "--out", str(snap))
    assert code == 0
    assert "profile anomalies" in out
    assert "forensic bundle" in out
    data = json.loads(snap.read_text())
    assert data["profile"]["mode"] == "exact"
    assert data["profile"]["report"]["total_hits"] > 0
    assert data["forensics"]["kind"] in ("cpu_fault", "attack_detected")
    assert data["forensics"]["ring"]


def test_profile_command_table(capsys):
    code, out = run(capsys, "profile", "--app", "testapp", "--ticks", "40")
    assert code == 0
    assert "mode: exact" in out
    assert "self-cycles" in out
    assert "main" in out


def test_profile_command_json_and_collapsed(capsys, tmp_path):
    import json

    collapsed = tmp_path / "stacks.txt"
    code, out = run(capsys, "profile", "--app", "testapp", "--ticks", "30",
                    "--mode", "heatmap", "--collapsed", str(collapsed),
                    "--json")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "heatmap"
    assert data["anomaly_count"] == 0  # clean flight
    lines = collapsed.read_text().strip().splitlines()
    assert lines and all(line.rsplit(" ", 1)[1].isdigit() for line in lines)
    assert any(";" in line for line in lines)  # real call chains


def test_profile_block_mode_on_compiled_engine(capsys):
    code, out = run(capsys, "profile", "--app", "testapp", "--ticks", "30",
                    "--mode", "block", "--engine", "compiled")
    assert code == 0
    assert "mode: block" in out


def test_attack_forensics_roundtrip_through_renderer(capsys, tmp_path):
    bundle_path = tmp_path / "bundle.json"
    code, out = run(capsys, "attack", "testapp", "--variant", "v2",
                    "--forensics", str(bundle_path))
    assert code == 0
    assert bundle_path.exists()
    assert "profile anomalies" in out

    code, rendered = run(capsys, "forensics", str(bundle_path))
    assert code == 0
    assert "# forensic bundle: profile_anomaly" in rendered
    assert "bad_return" in rendered
    assert "rtos_context_restore" in rendered or "param_block_write" in rendered
    assert "## flight recorder" in rendered
    assert "## fault neighbourhood" in rendered


def test_campaign_progress_lines(capsys):
    code = main(["campaign", "--app", "testapp", "-n", "2", "--seed", "3",
                 "--progress", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    progress = [line for line in captured.err.splitlines() if line]
    assert len(progress) == 2
    assert progress[0].startswith("[1/2] ")
    assert progress[1].startswith("[2/2] ")
