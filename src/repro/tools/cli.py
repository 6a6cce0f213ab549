"""Command-line interface: ``python -m repro.tools <command>``.

Commands mirror the workflows a user of the original system would have:

* ``build``    — build an application, optionally writing the MAVR
  preprocessed HEX (what goes onto the external flash).
* ``info``     — image statistics (sizes, regions, symbols).
* ``disasm``   — disassemble an application or one function.
* ``gadgets``  — gadget inventory with Fig. 4/5-style listings.
* ``attack``   — run V1/V2/V3 against a simulated board — unprotected by
  default, defended with ``--protected`` — optionally recording the
  full observability stream (``--telemetry out.jsonl``) in either mode.
* ``campaign`` — fan N attack scenarios over a process pool and print the
  aggregate outcome table (or ``--json`` / ``--jsonl``); ``--progress``
  streams live per-scenario completion lines to stderr.  The paper's
  §VII-A guessing campaign is ``campaign --attack guess``.
* ``attack``/``campaign`` take ``--defense {mavr,daedalus,ctomp}`` to pick
  the mitigation backend protecting the board (``docs/DEFENSES.md``); the
  default is the paper's ``mavr``.
* ``report``   — the paper-vs-measured summary; its effectiveness rows and
  phase breakdown come from one small guess campaign.
* ``telemetry``— boot a protected board, force a crash/recovery cycle,
  and dump the metrics/span/event snapshot; ``--profile`` /
  ``--flight-recorder`` fold the profiler and forensic views in.
* ``profile``  — run an application under the PC profiler and print the
  per-function self-cycle table (``--collapsed`` writes flamegraph
  input, ``--mode heatmap`` adds control-flow anomaly detection).
* ``forensics``— render a forensic bundle JSON (written by ``attack
  --forensics`` or frozen by the master at detection time) for humans.

Board construction goes exclusively through :mod:`repro.sim` — the CLI
never wires an ``Autopilot``/``MavrSystem`` by hand, and every seeded
spec list comes from :func:`repro.sim.seeded_specs`.  ``info`` and
``report`` accept ``--json`` for machine-readable output; both reuse the
telemetry snapshot serializer (:func:`repro.telemetry.jsonable`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..analysis import format_table
from ..asm import disassemble_image
from ..asm.linker import TOOLCHAINS
from ..attack import (
    MEMORY_LAYER,
    PROTOCOL_LAYER,
    GadgetFinder,
    attack_kind,
    attack_kinds,
)
from ..avr.engine import DEFAULT_ENGINE, ENGINES
from ..avr.profile import PROFILE_MODES
from ..core.defenses import DEFENSE_BACKENDS
from ..firmware import ALL_APPS, TESTAPP
from ..sim import (
    ATTACK_VARIANTS,
    Board,
    CampaignRunner,
    ScenarioSpec,
    SwarmSpec,
    deterministic_phases,
    load_spec_image,
    run_scenario,
    seeded_specs,
)

#: application choices, in manifest order
APP_CHOICES = tuple(manifest.name for manifest in (TESTAPP,) + ALL_APPS)

#: ``attack --variant`` choices: the memory-tier kinds that exploit the
#: spec's own board directly (the guessing/oracle kinds need campaign
#: seed derivation and live behind ``campaign`` instead)
VARIANT_CHOICES = tuple(
    kind.name for kind in attack_kinds(MEMORY_LAYER)
    if "attack_seed" not in kind.required_fields
)

#: ``campaign --attack`` choices: every registered kind except the
#: oracle (which requires an unprotected board and a dedicated driver)
CAMPAIGN_ATTACK_CHOICES = tuple(
    name for name in ATTACK_VARIANTS if name != "oracle"
)


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=tuple(ENGINES), default=DEFAULT_ENGINE,
        help="execution engine for the application processor "
             f"(default: {DEFAULT_ENGINE})",
    )


def _add_defense_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--defense", choices=DEFENSE_BACKENDS, default="mavr",
        help="defense backend protecting the board (default: mavr)",
    )


def _add_toolchain_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--toolchain", choices=tuple(TOOLCHAINS), default="mavr",
        help="toolchain flag set (default: mavr, the randomizable build)",
    )


def _add_app_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "app", choices=APP_CHOICES, help="application to operate on",
    )
    _add_toolchain_argument(parser)


def _load(args: argparse.Namespace):
    return load_spec_image(ScenarioSpec(app=args.app, toolchain=args.toolchain))


def _cmd_build(args: argparse.Namespace) -> int:
    image = _load(args)
    print(f"built {image.name}: {image.size} bytes, "
          f"{image.function_count()} functions [{image.toolchain_tag}]")
    if args.out:
        from ..core import preprocess

        hex_text = preprocess(image)
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(hex_text)
        print(f"wrote preprocessed HEX to {args.out} ({len(hex_text)} bytes)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    image = _load(args)
    if args.json:
        from ..telemetry import jsonable

        print(json.dumps(jsonable({
            "name": image.name,
            "toolchain": image.toolchain_tag,
            "size_bytes": image.size,
            "fixed_region": {"start": 0, "end": image.text_start},
            "text": {"start": image.text_start, "end": image.text_end},
            "data": {"start": image.data_start, "end": image.data_end},
            "functions": image.function_count(),
            "funcptr_slots": len(image.funcptr_locations),
            "entry": image.entry_symbol,
        }), indent=2))
        return 0
    rows = [
        ("name", image.name),
        ("toolchain", image.toolchain_tag),
        ("total size", f"{image.size} B"),
        ("fixed region", f"0x00000-0x{image.text_start:05x}"),
        (".text", f"0x{image.text_start:05x}-0x{image.text_end:05x} "
                  f"({image.text_end - image.text_start} B)"),
        (".data", f"0x{image.data_start:05x}-0x{image.data_end:05x} "
                  f"({image.data_end - image.data_start} B)"),
        ("functions", str(image.function_count())),
        ("funcptr slots", str(len(image.funcptr_locations))),
        ("entry", image.entry_symbol),
    ]
    print(format_table(("property", "value"), rows))
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    image = _load(args)
    print(disassemble_image(image, args.function))
    return 0


def _cmd_gadgets(args: argparse.Namespace) -> int:
    from ..asm import disassemble

    image = _load(args)
    finder = GadgetFinder(image)
    print(f"{finder.count()} gadgets ending in ret\n")
    stk = finder.find_stk_move()
    print(f"stk_move at 0x{stk.entry:05x} (pops {stk.pop_regs}):")
    print("\n".join(disassemble(image.code, stk.entry, stk.entry + 14)))
    wm = finder.find_write_mem()
    print(f"\nwrite_mem_gadget: std half 0x{wm.std_entry:05x}, "
          f"pop half 0x{wm.pop_entry:05x}, {wm.pop_bytes} pops:")
    print("\n".join(disassemble(image.code, wm.std_entry, wm.pop_entry + 8)))
    return 0


def _attack_result_rows(result) -> list:
    return [
        ("attack", result.spec.attack),
        ("bytes delivered", str(result.delivered_bytes)),
        ("write landed", str(result.succeeded)),
        ("board status", result.status),
        ("telemetry after", f"{result.telemetry_frames_after} frames"),
        ("ground station alarm", str(result.link_lost)),
        ("verdict", "STEALTHY" if result.stealthy else "DETECTED/FAILED"),
    ]


def _cmd_attack(args: argparse.Namespace) -> int:
    """One scenario, protected or not — a single code path for both.

    Against a bare board the attack's own delivery protocol observes the
    aftermath (the paper's §IV demonstration); with ``--protected`` the
    payload lands on a randomized layout and the master's
    detect/re-randomize cycle plays out under supervision.  Either way
    ``--telemetry PATH`` streams the event log to PATH and writes the
    metrics/span snapshot next to it.
    """
    if args.toolchain != "mavr":
        print("note: attacks are normally demonstrated on the mavr build",
              file=sys.stderr)
    spec = ScenarioSpec(
        app=args.app,
        toolchain=args.toolchain,
        protected=args.protected,
        defense=args.defense,
        engine=args.engine,
        seed=args.seed,
        attack=args.variant,
        warmup_ticks=20 if args.protected else 10,
        observe_ticks=150 if args.protected else 30,
        watch_every=5,
        telemetry=bool(args.telemetry),
        # the forensic bundle wants the gadget heatmap's anomaly records
        profile="heatmap" if args.forensics else None,
        flight_recorder=bool(args.forensics),
    )
    telemetry = None
    if args.telemetry:
        from ..telemetry import Telemetry

        telemetry = Telemetry(enabled=True, jsonl_path=args.telemetry)
    try:
        result = run_scenario(spec, telemetry=telemetry)
        snapshot_path = None
        if telemetry is not None:
            snapshot_path = args.telemetry + ".snapshot.json"
            telemetry.write_snapshot(snapshot_path)
    finally:
        if telemetry is not None:
            telemetry.close()

    rows = _attack_result_rows(result)
    if args.protected:
        rows += [
            ("defense detections", str(result.attacks_detected)),
            ("re-randomizations", str(result.randomizations)),
        ]
    if snapshot_path is not None:
        rows += [("event log", args.telemetry), ("snapshot", snapshot_path)]
    if args.forensics:
        rows.append(("profile anomalies", str(result.profile_anomalies)))
        if result.forensics is not None:
            from ..telemetry import jsonable

            with open(args.forensics, "w", encoding="utf-8") as handle:
                json.dump(jsonable(result.forensics), handle, indent=2)
                handle.write("\n")
            rows.append(("forensic bundle", args.forensics))
        else:
            rows.append(
                ("forensic bundle", "not triggered (no fault/detection/anomaly)")
            )
    board_kind = f"{args.defense}-protected" if args.protected else "unprotected"
    print(format_table(
        ("field", "value"), rows,
        title=f"{args.variant} vs {board_kind} {args.app}",
    ))
    # unprotected: the attack should land; protected: it should not
    if args.protected:
        return 0 if not result.effect else 1
    return 0 if result.succeeded else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Fan ``-n`` attack scenarios over a process pool and aggregate.

    Every scenario gets its own board seed and attacker seed derived from
    ``--seed`` (BLAKE2b, stable across processes), so the same invocation
    always produces the same aggregates and JSONL records at any
    ``--jobs`` level — and, because the artifact cache and the checkpoint
    replay change host time only, at any ``--cache-dir``/``--resume``
    setting too.
    """
    if args.resume and args.checkpoint_dir is None:
        print("campaign: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.count < 1:
        print("campaign: -n must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("campaign: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.swarm < 0:
        print("campaign: --swarm must be >= 0", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("campaign: --timeout must be > 0", file=sys.stderr)
        return 2
    kind = attack_kind(args.attack)
    common = dict(
        app=args.app, toolchain=args.toolchain, defense=args.defense,
        engine=args.engine, attack=args.attack,
        worker_fault_marker=args.inject_worker_fault,
    )
    if args.swarm:
        if kind.layer != PROTOCOL_LAYER:
            print(
                f"campaign: --swarm plays protocol-layer attack kinds only; "
                f"{args.attack!r} is {kind.layer}-layer",
                file=sys.stderr,
            )
            return 2
        specs = seeded_specs(
            SwarmSpec, args.count, args.seed, f"{args.attack}-swarm",
            boards=args.swarm, **common,
        )
    else:
        specs = seeded_specs(
            ScenarioSpec, args.count, args.seed, args.attack, **common
        )
    progress = None
    if args.progress:
        labels = [spec.label for spec in specs]

        def progress(done: int, total: int, index: int, outcome: str) -> None:
            print(f"[{done}/{total}] {labels[index]} {outcome}",
                  file=sys.stderr, flush=True)

    runner = CampaignRunner(
        jobs=args.jobs, timeout_s=args.timeout, jsonl_path=args.jsonl,
        progress=progress, cache_dir=args.cache_dir,
        checkpoint_dir=args.checkpoint_dir, resume=args.resume,
    )
    report = runner.run(specs)
    aggregates = report.aggregates
    if args.json:
        from ..telemetry import jsonable

        print(json.dumps(jsonable({
            "app": args.app,
            "attack": args.attack,
            "seed": args.seed,
            "aggregates": aggregates,
            "phases": report.phases,
            "runner": report.runner,
        }), indent=2))
    else:
        rows = [(key, str(value)) for key, value in aggregates.items()
                if key != "by_outcome"]
        rows += [(f"outcome[{name}]", str(count))
                 for name, count in aggregates["by_outcome"].items()]
        rows += [
            (f"phase[{name}]",
             f"{cell['sim_ms']:.1f} sim-ms / {cell['host_ms']:.0f} host-ms "
             f"({cell['scenarios']} scenarios)")
            for name, cell in report.phases.items()
        ]
        print(format_table(
            ("field", "value"), rows,
            title=f"{args.attack} campaign vs {args.defense}-protected {args.app} "
                  f"({args.jobs} jobs)",
        ))
        if args.jsonl:
            print(f"wrote per-scenario records to {args.jsonl}")
    if kind.layer == PROTOCOL_LAYER:
        # link attacks are expected to land — the defense backend guards
        # the firmware, not the channel; the detector's job is to *flag*
        # them, so only runner errors fail a protocol campaign
        return 0 if aggregates["errors"] == 0 else 1
    return 0 if aggregates["effects"] == 0 and aggregates["errors"] == 0 else 1


def _report_data(full: bool) -> dict:
    """Gather the paper-vs-measured report as one plain data structure.

    Shared by the markdown and ``--json`` renderings of ``report``; the
    JSON path serializes this dict with the telemetry snapshot serializer.
    """
    from ..analysis import entropy_report, estimate_for
    from ..hw import CostModel, PROTOTYPE_LINK
    from ..firmware import (
        PAPER_FUNCTION_COUNTS,
        PAPER_MAVR_SIZES,
        PAPER_STARTUP_MS,
        PAPER_STOCK_SIZES,
    )

    data: dict = {}
    if full:
        apps = []
        for manifest in ALL_APPS:
            stock = load_spec_image(
                ScenarioSpec(app=manifest.name, toolchain="stock")
            )
            board = Board(ScenarioSpec(app=manifest.name, seed=1))
            mavr = board.image
            overhead = board.boot()
            apps.append({
                "app": manifest.name,
                "functions": mavr.function_count(),
                "functions_paper": PAPER_FUNCTION_COUNTS[manifest.name],
                "stock_bytes": stock.size,
                "stock_bytes_paper": PAPER_STOCK_SIZES[manifest.name],
                "mavr_bytes": mavr.size,
                "mavr_bytes_paper": PAPER_MAVR_SIZES[manifest.name],
                "startup_ms": overhead,
                "startup_ms_paper": PAPER_STARTUP_MS[manifest.name],
            })
        data["tables"] = apps

    rover = entropy_report(800)
    plane = estimate_for(917)
    cost = CostModel().report()
    data["analysis"] = {
        "entropy_800_symbols_bits": rover.shuffle_bits,
        "entropy_paper_bits": 6567,
        "brute_force_917_fns_log10_layouts": plane.log10_layouts,
        "transfer_rate_bytes_per_ms": PROTOTYPE_LINK.bytes_per_ms,
        "hardware_cost": cost,
    }

    v2 = run_scenario(ScenarioSpec(
        app="testapp", protected=False, attack="v2", observe_ticks=30,
    ))
    # one small §VII-A guess campaign: its outcome and where it spends its
    # simulated time, phase by phase (deterministic fields only — see
    # docs/SCENARIOS.md)
    campaign = CampaignRunner(jobs=1).run(
        seeded_specs(ScenarioSpec, 2, 1, "guess", app="testapp", attack="guess")
    )
    aggregates = campaign.aggregates
    data["effectiveness"] = {
        "v2_vs_unprotected_stealthy": v2.stealthy and v2.succeeded,
        "campaign_attempts": aggregates["attacks"],
        "campaign_effects": aggregates["effects"],
        "campaign_detections": aggregates["detections"],
        "uav_survived_campaign":
            aggregates["still_flying"] == aggregates["scenarios"],
    }
    data["campaign_phases"] = deterministic_phases(campaign.phases)
    return data


def _cmd_report(args: argparse.Namespace) -> int:
    """Paper-vs-measured summary (Tables I-III need --full)."""
    data = _report_data(args.full)

    if args.json:
        from ..telemetry import jsonable

        text = json.dumps(jsonable(data), indent=2) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {args.out}")
        else:
            print(text, end="")
        return 0

    lines = ["# MAVR reproduction report", ""]
    if "tables" in data:
        lines.append("## Table I/II/III (measured)")
        rows = [
            (
                app["app"],
                f"{app['functions']} (paper {app['functions_paper']})",
                f"{app['stock_bytes']} (paper {app['stock_bytes_paper']})",
                f"{app['mavr_bytes']} (paper {app['mavr_bytes_paper']})",
                f"{app['startup_ms']:.0f} ms (paper {app['startup_ms_paper']})",
            )
            for app in data["tables"]
        ]
        lines.append(format_table(
            ("app", "functions", "stock bytes", "MAVR bytes", "startup"),
            rows,
        ))
        lines.append("")

    lines.append("## Analysis (closed form)")
    analysis = data["analysis"]
    cost = analysis["hardware_cost"]
    lines.append(format_table(("metric", "value", "paper"), [
        ("entropy, 800 symbols",
         f"{analysis['entropy_800_symbols_bits']:.0f} bits", "6567 bits"),
        ("brute force, 917 fns",
         f"~10^{analysis['brute_force_917_fns_log10_layouts']:.0f}", "~917!"),
        ("transfer rate",
         f"{analysis['transfer_rate_bytes_per_ms']:.2f} B/ms", "~11 B/ms"),
        ("hardware cost", f"+${cost['extra_usd']} ({cost['increase_pct']}%)",
         "+$11.68 (7.3%)"),
    ]))
    lines.append("")

    lines.append("## Effectiveness (test application)")
    eff = data["effectiveness"]
    lines.append(format_table(("experiment", "result"), [
        ("V2 vs unprotected",
         "stealthy success" if eff["v2_vs_unprotected_stealthy"] else "FAILED"),
        ("replay vs MAVR", f"{eff['campaign_effects']} effects / "
         f"{eff['campaign_detections']} detections in "
         f"{eff['campaign_attempts']} attempts"),
        ("UAV survived campaign", str(eff["uav_survived_campaign"])),
    ]))

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    """Boot a protected board, force one crash/recovery, dump the snapshot.

    The forced wild jump plays the same scenario as the watchdog-recovery
    integration test: the master notices the crashed (or silent) application
    processor, re-randomizes, differentially reflashes, and reboots — so
    the snapshot always contains the full causal chain (``watchdog.starved``
    / ``attack.detected`` events, a nested ``mavr.rerandomize`` span, and
    per-page ``flash.page_reflashed`` events) plus the CPU/ISP metrics.
    """
    from ..telemetry import Telemetry

    spec = ScenarioSpec(
        app=args.app,
        toolchain=args.toolchain,
        engine=args.engine,
        seed=args.seed,
        warmup_ticks=args.ticks,
        observe_ticks=150,
        watch_every=5,
        fault="wild_jump",
        telemetry=True,
        profile=args.profile,
        flight_recorder=args.flight_recorder,
    )
    tel = Telemetry(enabled=True, jsonl_path=args.jsonl)
    try:
        board = Board(spec, telemetry=tel)
        board.boot()
        board.attach_observers()
        board.run(spec.warmup_ticks)
        board.inject_fault()
        board.run(spec.observe_ticks, spec.watch_every)
        snapshot = tel.snapshot()
        if board.profiler is not None:
            snapshot["profile"] = board.profiler.snapshot()
        if board.recorder is not None:
            snapshot["forensics"] = board.forensic_bundle(
                "telemetry crash/recovery demo", kind="cpu_fault"
            )
        report = board.report()
    finally:
        tel.close()

    if args.out:
        from ..telemetry import jsonable

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(jsonable(snapshot), handle, indent=2)
            handle.write("\n")

    rows = [
        ("boots", str(report.boots)),
        ("re-randomizations", str(report.randomizations)),
        ("attacks detected", str(report.attacks_detected)),
        ("metrics", str(len(snapshot["metrics"]))),
        ("spans", str(len(snapshot["spans"]))),
        ("events", str(len(snapshot["events"]))),
    ]
    if "profile" in snapshot:
        rows.append(("profile anomalies",
                     str(snapshot["profile"]["anomaly_count"])))
    if "forensics" in snapshot:
        rows.append(("forensic bundle",
                     f"{snapshot['forensics']['kind']} "
                     f"@pc=0x{snapshot['forensics']['cpu']['pc_bytes']:05x}"))
    if args.jsonl:
        rows.append(("event log", args.jsonl))
    if args.out:
        rows.append(("snapshot", args.out))
    print(format_table(("field", "value"), rows,
                       title=f"telemetry: crash/recovery on {args.app}"))
    if not args.out and not args.jsonl:
        from ..telemetry import jsonable

        print(json.dumps(jsonable(snapshot), indent=2))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run an application under the PC profiler and print hot functions.

    ``--mode exact`` attributes every retired instruction; ``block``
    keeps the superblock engines on their fast path (block-entry
    attribution, see docs/OBSERVABILITY.md for the accuracy contract);
    ``heatmap`` additionally shadows the call stack and flags retired
    control flow that no legitimate call chain explains.
    """
    spec = ScenarioSpec(
        app=args.app,
        toolchain=args.toolchain,
        protected=args.protected,
        engine=args.engine,
        seed=args.seed,
        profile=args.mode,
    )
    board = Board(spec)
    board.boot()
    board.attach_observers()
    board.run(args.ticks)
    profiler = board.profiler
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(profiler.collapsed_text() + "\n")
    if args.json:
        from ..telemetry import jsonable

        print(json.dumps(jsonable(profiler.snapshot()), indent=2))
        return 0
    from ..telemetry import format_profile_table

    print(format_profile_table(profiler.report(), top=args.top))
    if args.mode == "heatmap":
        print(f"\nprofile anomalies: {profiler.anomaly_count}")
    if args.collapsed:
        print(f"wrote collapsed stacks to {args.collapsed}")
    return 0


def _render_forensics(bundle: dict) -> str:
    """Human rendering of a flight-recorder bundle (plain builtins in,
    text out — shared by the ``forensics`` command and nothing else, so
    it tolerates bundles with optional sections missing)."""
    cpu = bundle["cpu"]
    lines = [
        f"# forensic bundle: {bundle.get('kind', 'manual')}",
        f"reason: {bundle.get('reason', '?')}",
        "",
        f"pc=0x{cpu['pc_bytes']:05x}  sp=0x{cpu['sp']:04x}  "
        f"sreg=0x{cpu['sreg']:02x}  cycles={cpu['cycles']}  "
        f"retired={cpu['instructions_retired']}  engine={cpu['engine']}"
        + ("  [HALTED]" if cpu.get("halted") else ""),
    ]
    if bundle.get("function"):
        lines.append(f"faulting function: {bundle['function']}")
    lines.append("")

    lines.append("## registers")
    registers = bundle.get("registers", [])
    for row in range(0, len(registers), 8):
        cells = "  ".join(
            f"r{index:<2}=0x{value:02x}"
            for index, value in enumerate(registers[row : row + 8], start=row)
        )
        lines.append("  " + cells)
    lines.append("")

    stack = bundle.get("stack")
    if stack:
        lines.append(f"## stack window (sp=0x{stack['sp']:04x})")
        data = bytes.fromhex(stack["data_hex"])
        for row_start in range(0, len(data), 8):
            row = data[row_start : row_start + 8]
            addr = stack["base_address"] + row_start
            lines.append(
                f"  0x{addr:06x}: " + " ".join(f"{b:02x}" for b in row)
            )
        lines.append("")

    disassembly = bundle.get("disassembly", [])
    if disassembly:
        lines.append("## fault neighbourhood")
        for entry in disassembly:
            marker = ">" if entry.get("current") else " "
            lines.append(f" {marker} 0x{entry['pc']:05x}: {entry['text']}")
        lines.append("")

    ring = bundle.get("ring", [])
    if ring:
        lines.append(f"## flight recorder (last {min(len(ring), 16)} "
                     f"of {len(ring)} retired states)")
        lines.append("   pc       sp      sreg  cycles")
        for pc, sp, sreg, cycles in ring[-16:]:
            lines.append(
                f"   0x{pc:05x}  0x{sp:04x}  0x{sreg:02x}  {cycles}"
            )
        lines.append("")

    profile = bundle.get("profile")
    if profile:
        lines.append(
            f"## profile ({profile['mode']} mode, "
            f"{profile['anomaly_count']} anomalies)"
        )
        for anomaly in profile.get("anomalies", []):
            target_fn = anomaly.get("target_function") or "?"
            lines.append(
                f"  {anomaly['kind']}: 0x{anomaly['from_pc']:05x} -> "
                f"0x{anomaly['target_pc']:05x} ({target_fn}) "
                f"@cycle {anomaly['cycle']}"
            )
        lines.append("")

    events = bundle.get("events")
    if events:
        lines.append(f"## recent telemetry events ({len(events)})")
        for event in events[-10:]:
            lines.append(f"  {event.get('event', '?')}")
    return "\n".join(lines).rstrip() + "\n"


def _cmd_forensics(args: argparse.Namespace) -> int:
    with open(args.bundle, "r", encoding="utf-8") as handle:
        bundle = json.load(handle)
    print(_render_forensics(bundle), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools",
        description="MAVR reproduction command-line tools",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build_cmd = subparsers.add_parser("build", help="build an application")
    _add_app_argument(build_cmd)
    build_cmd.add_argument("--out", help="write preprocessed HEX here")
    build_cmd.set_defaults(func=_cmd_build)

    info = subparsers.add_parser("info", help="image statistics")
    _add_app_argument(info)
    info.add_argument("--json", action="store_true",
                      help="machine-readable JSON output")
    info.set_defaults(func=_cmd_info)

    disasm = subparsers.add_parser("disasm", help="disassemble")
    _add_app_argument(disasm)
    disasm.add_argument("--function", help="only this function")
    disasm.set_defaults(func=_cmd_disasm)

    gadgets = subparsers.add_parser("gadgets", help="gadget inventory")
    _add_app_argument(gadgets)
    gadgets.set_defaults(func=_cmd_gadgets)

    attack = subparsers.add_parser("attack", help="run an attack simulation")
    _add_app_argument(attack)
    attack.add_argument("--variant", choices=VARIANT_CHOICES, default="v2")
    attack.add_argument(
        "--protected", action="store_true",
        help="attack a defended board instead of a bare autopilot",
    )
    attack.add_argument(
        "--telemetry", metavar="PATH",
        help="record the event log to PATH (JSONL) and the metrics/span "
             "snapshot to PATH.snapshot.json (works for both board kinds)",
    )
    attack.add_argument("--seed", type=int, default=1,
                        help="board randomization seed (--protected)")
    attack.add_argument(
        "--forensics", metavar="PATH",
        help="run with the gadget heatmap + flight recorder attached and "
             "write the forensic bundle JSON to PATH (render it with "
             "'repro.tools forensics PATH')",
    )
    _add_defense_argument(attack)
    _add_engine_argument(attack)
    attack.set_defaults(func=_cmd_attack)

    campaign = subparsers.add_parser(
        "campaign",
        help="fan N attack scenarios over a process pool and aggregate",
    )
    campaign.add_argument(
        "--app", choices=APP_CHOICES, default="testapp",
        help="application under attack",
    )
    _add_toolchain_argument(campaign)
    campaign.add_argument(
        "--attack", choices=CAMPAIGN_ATTACK_CHOICES,
        default="guess", help="attack kind every scenario runs",
    )
    campaign.add_argument("-n", "--count", type=int, default=10,
                          help="number of scenarios")
    campaign.add_argument(
        "--swarm", type=int, default=0, metavar="N",
        help="fly each scenario as a swarm of N boards under one ground "
             "station (protocol-layer attack kinds only; 0 = single board)",
    )
    campaign.add_argument("--jobs", type=int, default=1,
                          help="process-pool workers (1 = run inline)")
    campaign.add_argument("--seed", type=int, default=0,
                          help="base seed; per-scenario seeds are derived")
    campaign.add_argument("--timeout", type=float, default=None,
                          help="per-scenario timeout in seconds (workers only)")
    campaign.add_argument("--json", action="store_true",
                          help="machine-readable JSON output")
    campaign.add_argument("--jsonl", metavar="PATH",
                          help="write one record per scenario to PATH")
    campaign.add_argument("--progress", action="store_true",
                          help="stream [done/total] completion lines to stderr")
    campaign.add_argument("--inject-worker-fault", metavar="PATH",
                          help=argparse.SUPPRESS)  # test-only crash injection
    campaign.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed artifact cache shared by all workers "
             "(build + preprocess once per image and defense)",
    )
    campaign.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="append each completed scenario to a checkpoint file here",
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="replay completed specs from --checkpoint-dir, run the rest",
    )
    _add_defense_argument(campaign)
    _add_engine_argument(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    report = subparsers.add_parser(
        "report", help="paper-vs-measured reproduction summary"
    )
    report.add_argument("--full", action="store_true",
                        help="include Tables I-III at full application scale")
    report.add_argument("--out", help="write markdown here instead of stdout")
    report.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    report.set_defaults(func=_cmd_report)

    telemetry = subparsers.add_parser(
        "telemetry",
        help="crash/recovery demo on a protected board, dumping the snapshot",
    )
    _add_app_argument(telemetry)
    telemetry.add_argument("--ticks", type=int, default=20,
                           help="healthy flight ticks before the forced crash")
    telemetry.add_argument("--seed", type=int, default=1)
    telemetry.add_argument("--jsonl", metavar="PATH",
                           help="also stream the event log here (JSONL)")
    telemetry.add_argument("--out", metavar="PATH",
                           help="write the snapshot JSON here")
    telemetry.add_argument(
        "--profile", choices=PROFILE_MODES, default=None,
        help="attach the PC profiler; its snapshot joins the output "
             "under the 'profile' key",
    )
    telemetry.add_argument(
        "--flight-recorder", action="store_true",
        help="attach the flight recorder; the crash's forensic bundle "
             "joins the output under the 'forensics' key",
    )
    _add_engine_argument(telemetry)
    telemetry.set_defaults(func=_cmd_telemetry)

    profile = subparsers.add_parser(
        "profile", help="profile hot functions on a simulated board"
    )
    profile.add_argument(
        "--app", choices=APP_CHOICES, default="testapp",
        help="application to profile",
    )
    _add_toolchain_argument(profile)
    profile.add_argument(
        "--mode", choices=PROFILE_MODES, default="exact",
        help="exact per-instruction attribution, block-entry attribution "
             "(keeps superblock engines fast), or the gadget heatmap",
    )
    profile.add_argument("--ticks", type=int, default=200,
                         help="flight ticks to profile")
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument("--protected", action="store_true",
                         help="profile a MAVR-protected board instead of "
                              "a bare autopilot")
    profile.add_argument("--top", type=int, default=15,
                         help="functions to show in the table")
    profile.add_argument("--collapsed", metavar="PATH",
                         help="write collapsed-stack (flamegraph) lines here")
    profile.add_argument("--json", action="store_true",
                         help="machine-readable profiler snapshot")
    _add_engine_argument(profile)
    profile.set_defaults(func=_cmd_profile)

    forensics = subparsers.add_parser(
        "forensics", help="render a forensic bundle JSON for humans"
    )
    forensics.add_argument(
        "bundle",
        help="bundle path (from 'attack --forensics' or 'telemetry "
             "--flight-recorder --out')",
    )
    forensics.set_defaults(func=_cmd_forensics)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
