"""Execution-engine throughput: the interpreter vs the tiered compiled engine.

Every attack replay, MAVR boot, and brute-force campaign in this
reproduction runs through :meth:`AvrCpu.run`, so simulator throughput is
the budget everything else spends.  This bench measures instructions/sec
for three configurations on two workloads:

* ``interpreter`` — the reference engine (decode at PC every step);
* ``compiled_cold`` — the compiled engine with a warm threshold no block
  head ever reaches, so everything retires on the per-instruction cold
  tier (what code that runs a few times in a process gets).  Its engine
  must enter no compiled body: the process-wide block store the
  ``compiled`` configuration warms cannot lift it, nor loosen the floors;
* ``compiled`` — the compiled engine at its default threshold, hot heads
  running exec-generated block bodies.

Workloads:

* ``firmware`` — the testapp autopilot control loop (the realistic mix of
  loads/stores, calls and branches every experiment executes), and
* ``hot_loop`` — a synthetic straight-line ALU body plus a backwards jump
  (peak benefit: the whole body fuses into one superblock).  The body is
  deliberately built from *cheap* instructions, so a lightweight mix
  isolates exactly what the tiers differ on: per-retire bookkeeping.

Results land in ``BENCH_cpu_throughput.json`` at the repo root so later
PRs have a perf trajectory to compare against.  Floors are asserted here,
not just documented:

* compiled_cold >= 3x interpreter on both workloads (the decode-cache
  contract the per-instruction fast path has always had), and
* compiled >= 2.25x compiled_cold on firmware and >= 4.2x on hot_loop
  (what compiled block bodies must add on top of the cold tier).

Each configuration's rate is its best of ROUNDS (7) interleaved rounds,
so a slow spell on a shared host cannot skew a ratio.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_cpu_throughput.py -q -s
Scale the budget with REPRO_BENCH_INSTRUCTIONS (default 200000, ~3 s total).
"""

import gc
import json
import os
import time
from pathlib import Path

from repro.avr import AvrCpu, Instruction, Mnemonic, encode_stream
from repro.uav import Autopilot

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_cpu_throughput.json"
# configuration -> (engine, warm-threshold override); a threshold no
# block head reaches keeps the compiled engine on its cold tier
CONFIGS = {
    "interpreter": ("interpreter", None),
    "compiled_cold": ("compiled", 1 << 62),
    "compiled": ("compiled", None),
}
WARMUP_INSTRUCTIONS = 20_000
# interleaved measuring rounds per configuration; each keeps its best
ROUNDS = 7

# (numerator config, denominator config) -> {workload: floor}
SPEEDUP_FLOORS = {
    ("compiled_cold", "interpreter"): {"firmware": 3.0, "hot_loop": 3.0},
    ("compiled", "compiled_cold"): {"firmware": 2.25, "hot_loop": 4.2},
}

I = Instruction
M = Mnemonic


def _instruction_budget() -> int:
    return int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "200000"))


def _configured(cpu: AvrCpu, config: str) -> AvrCpu:
    threshold = CONFIGS[config][1]
    if threshold is not None:
        cpu.engine.WARM_THRESHOLD = threshold
    return cpu


def _hot_loop_cpu(config: str) -> AvrCpu:
    """A 15-instruction straight-line ALU loop that never exits.

    One fused superblock per iteration (well under the fuse cap), mixing
    immediates, register moves, flag-setting ALU ops and bit transfers.
    """
    body = [
        I(M.LDI, rd=16, k=1),
        I(M.LDI, rd=17, k=2),
        I(M.MOV, rd=18, rr=16),
        I(M.MOV, rd=19, rr=17),
        I(M.ADD, rd=16, rr=17),
        I(M.EOR, rd=22, rr=16),
        I(M.MOV, rd=23, rr=22),
        I(M.SWAP, rd=24),
        I(M.INC, rd=20),
        I(M.MOV, rd=21, rr=20),
        I(M.LDI, rd=25, k=7),
        I(M.MOV, rd=26, rr=25),
        I(M.BST, rd=16, b=0),
        I(M.BLD, rd=27, b=1),
    ]
    cpu = AvrCpu(engine=CONFIGS[config][0])
    cpu.load_program(encode_stream(body + [I(M.RJMP, k=-(len(body) + 1))]))
    cpu.reset()
    return _configured(cpu, config)


def _firmware_cpu(testapp, config: str) -> AvrCpu:
    return _configured(Autopilot(testapp, engine=CONFIGS[config][0]).cpu, config)


def _measure(cpus: dict, instructions: int) -> dict:
    """Best-of-rounds insn/s per configuration.

    Each round runs every configuration for an equal share of the budget,
    interleaved, so a slow spell on a shared host hits every
    configuration rather than skewing one ratio; each keeps its best.
    """
    for cpu in cpus.values():
        cpu.run(WARMUP_INSTRUCTIONS)  # fill the decode cache, compile hot blocks
    share = max(1, instructions // ROUNDS)
    best = dict.fromkeys(cpus, 0.0)
    for _ in range(ROUNDS):
        for config, cpu in cpus.items():
            gc.collect()  # no configuration pays another's garbage
            start = time.perf_counter()
            executed = cpu.run(share)
            elapsed = time.perf_counter() - start
            assert executed == share, "workload halted before spending its budget"
            best[config] = max(best[config], executed / elapsed)
    return best


def test_engine_throughput(benchmark, testapp):
    budget = _instruction_budget()
    results = {
        "instructions_per_config": budget,
        "workloads": {},
        "speedup": {},
    }
    for workload, make_cpu in (
        ("firmware", lambda config: _firmware_cpu(testapp, config)),
        ("hot_loop", _hot_loop_cpu),
    ):
        cpus = {config: make_cpu(config) for config in CONFIGS}
        rates = _measure(cpus, budget)
        entered = cpus["compiled_cold"].engine.compiled_entered
        assert entered == 0, (
            f"compiled_cold ran {entered} compiled bodies on {workload}"
        )
        results["workloads"][workload] = {
            config: round(rate) for config, rate in rates.items()
        }
        results["speedup"][workload] = {
            f"{fast}_vs_{slow}": round(rates[fast] / rates[slow], 2)
            for fast, slow in (
                ("compiled_cold", "interpreter"),
                ("compiled", "compiled_cold"),
                ("compiled", "interpreter"),
            )
        }

    # pytest-benchmark row: the default engine on the realistic workload
    benchmark.pedantic(
        lambda: _firmware_cpu(testapp, "compiled").run(budget),
        rounds=1, iterations=1,
    )

    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    header = " ".join(f"{config:>14}" for config in CONFIGS)
    print(f"\n{'workload':<10} {header}")
    for workload, rates in results["workloads"].items():
        row = " ".join(f"{rates[config]:>12,}/s" for config in CONFIGS)
        print(f"{workload:<10} {row}")
        print(f"{'':>10} speedups: {results['speedup'][workload]}")
    print(f"results written to {RESULTS_PATH}")

    for (fast, slow), floors in SPEEDUP_FLOORS.items():
        for workload, floor in floors.items():
            speedup = results["speedup"][workload][f"{fast}_vs_{slow}"]
            assert speedup >= floor, (
                f"{fast} is only {speedup:.2f}x faster than "
                f"{slow} on {workload}; the floor is {floor}x"
            )
