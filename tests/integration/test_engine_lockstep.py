"""Differential tests: the compiled engine vs the reference interpreter
on the paper's real scenarios.

These are the acceptance gates of the execution engine: the V2 stealthy
attack and a full MAVR re-randomization boot must produce bit-for-bit
identical PC/SP/SREG/cycle streams, trace hooks must fire with identical
``(pc, insn)`` sequences, and after the master detects a crash and
re-randomizes, the next ``run()`` must execute the *new* image (the
stale-decode regression).

The compiled engine runs in three configurations: its default warm
threshold, threshold 1 (every block head compiled on first entry) and a
threshold never reached (every head on the per-instruction cold tier).
Each is exercised twice per scenario: with a ``CpuStateStream`` attached
(which degrades the engine to exact per-instruction retirement — that
path must stay bit-exact) and with no hooks at all (the tiered fast
path — end states and attack outcomes must still match the reference
exactly).
"""

import random

import pytest

from repro.attack import BasicAttack, StealthyAttack
from repro.avr import CpuStateStream, ExecutionTrace, diff_state_streams
from repro.avr.decoder import decode_at
from repro.core.master import MasterProcessor
from repro.core.preprocess import preprocess
from repro.firmware import build_testapp
from repro.uav import Autopilot, AutopilotStatus

NEVER = 1 << 62  # a warm threshold no block head ever reaches
# configuration -> (engine, warm-threshold override)
CONFIGS = {
    "interpreter": ("interpreter", None),
    "compiled": ("compiled", None),
    "compiled-hot": ("compiled", 1),
    "compiled-cold": ("compiled", NEVER),
}
ENGINES = tuple(CONFIGS)
REFERENCE = "interpreter"


def _autopilot(image, config):
    engine, warm = CONFIGS[config]
    uav = Autopilot(image, engine=engine)
    if warm is not None:
        uav.cpu.engine.WARM_THRESHOLD = warm
    return uav


@pytest.fixture(scope="module")
def image():
    return build_testapp()


def test_v2_stealthy_attack_lockstep(image):
    """The paper's core scenario retires identically on every engine."""
    streams = {}
    outcomes = {}
    for engine in ENGINES:
        uav = _autopilot(image, engine)
        streams[engine] = CpuStateStream().attach(uav.cpu)
        outcomes[engine] = StealthyAttack(image).execute(uav, values=b"\x40\x00\x00")
    for engine in ENGINES:
        assert outcomes[engine].succeeded and outcomes[engine].stealthy
    for engine in ENGINES[1:]:
        divergence = diff_state_streams(streams[REFERENCE], streams[engine])
        assert divergence is None, f"{engine}: {divergence}"
        assert len(streams[engine].states) > 10_000  # a real workload ran


def test_mavr_rerandomization_boot_lockstep(image):
    """Boot-time randomization + protected flight, engine-independent."""
    streams = {}
    for engine in ENGINES:
        uav = _autopilot(image, engine)
        master = MasterProcessor(uav, rng=random.Random(2015))
        master.deploy(preprocess(image))
        master.boot(attack_detected=True)  # force a fresh permutation
        assert master.stats.randomizations == 1
        streams[engine] = CpuStateStream().attach(uav.cpu)
        master.run(ticks=40)
        assert uav.status is AutopilotStatus.RUNNING
    for engine in ENGINES[1:]:
        divergence = diff_state_streams(streams[REFERENCE], streams[engine])
        assert divergence is None, f"{engine}: {divergence}"
        assert len(streams[engine].states) > 10_000


def test_trace_hook_parity_stealthy_scenario(image):
    """trace_hooks fire with identical (pc, insn) sequences in cached and
    uncached modes across the stealthy_attack_demo scenario."""
    traces = {}
    for engine in ENGINES:
        uav = _autopilot(image, engine)
        trace = ExecutionTrace()
        trace.attach(uav.cpu)
        StealthyAttack(image).execute(uav, values=b"\x40\x00\x00")
        traces[engine] = trace
    reference = traces[REFERENCE]
    for engine in ENGINES[1:]:
        trace = traces[engine]
        assert len(reference.instructions) == len(trace.instructions)
        assert reference.instructions == trace.instructions
        assert reference.io_writes == trace.io_writes


def test_no_stale_decodes_after_crash_rerandomization(image):
    """After the master detects a crash and re-randomizes, every retired
    instruction must decode from the *new* image's bytes."""
    uav = Autopilot(image, engine="compiled")
    master = MasterProcessor(uav, rng=random.Random(7))
    master.deploy(preprocess(image))
    master.boot(attack_detected=True)
    first_image = master.current_image
    uav.run_ticks(5)  # fill the decode cache with first-image decodes
    generation_before = uav.cpu.flash.generation

    # V1 smashes the stack and the board walks into garbage.
    BasicAttack(image).execute(uav, values=b"\x11\x22\x33")
    assert uav.status is AutopilotStatus.CRASHED
    assert master.watch()  # detected -> reset + re-randomize
    second_image = master.current_image
    assert second_image.code != first_image.code
    assert uav.cpu.flash.generation > generation_before

    # Every instruction retired from now on must match a fresh decode of
    # the new image at the same address — a stale cache entry from the
    # first image would differ at the first permuted block.
    checked = []

    def assert_current_image(cpu, pc_bytes, insn):
        expected, _size = decode_at(second_image.code, pc_bytes)
        assert insn == expected, (
            f"stale decode at 0x{pc_bytes:05x}: executed {insn}, "
            f"image holds {expected}"
        )
        checked.append(pc_bytes)

    uav.cpu.trace_hooks.append(assert_current_image)
    uav.run_ticks(5)
    assert uav.status is AutopilotStatus.RUNNING
    assert len(checked) > 5_000
    # and the new layout genuinely moved code: some addresses now hold
    # different instructions than the first image did
    moved = sum(
        1 for pc in set(checked)
        if decode_at(first_image.code, pc)[0] != decode_at(second_image.code, pc)[0]
    )
    assert moved > 0


# -- tiered fast path (no hooks attached, blocks actually compile) ----------


def _architectural_state(cpu):
    return {
        "pc": cpu.pc,
        "sp": cpu.data.sp,
        "sreg": cpu.sreg.byte,
        "cycles": cpu.cycles,
        "retired": cpu.instructions_retired,
        "regs": bytes(cpu.data.read_reg(r) for r in range(32)),
    }


def test_v2_attack_identical_outcome_on_fused_fast_path(image):
    """The V2 stealthy attack, end to end, with *no* hooks attached: the
    compiled engine runs its tiers the whole way and must still produce an
    identical AttackOutcome and identical architectural state."""
    outcomes = {}
    states = {}
    compiled_entered = {}
    for engine in ENGINES:
        uav = _autopilot(image, engine)
        outcomes[engine] = StealthyAttack(image).execute(uav)
        states[engine] = _architectural_state(uav.cpu)
        compiled_entered[engine] = getattr(uav.cpu.engine, "compiled_entered", 0)
    # compiled bodies genuinely ran, except where no head may warm up
    assert compiled_entered["compiled"] > 1_000
    assert compiled_entered["compiled-hot"] > 1_000
    assert compiled_entered["compiled-cold"] == 0
    for engine in ENGINES[1:]:
        assert outcomes[engine] == outcomes[REFERENCE], engine
        assert states[engine] == states[REFERENCE], engine


def test_mavr_boot_identical_end_state_on_fused_fast_path(image):
    """Boot-time randomization + protected flight without any stream
    attached: cycle totals and registers at the run boundary must agree."""
    states = {}
    for engine in ENGINES:
        uav = _autopilot(image, engine)
        master = MasterProcessor(uav, rng=random.Random(2015))
        master.deploy(preprocess(image))
        master.boot(attack_detected=True)
        master.run(ticks=40)
        assert uav.status is AutopilotStatus.RUNNING
        states[engine] = _architectural_state(uav.cpu)
    for engine in ENGINES[1:]:
        assert states[engine] == states[REFERENCE], engine
