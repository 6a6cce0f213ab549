"""MavrSystem.capture_snapshot / from_snapshot: a restored system flies
exactly like the one it was captured from.

No scenario path restores boards; the pair stays a public API of the
system facade, so its contract is pinned here directly: after the
restore, both systems fly the same ticks under the master — including a
detected crash, a re-randomization drawn from the resumed RNG stream and
a differential reflash — and end in the same CPU, master and ISP state.
"""

from repro.avr.memory import DATA_SPACE_SIZE
from repro.core import MavrSystem

TICKS = 30


def _state(system):
    cpu = system.autopilot.cpu
    master = system.master
    isp_stats = master.isp.stats.as_dict()
    # the absolute flash generation is process-local by contract
    isp_stats.pop("last_flash_generation")
    return {
        "pc": cpu.pc,
        "sreg": cpu.sreg.byte,
        "cycles": cpu.cycles,
        "retired": cpu.instructions_retired,
        "data": cpu.data.read_block(0, DATA_SPACE_SIZE),
        "flash": cpu.flash.dump(0, len(system.running_image.code)),
        "status": system.autopilot.status.value,
        "running_code": system.running_image.code,
        "clock_ms": master.clock.now_ms,
        "master": master.stats.as_dict(),
        "overheads": list(master.stats.startup_overheads_ms),
        "isp": isp_stats,
        "defense": system.defense.stats.as_dict(),
    }


def _fly(system):
    system.run(TICKS, watch_every=5)
    system.autopilot.cpu.pc = (system.running_image.size + 64) // 2
    system.run(TICKS, watch_every=5)


def test_restored_system_flies_like_the_captured_one(testapp):
    original = MavrSystem(testapp, seed=21)
    original.boot()
    snapshot = original.capture_snapshot()
    restored = MavrSystem.from_snapshot(snapshot, testapp)
    assert _state(restored) == _state(original)

    _fly(original)
    _fly(restored)
    assert original.master.stats.attacks_detected >= 1
    assert original.master.stats.randomizations >= 2
    # the restored ISP diffs against the captured bytes: the reflash
    # after the detection is differential, as on the captured system
    assert restored.master.isp.stats.differential_passes >= 1
    assert _state(restored) == _state(original)
