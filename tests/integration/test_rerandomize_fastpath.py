"""Re-randomization fast path at paper scale.

Differential guarantees pinned here:

* the indexed patcher's output is byte-identical to the streaming
  oracle (``tests/core/streaming_patcher.py``) for the same permutation,
  across seeds and all three paper applications;
* a differential reflash moves strictly fewer bytes over the ISP wire
  than the full transfer while leaving the flash byte-identical to a
  full reprogram;
* the watchdog recovery loop end-to-end: a dead autopilot is detected,
  re-randomized onto a *new* permutation, and the predecoded engine's
  decode cache is invalidated (flash.generation moved).
"""

import random

import pytest

from repro.asm.linker import MAVR_OPTIONS
from repro.core import MavrSystem
from repro.core.patching import patch_image
from repro.core.randomize import generate_permutation
from repro.firmware import ALL_APPS, build_app
from tests.core import streaming_patcher

SEEDS = (11, 22, 33)


@pytest.fixture(scope="module", params=[m.name for m in ALL_APPS])
def paper_app(request):
    manifest = next(m for m in ALL_APPS if m.name == request.param)
    return build_app(manifest, MAVR_OPTIONS)


def test_fastpath_matches_legacy_across_seeds(paper_app):
    """Acceptance: >= 3 seeds x 3 app manifests, byte-identical output."""
    for seed in SEEDS:
        permutation = generate_permutation(paper_app, random.Random(seed))
        fast = patch_image(paper_app, permutation)
        legacy = streaming_patcher.patch_image(paper_app, permutation)
        assert fast == legacy, (paper_app.name, seed)


def test_differential_reflash_saves_wire_bytes(testapp):
    system = MavrSystem(testapp, seed=101)
    system.boot()  # first programming is necessarily a full transfer
    full_wire = system.master.isp.stats.last_bytes_on_wire
    assert full_wire == len(system.running_image.code)

    system.master.boot(attack_detected=True)  # re-randomization: page diff
    stats = system.master.isp.stats
    assert stats.differential_passes == 1
    assert stats.last_pages_skipped > 0
    # strictly fewer bytes on the wire than a full transfer
    assert stats.last_bytes_on_wire < full_wire
    # ... and the flash holds exactly what a full reprogram would have left
    flash = system.autopilot.cpu.flash
    image = system.running_image.code
    assert flash.dump(0, len(image)) == image
    assert flash.dump(len(image)) == b"\xff" * (flash.size - len(image))


def test_differential_reflash_is_faster(testapp):
    system = MavrSystem(testapp, seed=102)
    full_ms = system.boot()
    diff_ms = system.master.boot(attack_detected=True)
    assert 0 < diff_ms < full_ms


def test_watchdog_recovery_loop_end_to_end(testapp):
    """Crashed/silent autopilot -> watch() -> fresh permutation + cold caches."""
    system = MavrSystem(testapp, seed=103)
    system.boot()
    system.run(20)
    first_permutation = system.master.last_permutation
    first_code = system.running_image.code
    generation_before = system.autopilot.cpu.flash.generation

    # drive the core into garbage: the firmware crashes and stops feeding
    system.autopilot.cpu.pc = (system.running_image.size + 64) // 2
    system.autopilot.tick()
    assert system.autopilot.status.value == "crashed"

    assert system.master.watch()  # detected and recovered
    assert system.master.stats.attacks_detected == 1

    # a new layout was installed...
    second_permutation = system.master.last_permutation
    moves = lambda p: [(m.name, m.new_address) for m in p.moves]
    assert moves(second_permutation) != moves(first_permutation)
    assert system.running_image.code != first_code
    # ...the predecoded engine's decode cache is dead (generation moved
    # with the page writes), and the UAV is flying again
    assert system.autopilot.cpu.flash.generation > generation_before
    assert system.autopilot.status.value == "running"
    assert system.run(20) == 0
