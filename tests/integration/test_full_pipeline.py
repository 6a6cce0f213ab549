"""Integration scenarios spanning the whole system.

These tests exercise multi-module flows exactly as a user of the library
would: source text to flying firmware, the complete attack-vs-defense
experiment, the oracle falsification, the guessing campaign, and the
software-only ablation.  Every protected board is stood up through the
:mod:`repro.sim` scenario layer.
"""

import random

import pytest

from repro.analysis import oracle_attack
from repro.asm import MAVR_OPTIONS, link, parse_program
from repro.attack import StealthyAttack, Write3, variable_address
from repro.core import SoftwareOnlyDefense, randomize_image
from repro.mavlink.messages import PARAM_SET
from repro.sim import (
    Board,
    CampaignRunner,
    ScenarioSpec,
    run_scenario,
    seeded_specs,
)
from repro.uav import Autopilot, AutopilotStatus, GroundStation, MaliciousGroundStation


def test_source_to_execution_pipeline():
    """Assembly text -> linked image -> simulated execution -> observable."""
    source = """
.entry main
.text
.func compute
    ldi r24, 21
    add r24, r24
    sts result, r24
.endfunc
.func main inline
    call compute
    break
.endfunc
.data
result: .space 1
"""
    image = link(parse_program(source), MAVR_OPTIONS)
    autopilot = Autopilot(image)
    autopilot.tick()
    assert autopilot.read_variable("result") == 42


def test_hex_roundtrip_preserves_executability(testapp):
    """Image -> preprocessed HEX -> image -> runs identically."""
    from repro.binfmt import FirmwareImage

    restored = FirmwareImage.from_preprocessed_hex(testapp.to_preprocessed_hex())

    def run(image, ticks=8):
        autopilot = Autopilot(image)
        transmitted = b""
        for _ in range(ticks):
            autopilot.tick()
            transmitted += autopilot.transmitted_bytes()
        return transmitted

    assert run(testapp) == run(restored)


def test_flash_blob_roundtrip_randomizable(testapp):
    """Image -> compact flash container -> image -> randomize -> runs."""
    from repro.binfmt import FirmwareImage

    restored = FirmwareImage.from_flash_blob(testapp.to_flash_blob())
    assert restored.code == testapp.code
    assert restored.function_count() == testapp.function_count()
    randomized, _permutation = randomize_image(restored, random.Random(3))
    autopilot = Autopilot(randomized)
    autopilot.run_ticks(8)
    assert autopilot.status is AutopilotStatus.RUNNING


def test_the_paper_experiment_end_to_end(testapp):
    """§VII-A in one test: all three attacks beat the unprotected board;
    the replayed stealthy attack loses to MAVR and is absorbed."""
    # unprotected
    def unprotected(variant):
        return run_scenario(ScenarioSpec(
            app="testapp", protected=False, attack=variant, observe_ticks=30,
        ))

    v1, v2, v3 = unprotected("v1"), unprotected("v2"), unprotected("v3")
    assert v1.succeeded and not v1.stealthy
    assert v2.succeeded and v2.stealthy
    assert v3.succeeded and v3.stealthy

    # protected: the same stealthy payload, aimed at the original layout,
    # lands wrong on the randomized board and is detected and absorbed
    protected = run_scenario(ScenarioSpec(
        app="testapp", seed=99, attack="v2",
        warmup_ticks=10, observe_ticks=150, watch_every=5,
    ))
    assert not protected.effect
    assert protected.detected
    assert protected.attacks_detected >= 1
    assert protected.still_flying
    assert protected.outcome == "deflected"


def test_oracle_attack_falsification(testapp):
    """With the layout known, the randomized firmware is still exploitable:
    MAVR's security is layout secrecy, not breakage."""
    assert oracle_attack(testapp, seed=5)
    assert oracle_attack(testapp, seed=17)


def test_guess_campaign_zero_effect():
    specs = seeded_specs(
        ScenarioSpec, 3, 41, "guess", app="testapp", attack="guess"
    )
    aggregates = CampaignRunner().run(specs).aggregates
    assert aggregates["attacks"] == 3
    assert aggregates["effects"] == 0
    assert aggregates["detections"] == 3  # every failure noticed
    assert aggregates["still_flying"] == 3
    # each board boots on a fresh layout, and re-randomizes per detection
    assert aggregates["randomizations"] >= (
        aggregates["detections"] + aggregates["scenarios"]
    )


def test_software_only_defense_weaknesses(testapp):
    """§VIII-A: flash-time-only randomization crashes without recovery and
    never rotates its permutation."""
    defense = SoftwareOnlyDefense(testapp, seed=8)
    layout_before = defense.image.code
    defense.run(10)
    assert defense.recovered_in_flight

    # a failed attack: replay the unprotected-layout exploit
    attack = StealthyAttack(testapp)
    station = MaliciousGroundStation()
    target = variable_address(testapp, "gyro_offset")
    burst = station.exploit_burst(
        PARAM_SET.msg_id, attack.attack_bytes([Write3(target, b"\x40\x00\x00")])
    )
    defense.autopilot.receive_bytes(burst)
    status = defense.run(200)
    # whether it crashed hard or silently rebooted, nothing re-randomized:
    defense.power_cycle()
    assert defense.image.code == layout_before  # same permutation forever
    assert defense.stats.power_cycles_needed == 1


def test_campaign_under_lazy_policy(testapp):
    """Even with randomize-every-10-boots, a *detected* attack forces an
    immediate re-randomization (policy override)."""
    board = Board(ScenarioSpec(
        app="testapp", seed=12, randomize_every_boots=10,
    ))
    board.boot()
    layout = board.system.running_image.code
    attack = StealthyAttack(testapp)
    station = MaliciousGroundStation()
    target = variable_address(testapp, "gyro_offset")
    burst = station.exploit_burst(
        PARAM_SET.msg_id, attack.attack_bytes([Write3(target, b"\x40\x00\x00")])
    )
    board.run(10)
    board.autopilot.receive_bytes(burst)
    board.run(150, watch_every=5)
    assert board.report().attacks_detected >= 1
    # rotated despite the lazy policy
    assert board.system.running_image.code != layout


def test_ground_station_cannot_distinguish_v2_from_noise(testapp):
    """The stealth claim from the operator's viewpoint: the health metrics
    of an attacked flight match a clean flight."""
    def fly(attacked):
        autopilot = Autopilot(testapp)
        gcs = GroundStation()
        for tick in range(60):
            if attacked and tick == 20:
                StealthyAttack(testapp).execute(
                    autopilot, values=b"\x10\x00\x00", observe_ticks=0,
                )
            autopilot.tick()
            gcs.ingest(autopilot.transmitted_bytes())
        return gcs.health

    clean = fly(False)
    hit = fly(True)
    assert not hit.consecutive_silent_polls
    assert hit.malformed_bytes == clean.malformed_bytes == 0
