"""End-to-end attack tests: V1 (basic), V2 (stealthy), V3 (trampoline),
runtime-fact derivation and the Fig. 6 trace."""

import pytest

from repro.attack import (
    BasicAttack,
    StealthyAttack,
    TrampolineAttack,
    Write3,
    derive_runtime_facts,
    find_handler_call_site,
    trace_stealthy_attack,
    variable_address,
)
from repro.avr import RAMEND
from repro.errors import AttackError
from repro.firmware.hwmap import RX_BUFFER_SIZE
from repro.uav import Autopilot, AutopilotStatus, MaliciousGroundStation


# -- attacker-side analysis -------------------------------------------------

def test_call_site_found_statically(testapp):
    call_site = find_handler_call_site(testapp)
    comms = testapp.symbols.get("comms_poll")
    assert comms.address <= call_site < comms.end


def test_runtime_facts(testapp):
    facts = derive_runtime_facts(testapp)
    assert facts.buffer_size == RX_BUFFER_SIZE
    assert facts.frame_sp < RAMEND
    assert facts.buffer_start == facts.frame_sp - 2 - RX_BUFFER_SIZE + 1
    assert facts.return_address_word * 2 > facts.call_site
    # r28/r29 are deterministic at the call site
    again = derive_runtime_facts(testapp)
    assert (facts.saved_r28, facts.saved_r29) == (again.saved_r28, again.saved_r29)


def test_runtime_facts_kept_per_image(testapp, monkeypatch):
    """One dry run per binary; a copy or a replaced code/symbols re-runs it."""
    import dataclasses
    import random

    from repro.attack import runtime_facts
    from repro.core import randomize_image

    dry_runs = []
    dry_run = runtime_facts._dry_run
    monkeypatch.setattr(
        runtime_facts, "_dry_run",
        lambda *args: dry_runs.append(args) or dry_run(*args),
    )
    image = dataclasses.replace(testapp)
    facts = derive_runtime_facts(image)
    assert derive_runtime_facts(image) is facts
    assert len(dry_runs) == 1
    copy = dataclasses.replace(image)  # the facts are not a field
    assert derive_runtime_facts(copy) == facts
    assert len(dry_runs) == 2

    randomized, _permutation = randomize_image(testapp, random.Random(5))
    image.code = randomized.code
    image.symbols = randomized.symbols
    moved = derive_runtime_facts(image)
    assert len(dry_runs) == 3
    assert moved == derive_runtime_facts(randomized)
    assert moved.call_site != facts.call_site
    image.code = bytes(bytearray(image.code))  # equal bytes, another object
    assert derive_runtime_facts(image) == moved
    assert len(dry_runs) == 5
    with pytest.raises(AttackError):  # its own arguments, its own run
        derive_runtime_facts(image, max_instructions=10)


def test_variable_address_rejects_functions(testapp):
    with pytest.raises(AttackError):
        variable_address(testapp, "main")


# -- V1: basic ROP -----------------------------------------------------------

def test_v1_writes_then_crashes(testapp):
    autopilot = Autopilot(testapp)
    outcome = BasicAttack(testapp).execute(autopilot, values=b"\x11\x22\x33")
    assert outcome.succeeded  # the sensor write landed...
    assert outcome.status is AutopilotStatus.CRASHED  # ...but the board died
    assert not outcome.stealthy
    assert outcome.link_lost  # the ground station noticed


def test_v1_crash_is_garbage_execution(testapp):
    autopilot = Autopilot(testapp)
    outcome = BasicAttack(testapp).execute(autopilot)
    assert outcome.crash is not None
    assert "beyond the programmed image" in outcome.crash.reason


# -- V2: stealthy ------------------------------------------------------------

def test_v2_stealthy_success(testapp):
    autopilot = Autopilot(testapp)
    outcome = StealthyAttack(testapp).execute(autopilot, values=b"\x40\x00\x00")
    assert outcome.succeeded
    assert outcome.stealthy
    assert outcome.status is AutopilotStatus.RUNNING
    assert not outcome.link_lost
    assert outcome.telemetry_frames_after > 0
    assert autopilot.read_variable("gyro_offset") == 0x40


def test_v2_restores_machine_state(testapp):
    """After the attack the loop must continue exactly as before."""
    attacked = Autopilot(testapp)
    outcome = StealthyAttack(testapp).execute(attacked)
    assert outcome.stealthy
    # stack pointer is back in the normal operating band
    attacked.tick()
    assert attacked.cpu.data.sp > RAMEND - 128
    # no spurious boot pulse (a wild reset would add one)
    assert len(attacked.feed.boot_pulses) == 1


def test_v2_effect_persists_and_propagates(testapp):
    """The gyro offset corruption reaches telemetry (sensor fusion)."""
    autopilot = Autopilot(testapp)
    gcs = MaliciousGroundStation()
    StealthyAttack(testapp).execute(autopilot, gcs=gcs, values=b"\x40\x00\x00")
    for _ in range(5):
        autopilot.tick()
        gcs.ingest(autopilot.transmitted_bytes())
    assert gcs.last_frame is not None
    assert gcs.last_frame.gyro_x != 0  # offset is now fused into telemetry


def test_v2_payload_fits_buffer(testapp):
    attack = StealthyAttack(testapp)
    target = variable_address(testapp, "gyro_offset")
    body = attack.attack_bytes([Write3(target, b"\x01\x02\x03")])
    assert len(body) == RX_BUFFER_SIZE - 6 + 2 + 3


def test_v2_rejects_oversized_chain(testapp):
    attack = StealthyAttack(testapp)
    too_many = [Write3(0x300 + 4 * i, b"abc") for i in range(10)]
    with pytest.raises(AttackError):
        attack.attack_bytes(too_many)


def test_v2_capacity_is_limited(testapp):
    """The limitation V3 exists to remove (paper §IV-E)."""
    assert StealthyAttack(testapp).max_payload_writes() <= 2


def test_v2_against_safe_firmware_fails(testapp, testapp_safe):
    """With the length check enabled the overflow never happens."""
    attack = StealthyAttack(testapp)  # built from the vulnerable binary
    autopilot = Autopilot(testapp_safe)
    station = MaliciousGroundStation()
    target = variable_address(testapp, "gyro_offset")
    burst = station.exploit_burst(
        23, attack.attack_bytes([Write3(target, b"\x40\x00\x00")])
    )
    autopilot.receive_bytes(burst)
    autopilot.run_ticks(30)
    assert autopilot.status is AutopilotStatus.RUNNING
    assert autopilot.read_variable("gyro_offset") == 0


# -- V3: trampoline -----------------------------------------------------------

def test_v3_large_payload(testapp):
    autopilot = Autopilot(testapp)
    attack = TrampolineAttack(testapp)
    outcome = attack.execute(autopilot)
    assert outcome.succeeded
    assert outcome.stealthy
    # the 12-byte marker spans two variables
    marker = autopilot.cpu.data.read_block(
        autopilot.variable_address("accel_value"), 12
    )
    assert marker == b"TRAMPOLINE!\x00"


def test_v3_staging_is_stealthy_per_round(testapp):
    """Every staging round must itself return cleanly."""
    attack = TrampolineAttack(testapp)
    rounds = attack.all_rounds(attack.demo_payload())
    assert len(rounds) > 10  # many clean-return rounds
    autopilot = Autopilot(testapp)
    station = MaliciousGroundStation()
    # deliver only the staging rounds (not the trigger)
    for round_bytes in rounds[:-1]:
        autopilot.receive_bytes(station.exploit_burst(23, round_bytes))
        autopilot.run_ticks(3)
        assert autopilot.status is AutopilotStatus.RUNNING
    # nothing fired yet: targets still clean
    assert autopilot.read_variable("gyro_offset") == 0


def test_v3_staged_chain_matches_memory(testapp):
    """After staging, SRAM holds exactly the staged chain bytes."""
    attack = TrampolineAttack(testapp)
    staged = attack.staged_chain(attack.demo_payload())
    autopilot = Autopilot(testapp)
    station = MaliciousGroundStation()
    for round_bytes in attack.staging_rounds(staged):
        autopilot.receive_bytes(station.exploit_burst(23, round_bytes))
        autopilot.run_ticks(3)
    planted = autopilot.cpu.data.read_block(attack.staging_base, len(staged))
    # staging writes in 3-byte chunks with fill padding at the tail
    assert planted[: len(staged)] == staged


def test_v3_collision_guard(testapp):
    attack = TrampolineAttack(testapp, staging_base=0x2100)  # too close to stack
    with pytest.raises(AttackError):
        attack.all_rounds(attack.demo_payload())


# -- Fig. 6 -------------------------------------------------------------------

def test_fig6_trace(testapp):
    trace = trace_stealthy_attack(testapp)
    assert len(trace.snapshots) == 7
    assert trace.resumed_cleanly
    labels = [snap.label for snap in trace.snapshots]
    assert labels[0].startswith("(i)")
    assert labels[-1].startswith("(vii)")
    rendered = trace.render()
    assert "Gadget1" in rendered
    assert "resumed cleanly: True" in rendered


def test_fig6_repair_restores_clean_window(testapp):
    trace = trace_stealthy_attack(testapp)
    clean = trace.snapshots[0]
    repaired = trace.snapshots[-1]
    assert clean.base_address == repaired.base_address
    facts = derive_runtime_facts(testapp)
    # the 3 return-address bytes the overflow smashed are restored to the
    # value a normal call pushes (snapshot (i) is pre-call, so the slot is
    # compared against the statically known return address, not (i))
    from repro.attack import ret_address_bytes

    offset = facts.frame_sp + 1 - repaired.base_address
    restored = repaired.data[offset : offset + 3]
    assert restored == ret_address_bytes(facts.return_address_word)
