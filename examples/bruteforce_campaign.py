#!/usr/bin/env python3
"""A persistent attacker vs three defense postures.

Pits the same layout-guessing attacker against:

1. **No defense** — the unprotected binary: first shot wins, silently.
2. **Software-only randomization** (§VIII-A) — one permutation forever:
   every failure leaks, nothing on board recovers a crashed processor.
3. **MAVR** — re-randomize on every detected failure: the attacker's
   knowledge resets each round, the UAV never stops flying, and the only
   budget consumed is flash write cycles.

Also runs the *oracle* falsification: an attacker who somehow knows the
live layout (the situation the readout fuse exists to prevent) still
succeeds — proving the defense is secrecy, not breakage.

Run:  python examples/bruteforce_campaign.py
"""

from repro.analysis import estimate_for, format_table, oracle_attack
from repro.attack import StealthyAttack, Write3, variable_address
from repro.core import SoftwareOnlyDefense
from repro.firmware import build_testapp
from repro.mavlink.messages import PARAM_SET
from repro.sim import CampaignRunner, ScenarioSpec, seeded_specs
from repro.uav import Autopilot, MaliciousGroundStation


def main() -> None:
    image = build_testapp()
    station = MaliciousGroundStation()
    target = variable_address(image, "gyro_offset")
    exploit = StealthyAttack(image)
    burst = station.exploit_burst(
        PARAM_SET.msg_id, exploit.attack_bytes([Write3(target, b"\x40\x00\x00")])
    )

    print("posture 1: no defense")
    uav = Autopilot(image)
    outcome = StealthyAttack(image).execute(uav)
    print(f"  first attempt: landed={outcome.succeeded} "
          f"stealthy={outcome.stealthy}\n")

    print("posture 2: software-only randomization (one permutation forever)")
    sw = SoftwareOnlyDefense(image, seed=3)
    sw.run(10)
    sw.autopilot.receive_bytes(burst)
    status = sw.run(200)
    print(f"  replayed exploit: effect="
          f"{sw.autopilot.read_variable('gyro_offset') != 0} "
          f"board={status.value}")
    print("  recovery options in flight: none (no master to pulse reset)")
    sw.power_cycle()
    print("  after a ground power-cycle the layout is UNCHANGED — every "
          "failure the attacker observed stays useful\n")

    print("posture 3: MAVR")
    # one freshly randomized protected board per guess: each failed
    # attempt triggers re-randomization, so guesses are independent draws
    specs = seeded_specs(
        ScenarioSpec, 4, 11, "guess",
        image_hex=image.to_preprocessed_hex(), attack="guess",
    )
    aggregates = CampaignRunner().run(specs).aggregates
    rows = [
        ("guess attempts", aggregates["attacks"]),
        ("exploit effects", aggregates["effects"]),
        ("failures detected", aggregates["detections"]),
        ("layouts rotated", aggregates["randomizations"]),
        ("UAV still flying",
         aggregates["still_flying"] == aggregates["scenarios"]),
    ]
    print(format_table(("metric", "value"), rows))

    print("\nfalsification: oracle attacker (knows the live layout)")
    print(f"  oracle succeeds: {oracle_attack(image, seed=5)} — "
          "randomized firmware is fully exploitable if the layout leaks,")
    print("  which is exactly why the readout-protection fuse matters")

    plane = estimate_for(917)
    print(f"\nexpected guesses at ArduPlane scale: ~10^{plane.log10_layouts:.0f}")


if __name__ == "__main__":
    main()
