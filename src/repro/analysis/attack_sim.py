"""Full-system attack simulation: the oracle attacker vs a randomized image.

Closes the loop between the closed-form brute-force analysis and the
simulated hardware.  :func:`oracle_attack` is an attacker who *knows* the
current permutation (insider / fuse bypass): they build a fresh exploit
against the randomized image and succeed.  This falsifies the alternative
explanation for §VII-A ("maybe randomization just breaks the firmware"):
capability is intact, only secrecy defeats the attacker.

The guessing attacker of §VII-A — exploits built against *wrong* layout
guesses, replayed at boards that re-randomize after every detected
failure — is a campaign of ``attack="guess"`` specs built by
:func:`repro.sim.seeded_specs` and run by :class:`repro.sim.CampaignRunner`
(CLI: ``campaign --attack guess --defense <backend>``).
"""

from __future__ import annotations

from ..binfmt.image import FirmwareImage
from ..sim import ScenarioSpec, run_scenario


def oracle_attack(
    image: FirmwareImage, seed: int = 0, target_variable: str = "gyro_offset",
    values: bytes = b"\x40\x00\x00",
) -> bool:
    """Attack a randomized image with full knowledge of its layout.

    Returns True when the write lands stealthily — demonstrating that the
    randomized firmware is still perfectly exploitable *if* the layout
    leaks, i.e. MAVR's security rests entirely on layout secrecy (which
    the readout fuse enforces).
    """
    spec = ScenarioSpec(
        image_hex=image.to_preprocessed_hex(),
        protected=False,
        attack="oracle",
        attack_seed=seed,
        target_variable=target_variable,
        values=values,
        observe_ticks=30,
        label="oracle",
    )
    result = run_scenario(spec)
    return result.succeeded and result.stealthy
