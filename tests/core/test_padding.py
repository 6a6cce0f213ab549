"""Padded randomization (§VIII-B extension): scatter blocks with gaps."""

import random

import pytest

from repro.attack import GadgetFinder, StealthyAttack, Write3, variable_address
from repro.core import (
    generate_padded_permutation,
    padded_entropy_bits,
    randomize_image_padded,
)
from repro.core.randomize import layout_entropy_bits
from repro.errors import DefenseError
from repro.mavlink.messages import PARAM_SET
from repro.uav import Autopilot, AutopilotStatus, MaliciousGroundStation

from .streaming_patcher import oracle_bytes

FLASH_64K = 64 * 1024


def test_padded_permutation_structure(testapp):
    permutation = generate_padded_permutation(
        testapp, random.Random(0), flash_size=FLASH_64K
    )
    moves = sorted(permutation.moves, key=lambda m: m.new_address)
    # all blocks above the data section, inside flash, non-overlapping
    cursor = testapp.data_end
    for move in moves:
        assert move.new_address >= cursor
        cursor = move.new_address + move.size
    assert cursor <= FLASH_64K
    # gaps actually exist
    gaps = [
        b.new_address - (a.new_address + a.size)
        for a, b in zip(moves, moves[1:])
    ]
    assert any(gap > 0 for gap in gaps)


def test_padded_randomization_behavioural_equivalence(testapp):
    randomized, _permutation = randomize_image_padded(
        testapp, random.Random(5), flash_size=FLASH_64K
    )

    def run(image, ticks=10):
        autopilot = Autopilot(image)
        transmitted = b""
        for _ in range(ticks):
            autopilot.tick()
            transmitted += autopilot.transmitted_bytes()
        return transmitted

    assert run(testapp) == run(randomized)


def test_padded_gaps_are_undecodable(testapp):
    randomized, permutation = randomize_image_padded(
        testapp, random.Random(5), flash_size=FLASH_64K
    )
    moves = sorted(permutation.moves, key=lambda m: m.new_address)
    # probe one inter-block gap: must be erased flash
    for a, b in zip(moves, moves[1:]):
        gap_start = a.new_address + a.size
        if b.new_address - gap_start >= 2:
            assert randomized.code[gap_start] == 0xFF
            break
    # and the old .text is blanked: no leftover gadget bytes
    assert all(
        byte == 0xFF
        for byte in randomized.code[testapp.text_start : testapp.text_end]
    )


def test_padded_old_gadgets_gone(testapp):
    finder = GadgetFinder(testapp)
    stk = finder.find_stk_move()
    randomized, _permutation = randomize_image_padded(
        testapp, random.Random(6), flash_size=FLASH_64K
    )
    assert randomized.code[stk.entry : stk.entry + 4] == b"\xff\xff\xff\xff"


def test_padded_attack_replay_fails(testapp):
    randomized, _permutation = randomize_image_padded(
        testapp, random.Random(8), flash_size=FLASH_64K
    )
    attack = StealthyAttack(testapp)  # original-layout exploit
    autopilot = Autopilot(randomized)
    autopilot.debug_symbols = testapp.symbols
    station = MaliciousGroundStation()
    target = variable_address(testapp, "gyro_offset")
    burst = station.exploit_burst(
        PARAM_SET.msg_id, attack.attack_bytes([Write3(target, b"\x40\x00\x00")])
    )
    autopilot.run_ticks(5)
    autopilot.receive_bytes(burst)
    autopilot.run_ticks(40)
    assert autopilot.read_variable("gyro_offset") == 0
    # with 0xFF gaps a wild transfer faults fast: expect a hard crash
    assert autopilot.status is AutopilotStatus.CRASHED


def test_padded_entropy_exceeds_shuffle_only(testapp):
    shuffle_only = layout_entropy_bits(testapp.function_count())
    padded = padded_entropy_bits(testapp, flash_size=FLASH_64K)
    assert padded > shuffle_only * 1.5


def test_padded_needs_free_flash(testapp):
    with pytest.raises(DefenseError):
        generate_padded_permutation(
            testapp, random.Random(0), flash_size=testapp.size + 256
        )


@pytest.mark.parametrize("fill", [0xFF, 0x00])
def test_padded_fill_matches_streaming_oracle(testapp, fill):
    """Gaps and the vacated ``.text`` carry ``fill`` exactly where the
    streaming pipeline put it, erased flash or not."""
    randomized, permutation = randomize_image_padded(
        testapp, random.Random(7), flash_size=FLASH_64K, fill=fill
    )
    assert randomized.code == oracle_bytes(testapp, permutation, fill)
    assert set(randomized.code[testapp.text_start : testapp.text_end]) == {fill}


def test_padded_size_cost(testapp):
    """The trade-off that justifies the paper dropping padding: the image
    (and hence Table II transfer time) grows substantially."""
    randomized, _permutation = randomize_image_padded(
        testapp, random.Random(9), flash_size=FLASH_64K
    )
    assert randomized.size > testapp.size * 2
