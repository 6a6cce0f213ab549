"""Layout entropy (paper §VIII-B).

ArduRover, the smallest application, has 800 shuffleable symbols, giving
log2(800!) ≈ 6567 bits of layout entropy — "computationally secure against
a brute force attack" without needing the random inter-function padding
the authors considered and dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..binfmt.image import FirmwareImage


def permutation_entropy_bits(function_count: int) -> float:
    """log2(n!) via lgamma (exact enough for thousands of functions)."""
    if function_count < 0:
        raise ValueError("function count cannot be negative")
    return math.lgamma(function_count + 1) / math.log(2)


def image_entropy_bits(image: FirmwareImage) -> float:
    return permutation_entropy_bits(image.function_count())


def padding_entropy_bits(function_count: int, pad_choices: int) -> float:
    """Extra bits if every gap could take one of ``pad_choices`` sizes.

    The alternative §VIII-B evaluates: random padding between functions.
    """
    if pad_choices < 1:
        raise ValueError("pad_choices must be >= 1")
    return function_count * math.log2(pad_choices)


@dataclass(frozen=True)
class EntropyReport:
    function_count: int
    shuffle_bits: float
    padding_bits_16: float  # with 16 possible pad sizes per gap

    @property
    def total_with_padding(self) -> float:
        return self.shuffle_bits + self.padding_bits_16


def entropy_report(function_count: int) -> EntropyReport:
    return EntropyReport(
        function_count=function_count,
        shuffle_bits=permutation_entropy_bits(function_count),
        padding_bits_16=padding_entropy_bits(function_count, 16),
    )


def compare_defenses(function_count: int) -> Dict[str, float]:
    """Entropy of MAVR vs the coarse alternatives §IX dismisses."""
    return {
        # 16-bit AVR data/code addresses leave ASLR almost nothing to shift:
        # a handful of page-aligned bases
        "aslr_16bit_base_bits": math.log2(64),
        "function_shuffle_bits": permutation_entropy_bits(function_count),
    }

