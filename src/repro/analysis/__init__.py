"""Security analysis: brute-force effort, entropy, gadget survival,
the full-system oracle attack."""

from .attack_sim import oracle_attack
from .defense_matrix import (
    build_matrix,
    format_matrix_table,
    matrix_summary_lines,
    measure_backend,
)
from .bruteforce import (
    BruteForceEstimate,
    estimate_for,
    expected_attempts_fixed_layout,
    expected_attempts_mavr,
    layouts_for_functions,
    simulate_fixed_layout,
    simulate_mavr,
    success_probability_at,
)
from .entropy import (
    EntropyReport,
    compare_defenses,
    entropy_report,
    image_entropy_bits,
    padding_entropy_bits,
    permutation_entropy_bits,
)
from .gadget_survival import (
    SurvivalSample,
    attack_survival_rate,
    mean_survival_fraction,
    measure_survival,
)
from .prologue_leak import LeakReport, measure_prologue_leak
from .report import format_table, paper_vs_measured

__all__ = [
    "LeakReport",
    "measure_prologue_leak",
    "oracle_attack",
    "build_matrix",
    "format_matrix_table",
    "matrix_summary_lines",
    "measure_backend",
    "BruteForceEstimate",
    "estimate_for",
    "expected_attempts_fixed_layout",
    "expected_attempts_mavr",
    "layouts_for_functions",
    "simulate_fixed_layout",
    "simulate_mavr",
    "success_probability_at",
    "EntropyReport",
    "compare_defenses",
    "entropy_report",
    "image_entropy_bits",
    "padding_entropy_bits",
    "permutation_entropy_bits",
    "SurvivalSample",
    "attack_survival_rate",
    "mean_survival_fraction",
    "measure_survival",
    "format_table",
    "paper_vs_measured",
]
