"""The defense layer: preprocessing, randomization, patching, the master
processor, and the pluggable backends (mavr / daedalus / ctomp) that give
it its diversify-and-recover behavior.  ``MavrSystem`` is the facade that
wires a whole protected board; ``DEFENSE_BACKENDS`` lists the schemes it
accepts."""

from .defenses import (
    DEFENSE_BACKENDS,
    CtompBackend,
    DaedalusBackend,
    DefenseBackend,
    DefenseStats,
    MavrBackend,
    create_backend,
)
from .fuses import ReadoutProtectedFlash
from .master import MasterProcessor, MasterStats
from .mavr import MavrReport, MavrSystem
from .padding import (
    generate_padded_permutation,
    padded_entropy_bits,
    randomize_image_padded,
)
from .patching import (
    patch_image,
    randomize_image,
    verify_patched,
)
from .policy import (
    EVERY_BOOT,
    EVERY_TENTH_BOOT,
    RandomizationPolicy,
    page_wear_fraction,
)
from .preprocess import (
    PreprocessReport,
    check_randomizable,
    load_preprocessed,
    preprocess,
    preprocess_report,
)
from .software_only import SoftwareOnlyDefense, SoftwareOnlyStats
from .randomize import (
    BlockMove,
    Permutation,
    generate_permutation,
    layout_entropy_bits,
    permutation_count,
    shuffled_symbol_table,
)
from .splitting import (
    SplitReport,
    function_cut_offsets,
    split_image_blocks,
    split_report,
    split_symbol_table,
)
from .watchdog import WatchdogConfig, WatchdogMonitor

__all__ = [
    "DEFENSE_BACKENDS",
    "CtompBackend",
    "DaedalusBackend",
    "DefenseBackend",
    "DefenseStats",
    "MavrBackend",
    "create_backend",
    "SplitReport",
    "function_cut_offsets",
    "split_image_blocks",
    "split_report",
    "split_symbol_table",
    "generate_padded_permutation",
    "padded_entropy_bits",
    "randomize_image_padded",
    "SoftwareOnlyDefense",
    "SoftwareOnlyStats",
    "ReadoutProtectedFlash",
    "MasterProcessor",
    "MasterStats",
    "MavrReport",
    "MavrSystem",
    "patch_image",
    "randomize_image",
    "verify_patched",
    "EVERY_BOOT",
    "EVERY_TENTH_BOOT",
    "RandomizationPolicy",
    "page_wear_fraction",
    "PreprocessReport",
    "check_randomizable",
    "load_preprocessed",
    "preprocess",
    "preprocess_report",
    "BlockMove",
    "Permutation",
    "generate_permutation",
    "layout_entropy_bits",
    "permutation_count",
    "shuffled_symbol_table",
    "WatchdogConfig",
    "WatchdogMonitor",
]
