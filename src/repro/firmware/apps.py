"""Application builder: manifest -> linked :class:`FirmwareImage`.

Build pipeline:

1. Parse the hand-written core (:mod:`repro.firmware.runtime`).
2. Generate filler functions from the manifest's seed until the function
   count matches Table I.
3. Add the dispatch table (function pointers in flash) and parameter data.
4. Link once to measure, then add a calibration parameter block so the
   *stock* build lands on the Table III byte size exactly, and relink.

Builds are cached per (manifest, toolchain, vulnerability) because the big
apps take a few seconds to link.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..asm.ir import DataDef, DataKind, Program
from ..asm.linker import LinkOptions, MAVR_OPTIONS, STOCK_OPTIONS, link
from ..binfmt.image import FirmwareImage
from ..errors import LinkError
from .codegen import FunctionFactory
from .manifests import TESTAPP, AppManifest
from .runtime import CORE_FUNCTION_NAMES, core_program

_CACHE: Dict[Tuple[str, str, bool], FirmwareImage] = {}


def build_program(manifest: AppManifest, vulnerable: bool = True) -> Program:
    """Assemble the full IR program for ``manifest`` (before calibration)."""
    program = core_program(vulnerable)
    factory = FunctionFactory(manifest.seed)

    filler_count = manifest.function_count - len(CORE_FUNCTION_NAMES)
    if filler_count < manifest.task_count:
        raise LinkError(
            f"{manifest.name}: function count {manifest.function_count} too "
            "small for the core + task table"
        )

    text_budget_words = int(manifest.stock_code_size * manifest.text_fraction) // 2
    core_words_estimate = 600  # core + shared blocks + vectors, roughly
    average_words = max(
        (text_budget_words - core_words_estimate) // max(filler_count, 1), 12
    )
    low = max(int(average_words * 0.4), 8)
    high = int(average_words * 1.6)

    # task-safe fillers first (the dispatch table points at them)
    task_names: List[str] = []
    for index in range(manifest.task_count):
        name = f"task_{manifest.name}_{index}"
        program.add_function(
            factory.task_function(name, factory.rng.randint(low, high))
        )
        task_names.append(name)

    remaining = filler_count - manifest.task_count
    switch_left = manifest.switch_function_count
    early_left = manifest.early_ret_count
    prologue_left = manifest.prologue_user_count
    caller_left = manifest.local_caller_pairs
    previous_name: str = task_names[-1]

    for index in range(remaining):
        name = f"fn_{manifest.name}_{index:04d}"
        target = factory.rng.randint(low, high)
        save_count = 0
        if prologue_left > 0 and factory.rng.random() < 0.2:
            save_count = factory.rng.randint(6, 10)
            prologue_left -= 1
        elif factory.rng.random() < 0.25:
            save_count = factory.rng.randint(2, 3)  # inline even under stock
        callees: List[str] = []
        if caller_left > 0 and factory.rng.random() < 0.4:
            callees = [previous_name]  # adjacent call: relaxation candidate
            caller_left -= 1
        with_switch = False
        if switch_left > 0 and factory.rng.random() < 0.12:
            with_switch = True
            switch_left -= 1
        with_early_ret = False
        if early_left > 0 and save_count == 0 and factory.rng.random() < 0.1:
            with_early_ret = True
            early_left -= 1
        program.add_function(
            factory.filler(
                name,
                target,
                callees=callees,
                save_count=save_count,
                with_switch=with_switch,
                with_early_ret=with_early_ret,
            )
        )
        previous_name = name

    program.add_data(
        DataDef("task_table", DataKind.FUNCPTR_TABLE, task_names, segment="flash")
    )
    # a small constant parameter block, typical firmware furniture
    program.add_data(
        DataDef(
            "default_params",
            DataKind.BYTES,
            bytes((i * 7 + 3) & 0xFF for i in range(64)),
            segment="flash",
        )
    )
    return program


def build_app(
    manifest: AppManifest,
    options: LinkOptions = STOCK_OPTIONS,
    vulnerable: bool = True,
    calibrate: bool = True,
) -> FirmwareImage:
    """Build (and cache) the firmware image for one app and toolchain."""
    key = (manifest.name, options.tag, vulnerable)
    if key in _CACHE:
        return _CACHE[key]

    program = build_program(manifest, vulnerable)
    named_options = LinkOptions(
        relax=options.relax,
        call_prologues=options.call_prologues,
        align_functions=options.align_functions,
        name=manifest.name,
    )
    if calibrate:
        _calibrate(program, manifest)
    image = link(program, named_options)
    _CACHE[key] = image
    return image


def _calibrate(program: Program, manifest: AppManifest) -> None:
    """Pad flash data so the *stock* build hits the Table III size exactly."""
    stock = LinkOptions(
        relax=STOCK_OPTIONS.relax,
        call_prologues=STOCK_OPTIONS.call_prologues,
        align_functions=STOCK_OPTIONS.align_functions,
        name=manifest.name,
    )
    measured = link(program, stock).size
    pad = manifest.stock_code_size - measured
    if pad < 0:
        raise LinkError(
            f"{manifest.name}: generated image ({measured} B) exceeds the "
            f"target stock size ({manifest.stock_code_size} B); lower "
            "text_fraction in the manifest"
        )
    if pad:
        program.add_data(
            DataDef("param_pad", DataKind.SPACE, pad, segment="flash")
        )


def build_testapp(options: LinkOptions = MAVR_OPTIONS, vulnerable: bool = True) -> FirmwareImage:
    """The small fast-linking app used throughout the test suite."""
    return build_app(TESTAPP, options, vulnerable)
