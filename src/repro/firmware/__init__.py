"""Synthetic autopilot firmware: codegen, manifests, app builders."""

from . import hwmap
from .apps import build_app, build_program, build_testapp
from .codegen import FunctionFactory
from .manifests import (
    ALL_APPS,
    ARDUCOPTER,
    ARDUPLANE,
    ARDUROVER,
    PAPER_FUNCTION_COUNTS,
    PAPER_MAVR_SIZES,
    PAPER_STARTUP_MS,
    PAPER_STOCK_SIZES,
    TESTAPP,
    AppManifest,
    manifest_by_name,
)
from .runtime import CORE_FUNCTION_NAMES, core_program, core_source

__all__ = [
    "hwmap",
    "build_app",
    "build_program",
    "build_testapp",
    "FunctionFactory",
    "ALL_APPS",
    "ARDUCOPTER",
    "ARDUPLANE",
    "ARDUROVER",
    "PAPER_FUNCTION_COUNTS",
    "PAPER_MAVR_SIZES",
    "PAPER_STARTUP_MS",
    "PAPER_STOCK_SIZES",
    "TESTAPP",
    "AppManifest",
    "manifest_by_name",
    "CORE_FUNCTION_NAMES",
    "core_program",
    "core_source",
]
