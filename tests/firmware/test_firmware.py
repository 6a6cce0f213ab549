"""Firmware generation: manifests, app structure, toolchain behaviour."""

import pytest

from repro.asm.linker import MAVR_OPTIONS, STOCK_OPTIONS
from repro.avr import AvrCpu, FeedLine, Usart
from repro.binfmt import scan_precision_recall
from repro.errors import LinkError
from repro.firmware import (
    CORE_FUNCTION_NAMES,
    TESTAPP,
    AppManifest,
    build_app,
    build_program,
    manifest_by_name,
)
from repro.firmware.hwmap import RX_BUFFER_SIZE, SRAM_VARIABLES, TELEMETRY_MARKER


def test_testapp_function_count(testapp):
    assert testapp.function_count() == TESTAPP.function_count


def test_testapp_stock_size_calibrated(testapp_stock):
    assert testapp_stock.size == TESTAPP.stock_code_size


def test_core_functions_present(testapp):
    for name in CORE_FUNCTION_NAMES:
        assert name in testapp.symbols, name


def test_task_table_pointers(testapp):
    from repro.avr import Mnemonic, decode_at

    assert len(testapp.funcptr_locations) == TESTAPP.task_count
    fixed_end = min(testapp.text_start, testapp.data_start)
    for location in testapp.funcptr_locations:
        stub = testapp.read_funcptr(location) * 2
        assert stub < fixed_end  # trampoline in the fixed region
        insn, _size = decode_at(testapp.code, stub)
        assert insn.mnemonic is Mnemonic.JMP
        containing = testapp.symbols.function_containing(insn.k * 2)
        assert containing is not None
        assert containing.address == insn.k * 2  # entry, not interior


def test_pointer_scan_full_recall(testapp):
    stats = scan_precision_recall(testapp)
    assert stats["recall"] == 1.0


def test_image_validates(testapp, testapp_stock):
    testapp.validate()
    testapp_stock.validate()


def test_manifest_lookup():
    assert manifest_by_name("testapp") is TESTAPP
    assert manifest_by_name("arduplane").function_count == 917
    with pytest.raises(KeyError):
        manifest_by_name("nonesuch")


def test_paper_manifest_rows():
    assert manifest_by_name("arducopter").function_count == 1030
    assert manifest_by_name("ardurover").function_count == 800
    assert manifest_by_name("arduplane").stock_code_size == 221_608


def test_function_count_too_small_rejected():
    bad = AppManifest(name="tiny", function_count=5, stock_code_size=8192, seed=1)
    with pytest.raises(LinkError):
        build_program(bad)


def test_build_deterministic():
    a = build_app(TESTAPP, MAVR_OPTIONS)
    b = build_app(TESTAPP, MAVR_OPTIONS)
    assert a is b  # cached
    program = build_program(TESTAPP)
    names = [f.name for f in program.functions]
    program2 = build_program(TESTAPP)
    assert names == [f.name for f in program2.functions]


def test_vulnerable_flag_changes_handler(testapp, testapp_safe):
    handler_a = testapp.function_bytes(testapp.symbols.get("mavlink_handle_rx"))
    handler_b = testapp_safe.function_bytes(testapp_safe.symbols.get("mavlink_handle_rx"))
    assert handler_a != handler_b


def run_firmware(image, ticks=15, rx=b""):
    cpu = AvrCpu()
    usart = Usart(cpu)
    feed = FeedLine(cpu)
    cpu.load_program(image.code)
    cpu.reset()
    if rx:
        usart.feed_bytes(rx)
    cpu.run(ticks * 4000)
    return cpu, usart, feed


def test_firmware_runs_and_feeds(testapp):
    cpu, usart, feed = run_firmware(testapp)
    assert len(feed.events) > 5
    assert len(feed.boot_pulses) == 1
    tx = usart.take_tx()
    assert TELEMETRY_MARKER in tx


def test_firmware_loop_counter_advances(testapp):
    cpu, _usart, _feed = run_firmware(testapp)
    counter_addr = testapp.symbols.get("loop_counter").address - 0x800000
    assert cpu.data.read(counter_addr) > 0


def test_safe_handler_bounds_copy(testapp_safe):
    """Oversized burst must not reach the return address in the safe build."""
    oversized = bytes([0xAA]) * (RX_BUFFER_SIZE + 64)
    cpu, _usart, _feed = run_firmware(testapp_safe, ticks=20, rx=oversized)
    assert not cpu.halted  # still running normally


def test_sram_variables_allocated(testapp):
    for name in SRAM_VARIABLES:
        symbol = testapp.symbols.get(name)
        assert symbol.address >= 0x800000


def test_stock_build_has_more_functions(testapp, testapp_stock):
    """Shared prologue/epilogue blocks appear as two extra symbols."""
    assert testapp_stock.function_count() == testapp.function_count() + 2
