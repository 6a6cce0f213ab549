"""USART, feed-line, and tracing peripherals."""

from repro.avr import (
    AvrCpu,
    ExecutionTrace,
    FeedLine,
    Instruction,
    Mnemonic,
    Usart,
    encode_stream,
    snapshot_stack,
)
from repro.avr.iospace import (
    FEED_BIT,
    FEED_PORT,
    RXC_BIT,
    UCSR0A_DATA,
    UDR0_DATA,
    UDRE_BIT,
)

I = Instruction
M = Mnemonic


def build_cpu(insns):
    cpu = AvrCpu()
    cpu.load_program(encode_stream(list(insns) + [I(M.BREAK)]))
    cpu.reset()
    return cpu


def test_usart_rx_status_and_read():
    # poll UCSR0A, read UDR0 into r16
    cpu = build_cpu([
        I(M.LDS, rd=17, k=UCSR0A_DATA),
        I(M.LDS, rd=16, k=UDR0_DATA),
    ])
    usart = Usart(cpu)
    usart.feed_bytes(b"\xfe")
    cpu.run(10)
    assert cpu.data.read_reg(17) & (1 << RXC_BIT)
    assert cpu.data.read_reg(17) & (1 << UDRE_BIT)
    assert cpu.data.read_reg(16) == 0xFE


def test_usart_rx_empty_status():
    cpu = build_cpu([I(M.LDS, rd=17, k=UCSR0A_DATA)])
    Usart(cpu)
    cpu.run(10)
    assert not cpu.data.read_reg(17) & (1 << RXC_BIT)


def test_usart_tx_collects_writes():
    cpu = build_cpu([
        I(M.LDI, rd=16, k=0x41),
        I(M.STS, rr=16, k=UDR0_DATA),
        I(M.LDI, rd=16, k=0x42),
        I(M.STS, rr=16, k=UDR0_DATA),
    ])
    usart = Usart(cpu)
    cpu.run(20)
    assert usart.take_tx() == b"AB"
    assert usart.take_tx() == b""  # drained


def test_feed_line_records_toggles():
    cpu = build_cpu([
        I(M.LDI, rd=16, k=1 << FEED_BIT),
        I(M.OUT, a=FEED_PORT, rr=16),
        I(M.LDI, rd=16, k=0),
        I(M.OUT, a=FEED_PORT, rr=16),
        I(M.LDI, rd=16, k=1 << FEED_BIT),
        I(M.OUT, a=FEED_PORT, rr=16),
    ])
    feed = FeedLine(cpu)
    cpu.run(20)
    assert len(feed.events) == 3
    assert feed.last_feed_cycle is not None
    assert feed.toggles_since(0) == 3


def test_feed_line_ignores_non_toggle_writes():
    cpu = build_cpu([
        I(M.LDI, rd=16, k=1 << FEED_BIT),
        I(M.OUT, a=FEED_PORT, rr=16),
        I(M.OUT, a=FEED_PORT, rr=16),  # same level: no new event
    ])
    feed = FeedLine(cpu)
    cpu.run(20)
    assert len(feed.events) == 1


def test_execution_trace_records_observables():
    cpu = build_cpu([
        I(M.LDI, rd=16, k=0x99),
        I(M.STS, rr=16, k=0x0400),
    ])
    trace = ExecutionTrace()
    trace.attach(cpu)
    cpu.run(10)
    assert (0x0400, 0x99) in trace.io_writes
    assert trace.mnemonic_counts()[M.LDI] == 1


# -- ExecutionTrace: one io_writes record per store, every addressing mode --

STORE_ADDR = 0x0400


def _stores(insns, setup=None):
    cpu = build_cpu(insns)
    if setup:
        setup(cpu)
    trace = ExecutionTrace()
    trace.attach(cpu)
    cpu.run(50)
    assert cpu.halted
    return trace.io_writes


def _x_at(address, value=0x5A):
    """ldi r16=value; X = address."""
    return [
        I(M.LDI, rd=16, k=value),
        I(M.LDI, rd=26, k=address & 0xFF),
        I(M.LDI, rd=27, k=address >> 8),
    ]


def test_trace_records_plain_pointer_store():
    assert _stores(_x_at(STORE_ADDR) + [I(M.ST_X, rr=16)]) == [(STORE_ADDR, 0x5A)]


def test_trace_records_post_increment_store_at_pointer_minus_one():
    writes = _stores(_x_at(STORE_ADDR) + [I(M.ST_X_INC, rr=16)] * 2)
    assert writes == [(STORE_ADDR, 0x5A), (STORE_ADDR + 1, 0x5A)]


def test_trace_records_pre_decrement_store_at_pointer():
    writes = _stores(_x_at(STORE_ADDR) + [I(M.ST_X_DEC, rr=16)])
    assert writes == [(STORE_ADDR - 1, 0x5A)]


def test_trace_records_displacement_store_at_pointer_plus_q():
    program = [
        I(M.LDI, rd=16, k=0x77),
        I(M.LDI, rd=28, k=STORE_ADDR & 0xFF),  # Y = STORE_ADDR
        I(M.LDI, rd=29, k=STORE_ADDR >> 8),
        I(M.STD_Y, rr=16, q=5),
    ]
    assert _stores(program) == [(STORE_ADDR + 5, 0x77)]


def test_trace_records_push_at_sp_plus_one():
    def low_sp(cpu):
        cpu.data.sp = 0x0500

    writes = _stores([I(M.LDI, rd=16, k=0x42), I(M.PUSH, rr=16)], setup=low_sp)
    assert writes == [(0x0500, 0x42)]


def test_trace_records_sbi_and_cbi_at_io_address_plus_0x20():
    io = 0x0A  # a plain (unhooked) I/O register
    writes = _stores([I(M.SBI, a=io, b=3), I(M.SBI, a=io, b=0), I(M.CBI, a=io, b=3)])
    assert writes == [(io + 0x20, 0x08), (io + 0x20, 0x09), (io + 0x20, 0x01)]


def test_trace_excludes_register_file_targets():
    # X = 5 addresses r5: a store into the register file is not observable
    assert _stores(_x_at(5) + [I(M.ST_X_INC, rr=16)]) == []


def test_stack_snapshot_hexdump():
    cpu = build_cpu([I(M.LDI, rd=16, k=0xAA), I(M.PUSH, rr=16)])
    cpu.run(10)
    snap = snapshot_stack(cpu, "after push", window=4)
    assert snap.data[0] == 0xAA
    dump = snap.hexdump()
    assert "0xAA" in dump
    assert dump.startswith("0x")
