"""Sensor and UART registers as data, against the hooks they replace.

The sensor pairs (0x100..0x10F) and UART status (UCSR0A, 0xC0) are
data-space mirrors that their devices keep current, and UART data
stores (UDR0, 0xC6) go to a sink, ``Usart.tx_log``.  The reference
model below keeps the read and write hooks these registers had before:
a read computes the device's value on every access, and a store of
UDR0 calls a method that appends the byte.  The property runs the same
interleaving of device updates, accesses and checkpoint restores on a
board of each kind, and every read must agree.
"""

from collections import deque
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.avr import AvrCpu, ExecutionTrace, Instruction, Mnemonic, Usart, encode_stream
from repro.avr.iospace import RXC_BIT, UCSR0A_DATA, UDR0_DATA, UDRE_BIT
from repro.avr.memory import DATA_SPACE_SIZE
from repro.firmware.apps import build_testapp
from repro.firmware.hwmap import (
    ACCEL_X_REG,
    ACCEL_Y_REG,
    ACCEL_Z_REG,
    BARO_REG,
    GYRO_X_REG,
    GYRO_Y_REG,
    GYRO_Z_REG,
    MAG_REG,
)
from repro.uav import Autopilot, SensorState, SensorSuite

I = Instruction
M = Mnemonic

SENSOR_BYTES = tuple(range(GYRO_X_REG, MAG_REG + 2))
MIRRORED = SENSOR_BYTES + (UCSR0A_DATA,)
ADDRESSES = MIRRORED + (UDR0_DATA,)


# -- the reference model: the hooks these registers had ----------------------


def _to_int16(value):
    clamped = max(-32768, min(32767, int(round(value))))
    return clamped & 0xFFFF


class HookedUsart:
    """UDR0 read and write hooks and a computed UCSR0A read hook."""

    def __init__(self, cpu):
        self.rx_queue = deque()
        self.tx_log = []
        cpu.data.add_read_hook(UDR0_DATA, self._read_udr)
        cpu.data.add_write_hook(UDR0_DATA, self._write_udr)
        cpu.data.add_read_hook(UCSR0A_DATA, self._read_status)

    def feed_bytes(self, data):
        self.rx_queue.extend(data)

    def _read_udr(self, _address):
        if self.rx_queue:
            return self.rx_queue.popleft()
        return 0

    def _write_udr(self, _address, value):
        self.tx_log.append(value)

    def _read_status(self, _address):
        status = 1 << UDRE_BIT
        if self.rx_queue:
            status |= 1 << RXC_BIT
        return status


class HookedSensorSuite:
    """One read hook per sensor byte, converting the state on every read."""

    def __init__(self, cpu, state=None):
        self.state = state if state is not None else SensorState()
        self._pair(cpu, GYRO_X_REG, lambda: self.state.gyro["x"])
        self._pair(cpu, GYRO_Y_REG, lambda: self.state.gyro["y"])
        self._pair(cpu, GYRO_Z_REG, lambda: self.state.gyro["z"])
        self._pair(cpu, ACCEL_X_REG, lambda: self.state.accel["x"])
        self._pair(cpu, ACCEL_Y_REG, lambda: self.state.accel["y"])
        self._pair(cpu, ACCEL_Z_REG, lambda: self.state.accel["z"])
        self._pair(cpu, BARO_REG, lambda: self.state.baro)
        self._pair(cpu, MAG_REG, lambda: self.state.mag)

    @staticmethod
    def _pair(cpu, base, getter):
        cpu.data.add_read_hook(base, lambda _addr: _to_int16(getter()) & 0xFF)
        cpu.data.add_read_hook(base + 1, lambda _addr: (_to_int16(getter()) >> 8) & 0xFF)

    def set_gyro(self, x, y, z):
        self.state.gyro.update(x=x, y=y, z=z)

    def set_accel(self, x, y, z):
        self.state.accel.update(x=x, y=y, z=z)


# -- boards ------------------------------------------------------------------


def _menu():
    """One entry per access, each ending in ``break``: loads into r16,
    stores of r17 (and r18), and the firmware's receive poll."""
    code, entries = [], {}

    def add(key, insns):
        entries[key] = len(encode_stream(code)) // 2
        code.extend(insns + [I(M.BREAK)])

    for address in ADDRESSES:
        add(("load", address), [I(M.LDS, rd=16, k=address)])
        add(("store", address, 1), [I(M.STS, k=address, rr=17)])
        add(("store", address, 2),
            [I(M.STS, k=address, rr=17), I(M.STS, k=address, rr=18)])
    add(("poll",), [I(M.LDS, rd=16, k=UDR0_DATA), I(M.LDS, rd=18, k=UCSR0A_DATA)])
    return encode_stream(code), entries


MENU, ENTRIES = _menu()


class Board(NamedTuple):
    cpu: AvrCpu
    usart: object
    sensors: object


def _board(engine, hooked, state=None):
    """A core whose compiled engine runs every head hot at once."""
    cpu = AvrCpu(engine=engine)
    cpu.load_program(MENU)
    cpu.reset()
    if engine == "compiled":
        cpu.engine.WARM_THRESHOLD = 1
    if hooked:
        return Board(cpu, HookedUsart(cpu), HookedSensorSuite(cpu, state))
    return Board(cpu, Usart(cpu), SensorSuite(cpu, state))


def _run(cpu, key, values=(0, 0)):
    """Run the menu entry ``key`` with r17, r18 = ``values``; r16, r18 after."""
    cpu.data.write_reg(17, values[0])
    cpu.data.write_reg(18, values[1])
    cpu.pc = ENTRIES[key]
    cpu.halted = False
    cpu.run(10)
    assert cpu.halted
    return cpu.data.read_reg(16), cpu.data.read_reg(18)


def _apply(board, op, checkpoint):
    """Apply ``op`` to ``board``; returns what it read and the checkpoint."""
    cpu = board.cpu
    kind = op[0]
    if kind in ("gyro", "accel"):
        getattr(board.sensors, "set_" + kind)(*op[1:])
    elif kind == "feed":
        board.usart.feed_bytes(op[1])
    elif kind == "save":
        checkpoint = cpu.data.read_block(0, DATA_SPACE_SIZE)
    elif kind == "restore":
        cpu.data.write_block(0, checkpoint)
    elif kind == "read":
        _, address, via = op
        if via == "data":
            return cpu.data.read(address), checkpoint
        return _run(cpu, ("load", address))[0], checkpoint
    elif kind == "poll":
        return _run(cpu, ("poll",)), checkpoint
    else:  # store
        _, address, values, via = op
        if via == "data":
            for value in values:
                cpu.data.write(address, value)
        else:
            _run(cpu, ("store", address, len(values)), values + (0,) * (2 - len(values)))
    return None, checkpoint


sensor_values = st.one_of(
    st.integers(-40_000, 40_000),
    st.floats(-40_000, 40_000, allow_nan=False),
)
# UDR0, UCSR0A and the sensor bytes as a group are drawn alike
addresses = st.one_of(st.just(UDR0_DATA), st.just(UCSR0A_DATA),
                      st.sampled_from(SENSOR_BYTES))
vias = st.sampled_from(("data", "body"))
operations = st.one_of(
    st.tuples(st.sampled_from(("gyro", "accel")), sensor_values, sensor_values,
              sensor_values),
    st.tuples(st.just("feed"), st.binary(max_size=3)),
    st.tuples(st.just("read"), addresses, vias),
    st.tuples(st.just("poll")),
    st.tuples(st.just("store"), addresses,
              st.lists(st.integers(0, 255), min_size=1, max_size=2).map(tuple),
              vias),
    st.tuples(st.sampled_from(("save", "restore"))),
)


@pytest.mark.parametrize("engine", ("compiled", "interpreter"))
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(operations, min_size=1, max_size=40))
def test_registers_read_as_the_hooks_did(engine, ops):
    """After every step the mirrored bytes, everything a step read, the
    transmitted bytes and the receive queue equal the hooked model's.
    Each board's first checkpoint is its data space as built."""
    board = _board(engine, hooked=False)
    model = _board("interpreter", hooked=True)
    checkpoints = [b.cpu.data.read_block(0, DATA_SPACE_SIZE) for b in (board, model)]
    for op in ops:
        got, checkpoints[0] = _apply(board, op, checkpoints[0])
        want, checkpoints[1] = _apply(model, op, checkpoints[1])
        assert got == want, op
        assert board.usart.tx_log == model.usart.tx_log
        assert list(board.usart.rx_queue) == list(model.usart.rx_queue)
        assert [board.cpu.data.read(a) for a in MIRRORED] == [
            model.cpu.data.read(a) for a in MIRRORED
        ]


def test_restore_reads_live_device_values():
    """A CToMP-style restore rewrites the whole data space, yet the gyro
    and the UART status read what the devices hold now, not what they
    held at the checkpoint (a mirror left unsynced would read 100 and
    0x20 here)."""
    for hooked in (True, False):
        board = _board("compiled", hooked)
        board.sensors.set_gyro(100, 0, 0)
        checkpoint = board.cpu.data.read_block(0, DATA_SPACE_SIZE)
        board.sensors.set_gyro(-7, 0, 0)
        board.usart.feed_bytes(b"\x55")
        board.cpu.data.write_block(0, checkpoint)
        assert board.cpu.data.read(GYRO_X_REG) == 249
        assert board.cpu.data.read(UCSR0A_DATA) == 0xA0
        assert _run(board.cpu, ("load", GYRO_X_REG))[0] == 249


def test_partial_block_write_resyncs_only_what_it_covers():
    board = _board("compiled", hooked=False)
    board.sensors.set_accel(0x1234, 0, 0)
    board.cpu.data.write_block(ACCEL_X_REG + 1, b"\x00\x00")
    assert board.cpu.data.read_block(ACCEL_X_REG - 1, 4) == b"\x00\x34\x12\x00"


def test_sink_keeps_every_byte_in_order_through_one_body():
    """Two UDR0 stores in one compiled body append both bytes, in order,
    and the body runs on to its end without leaving at the store."""
    board = _board("compiled", hooked=False)
    _run(board.cpu, ("store", UDR0_DATA, 2), (0x41, 0x42))
    _run(board.cpu, ("store", UDR0_DATA, 2), (0x43, 0x43))
    assert board.usart.take_tx() == b"ABCC"
    assert board.cpu.data.read_block(UDR0_DATA, 1) == b"C"
    engine = board.cpu.engine
    assert engine.compiled_entered == 2  # one body run per entry, no exit


def test_store_to_a_mirror_leaves_the_device_value():
    board = _board("compiled", hooked=False)
    board.sensors.set_gyro(0x0102, 0, 0)
    _run(board.cpu, ("store", GYRO_X_REG, 1), (0x99, 0))
    board.cpu.data.write(UCSR0A_DATA, 0x00)
    assert board.cpu.data.read_block(GYRO_X_REG, 2) == b"\x02\x01"
    assert board.cpu.data.read(UCSR0A_DATA) == 1 << UDRE_BIT


def test_sensor_state_is_read_when_the_suite_is_built():
    """An autopilot rebuilt over the state of the one it replaces starts
    from that state's values; a state changed in place reaches the
    registers only at the next setter call."""
    image = build_testapp()
    first = Autopilot(image)
    first.sensors.set_gyro(-300, 5, 0)
    first.sensors.set_accel(1, 2, 3)
    second = Autopilot(image, first.sensors.state)
    assert second.sensors.state is first.sensors.state
    assert second.cpu.data.read_block(GYRO_X_REG, 16) == first.cpu.data.read_block(
        GYRO_X_REG, 16
    )
    assert second.cpu.data.read(GYRO_X_REG) == _to_int16(-300) & 0xFF
    second.sensors.state.gyro["x"] = 7.0  # in place, not through a setter
    assert second.cpu.data.read(GYRO_X_REG) == _to_int16(-300) & 0xFF
    second.sensors.set_gyro(7.0, 5, 0)
    assert second.cpu.data.read(GYRO_X_REG) == 7


def test_execution_trace_records_the_byte_a_store_left():
    """``io_writes`` holds the byte a store left: the device's value for a
    mirror, the stored byte for the sink."""
    board = _board("interpreter", hooked=False)
    board.sensors.set_gyro(0x64, 0, 0)
    trace = ExecutionTrace()
    trace.attach(board.cpu)
    _run(board.cpu, ("store", GYRO_X_REG, 1), (0x77, 0))
    _run(board.cpu, ("store", UDR0_DATA, 1), (0x41, 0))
    assert trace.io_writes == [(GYRO_X_REG, 0x64), (UDR0_DATA, 0x41)]
