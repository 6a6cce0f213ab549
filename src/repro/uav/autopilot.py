"""The simulated UAV: firmware + core + peripherals + flight dynamics.

:class:`Autopilot` is the harness every experiment drives: it owns the AVR
core running a built firmware image, the USART the ground station talks
through, the watchdog feed line the MAVR master monitors, the sensor suite
and the flight model.  A *tick* is one control period: run a slice of
firmware, then integrate the airframe.

Crash semantics follow the paper: when the core walks into garbage
(undecodable opcode, out-of-image PC, bad memory access) the autopilot
enters ``CRASHED`` — control surfaces freeze, telemetry stops, the feed
line goes quiet, and only a reset (reflash) recovers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..avr.cpu import AvrCpu
from ..avr.devices import EepromController, FeedLine, Usart
from ..avr.engine import DEFAULT_ENGINE
from ..binfmt.image import FirmwareImage
from ..binfmt.symtab import DATA_SPACE_FLAG
from ..errors import AvrError
from ..firmware.hwmap import SERVO_PORT_IO
from .flight import FlightModel
from .sensors import SensorState, SensorSuite


class AutopilotStatus(Enum):
    RUNNING = "running"
    CRASHED = "crashed"
    HALTED = "halted"


@dataclass
class CrashInfo:
    """Why and where the firmware died."""

    reason: str
    pc_bytes: int
    cycle: int


class Autopilot:
    """One UAV control unit executing a firmware image."""

    def __init__(
        self,
        image: FirmwareImage,
        sensor_state: Optional[SensorState] = None,
        instructions_per_tick: int = 4000,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.image = image
        self.instructions_per_tick = instructions_per_tick
        # ``engine`` selects the CPU execution engine; the default
        # compiled engine makes large attack/defense sweeps fast, the
        # "interpreter" reference exists for differential testing.
        self.cpu = AvrCpu(engine=engine)
        self.usart = Usart(self.cpu)
        self.feed = FeedLine(self.cpu)
        self.eeprom_ctl = EepromController(self.cpu)
        self.sensors = SensorSuite(self.cpu, sensor_state)
        self.flight = FlightModel(self.sensors)
        self.status = AutopilotStatus.RUNNING
        self.crash: Optional[CrashInfo] = None
        self.ticks = 0
        # host-side debug view: SRAM variable addresses survive reflashing
        # with randomized images (randomization never moves data), even
        # when the new image's own symbol table is the master's nameless
        # from-flash reconstruction
        self.debug_symbols = image.symbols
        self.cpu.load_program(image.code)
        self.cpu.reset()

    # -- lifecycle --------------------------------------------------------

    def reflash(self, image: FirmwareImage) -> None:
        """Program a new image and reset (what the MAVR master does).

        Both the erase and the load bump the flash generation counter, so
        the CPU's compiled engine can never execute decodes cached from
        the pre-randomization image (the stale-decode regression test
        pins this down).
        """
        self.image = image
        self.cpu.flash.erase()
        self.cpu.load_program(image.code)
        self.cpu.reset()
        self.feed.clear()
        self.status = AutopilotStatus.RUNNING
        self.crash = None

    def adopt_image(self, image: FirmwareImage) -> None:
        """Reset onto an image the ISP link already programmed into flash.

        The MAVR master streams the randomized binary straight into
        ``cpu.flash`` through :class:`~repro.hw.isp.IspProgrammer` (which
        may have written only the changed pages); this just updates the
        host-side view and pulses reset.  Erasing + reloading here would
        destroy the differential programmer's page accounting — use
        :meth:`reflash` only when bypassing the ISP path entirely.
        """
        self.image = image
        self.cpu.code_limit = len(image.code)  # what load_program would set
        self.cpu.reset()
        self.feed.clear()
        self.status = AutopilotStatus.RUNNING
        self.crash = None

    def reset(self) -> None:
        """Pulse the reset line without reprogramming."""
        self.cpu.reset()
        self.feed.clear()
        self.status = AutopilotStatus.RUNNING
        self.crash = None

    # -- execution --------------------------------------------------------

    def tick(self, instructions: Optional[int] = None) -> AutopilotStatus:
        """One control period: firmware slice + airframe integration."""
        budget = instructions if instructions is not None else self.instructions_per_tick
        self.ticks += 1
        if self.status is AutopilotStatus.RUNNING:
            try:
                self.cpu.run(budget)
                if self.cpu.halted:
                    self.status = AutopilotStatus.HALTED
            except AvrError as exc:
                self.status = AutopilotStatus.CRASHED
                self.crash = CrashInfo(
                    reason=str(exc), pc_bytes=self.cpu.pc_bytes,
                    cycle=self.cpu.cycles,
                )
        # the airframe keeps flying either way; a crashed core freezes the
        # last servo command
        self.flight.step(self.servo_command)
        return self.status

    def run_ticks(self, count: int) -> AutopilotStatus:
        for _ in range(count):
            self.tick()
        return self.status

    @property
    def servo_command(self) -> int:
        return self.cpu.data.read_io(SERVO_PORT_IO)

    # -- ground-station-facing I/O -----------------------------------------

    def receive_bytes(self, data: bytes) -> None:
        """Bytes arriving on the telemetry/USB serial port."""
        self.usart.feed_bytes(data)

    def transmitted_bytes(self) -> bytes:
        """Drain everything the firmware sent since the last call."""
        return self.usart.take_tx()

    # -- memory access helpers (simulation/debug side) ----------------------

    def variable_address(self, name: str) -> int:
        symbol = self.debug_symbols.get(name)
        if symbol.address < DATA_SPACE_FLAG:
            raise ValueError(f"{name} is not an SRAM variable")
        return symbol.address - DATA_SPACE_FLAG

    def read_variable(self, name: str, size: Optional[int] = None) -> int:
        """Read an SRAM variable as a little-endian unsigned integer."""
        symbol = self.debug_symbols.get(name)
        length = size if size is not None else min(symbol.size, 8)
        raw = self.cpu.data.read_block(self.variable_address(name), length)
        return int.from_bytes(raw, "little")

    def write_variable(self, name: str, value: int, size: Optional[int] = None) -> None:
        symbol = self.debug_symbols.get(name)
        length = size if size is not None else min(symbol.size, 8)
        self.cpu.data.write_block(
            self.variable_address(name), value.to_bytes(length, "little")
        )
