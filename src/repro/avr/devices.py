"""Simulated peripherals attached to the AVR data space.

Two devices matter for the paper's system:

* :class:`Usart` — the serial port carrying MAVLink bytes from the ground
  station (and telemetry back).
* :class:`FeedLine` — the GPIO line the firmware toggles to "feed" the MAVR
  master processor, which performs *timing analysis* on it to detect failed
  attacks (paper §V-A2).
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Deque, List, Optional, Tuple

from .cpu import AvrCpu
from .iospace import (
    BOOT_BIT,
    EEARH_DATA,
    EEARL_DATA,
    EECR_DATA,
    EEDR_DATA,
    EEPE_BIT,
    EERE_BIT,
    FEED_BIT,
    FEED_PORT,
    IO_TO_DATA_OFFSET,
    RXC_BIT,
    UCSR0A_DATA,
    UDR0_DATA,
    UDRE_BIT,
)


# UCSR0A: transmit-ready (UDRE) always, receive-complete (RXC) while bytes wait
_STATUS_IDLE = bytes([1 << UDRE_BIT])
_STATUS_RX = bytes([(1 << UDRE_BIT) | (1 << RXC_BIT)])


class Usart:
    """Byte-oriented UART visible at UDR0/UCSR0A.

    Firmware polls UCSR0A for the RXC bit and reads UDR0; writes to UDR0 are
    collected into :attr:`tx_log`.  The transmit-ready bit (UDRE) is always
    set — the simulation does not model UART pacing; link-level timing lives
    in :mod:`repro.hw.serialbus`.

    Only a UDR0 read is a hook, because it pops :attr:`rx_queue`.  UCSR0A
    is a data-space mirror (:meth:`~repro.avr.memory.DataSpace.add_mirror`)
    that :meth:`feed_bytes` and every popping UDR0 read rewrite, so the
    firmware's status poll is a plain byte read.  UDR0 stores go to a sink
    (:meth:`~repro.avr.memory.DataSpace.add_sink`): :attr:`tx_log` itself,
    so a transmitted byte costs no Python call.
    """

    def __init__(self, cpu: AvrCpu) -> None:
        # weak: the core's hook table holds this UART's method
        self._data = weakref.proxy(cpu.data)
        self.rx_queue: Deque[int] = deque()
        self.tx_log: List[int] = []
        cpu.data.add_read_hook(UDR0_DATA, self._read_udr)
        cpu.data.add_sink(UDR0_DATA, self.tx_log)
        cpu.data.add_mirror(UCSR0A_DATA, _STATUS_IDLE)

    def feed_bytes(self, data: bytes) -> None:
        """Queue bytes as if they arrived from the remote end."""
        self.rx_queue.extend(data)
        self._sync_status()

    def take_tx(self) -> bytes:
        """Drain and return everything the firmware transmitted."""
        out = bytes(self.tx_log)
        self.tx_log.clear()  # in place: the data space holds this list
        return out

    def _read_udr(self, _address: int) -> int:
        if self.rx_queue:
            value = self.rx_queue.popleft()
            self._sync_status()
            return value
        return 0

    def _sync_status(self) -> None:
        self._data.set_mirror(
            UCSR0A_DATA, _STATUS_RX if self.rx_queue else _STATUS_IDLE
        )


class EepromController:
    """The EECR/EEDR/EEAR register interface to the EEPROM (paper Fig. 1).

    Firmware reads a byte by loading EEAR and strobing EERE (EEDR then
    holds the data); it writes by loading EEAR/EEDR and strobing EEPE.
    Because these registers live in the data space like everything else,
    a ROP chain's plain stores can drive them — which is how a stealthy
    attack can make its corruption *persistent* (see
    ``repro.attack.v4_persistence``).
    """

    def __init__(self, cpu: AvrCpu) -> None:
        # weak: the core's hook table holds this controller's method
        self._cpu = weakref.proxy(cpu)
        self.reads = 0
        self.writes = 0
        cpu.data.add_write_hook(EECR_DATA, self._on_control)

    def _on_control(self, _address: int, value: int) -> int:
        data = self._cpu.data
        address = data.read(EEARL_DATA) | (data.read(EEARH_DATA) << 8)
        strobes = (1 << EEPE_BIT) | (1 << EERE_BIT)
        if address >= self._cpu.eeprom.size:
            return value & ~strobes  # ignored, but strobe bits still clear
        if value & (1 << EEPE_BIT):
            self._cpu.eeprom.write(address, data.read(EEDR_DATA))
            self.writes += 1
        elif value & (1 << EERE_BIT):
            data.write(EEDR_DATA, self._cpu.eeprom.read(address))
            self.reads += 1
        # EEPE/EERE are hardware strobe bits: they read back as zero
        return value & ~strobes


class FeedLine:
    """Watchdog-feed GPIO observed by the MAVR master processor.

    Every write to the feed port that toggles the feed bit is recorded with
    the CPU cycle timestamp.  The master's timing analysis
    (:mod:`repro.core.watchdog`) inspects these events to decide whether the
    application processor is still alive.

    The same port carries the *boot-signature* bit: ``main`` pulses it once
    on entry, so the master can tell when the application restarted without
    being told to (the footprint of a failed attack whose wild ``ret``
    landed on the reset vector).
    """

    def __init__(self, cpu: AvrCpu) -> None:
        # weak: the core's hook table holds this line's method
        self._cpu = weakref.proxy(cpu)
        self._last_level: Optional[bool] = None
        self._last_boot_level: bool = False
        self.events: List[Tuple[int, bool]] = []  # (cycle, new level)
        self.boot_pulses: List[int] = []  # cycles of boot-bit rising edges
        cpu.data.add_write_hook(FEED_PORT + IO_TO_DATA_OFFSET, self._on_write)

    def _on_write(self, _address: int, value: int) -> None:
        level = bool(value & (1 << FEED_BIT))
        if level != self._last_level:
            self.events.append((self._cpu.cycles, level))
            self._last_level = level
        boot_level = bool(value & (1 << BOOT_BIT))
        if boot_level and not self._last_boot_level:
            self.boot_pulses.append(self._cpu.cycles)
        self._last_boot_level = boot_level

    @property
    def last_feed_cycle(self) -> Optional[int]:
        """Cycle of the most recent toggle, or ``None`` if never fed."""
        if not self.events:
            return None
        return self.events[-1][0]

    def toggles_since(self, cycle: int) -> int:
        """Count feed toggles at or after ``cycle``."""
        return sum(1 for event_cycle, _level in self.events if event_cycle >= cycle)

    def clear(self) -> None:
        self.events.clear()
        self.boot_pulses.clear()
        self._last_level = None
        self._last_boot_level = False
