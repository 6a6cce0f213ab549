"""Memories of the simulated ATmega2560 (paper Fig. 1).

Three physically separate memories, per the Harvard architecture:

* **flash** — 256 KB of program memory, addressed as 128 K two-byte words.
  The only memory instructions execute from.
* **data space** — one linear byte space containing the 32 general registers
  (0x0000..0x001F), the 64 core I/O registers (0x0020..0x005F), extended I/O
  (0x0060..0x01FF) and 8 KB of SRAM (0x0200..0x21FF).  The stack, globals and
  heap live here; nothing here is executable.
* **EEPROM** — 4 KB persistent configuration storage outside both spaces.

The single linear data space with memory-mapped registers is what makes the
paper's attack work: gadgets change the stack pointer by storing to data
addresses 0x5D/0x5E, and overwrite "registers" with plain stores.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from ..errors import MemoryAccessError
from .iospace import IO_TO_DATA_OFFSET, SREG_DATA
from .sreg import StatusRegister

FLASH_SIZE = 256 * 1024  # bytes
FLASH_WORDS = FLASH_SIZE // 2

REGISTER_FILE_BASE = 0x0000
REGISTER_FILE_SIZE = 32
IO_BASE = 0x0020
EXT_IO_BASE = 0x0060
SRAM_BASE = 0x0200
SRAM_SIZE = 8 * 1024
RAMEND = SRAM_BASE + SRAM_SIZE - 1  # 0x21FF
DATA_SPACE_SIZE = RAMEND + 1

EEPROM_SIZE = 4 * 1024

# Callback signature for I/O hooks: (data_address, value_or_None) -> int|None.
ReadHook = Callable[[int], int]
WriteHook = Callable[[int, int], None]


class FlashMemory:
    """Program memory: byte-addressed storage executed as 16-bit words.

    Every mutation path (bulk :meth:`load`, :meth:`erase`, bootloader
    :meth:`write_page`) bumps :attr:`generation`.  The compiled execution
    engine keys its decode cache on this counter, so any reprogramming —
    ISP streaming, a MAVR re-randomization reflash, a self-write — makes
    previously cached decodes unreachable.  Nothing else may mutate
    ``_bytes``; new write paths must go through these methods (or call
    :meth:`invalidate` themselves) to preserve the invariant.
    """

    def __init__(self, size: int = FLASH_SIZE) -> None:
        self.size = size
        self._bytes = bytearray(b"\xff" * size)  # erased flash reads 0xFF
        self.generation = 0

    def invalidate(self) -> None:
        """Mark the contents as changed (decode caches must be dropped)."""
        self.generation += 1

    def load(self, image: bytes, offset: int = 0) -> None:
        """Program ``image`` starting at byte ``offset``."""
        if offset < 0 or offset + len(image) > self.size:
            raise MemoryAccessError(
                f"flash image of {len(image)} bytes does not fit at offset {offset}"
            )
        self._bytes[offset : offset + len(image)] = image
        self.invalidate()

    def erase(self) -> None:
        """Return the whole array to the erased state."""
        self._bytes[:] = b"\xff" * self.size
        self.invalidate()

    def erase_page(self, address: int, length: int) -> None:
        """Page-granular erase (bootloader SPM page-erase semantics).

        The differential reflash path erases only the pages it is about
        to rewrite, leaving the rest of the array — and its wear —
        untouched.
        """
        if address < 0 or length < 0 or address + length > self.size:
            raise MemoryAccessError(
                f"page erase out of range: 0x{address:06x}+{length}"
            )
        self._bytes[address : address + length] = b"\xff" * length
        self.invalidate()

    def read_byte(self, address: int) -> int:
        if not 0 <= address < self.size:
            raise MemoryAccessError(f"flash byte read out of range: 0x{address:06x}")
        return self._bytes[address]

    def read_word(self, word_address: int) -> int:
        """Fetch the little-endian 16-bit word at ``word_address``."""
        byte_addr = word_address * 2
        if not 0 <= byte_addr + 1 < self.size:
            raise MemoryAccessError(
                f"flash word read out of range: word 0x{word_address:05x}"
            )
        return self._bytes[byte_addr] | (self._bytes[byte_addr + 1] << 8)

    def write_page(self, address: int, data: bytes) -> None:
        """Bootloader-style page write (no erase modelling beyond overwrite).

        ``data`` may be any run of whole pages (the last possibly partial,
        at the end of an image): the ISP writes each run of changed pages,
        or a whole image, in one call, bumping :attr:`generation` once.
        """
        self.load(data, address)

    def write_word(self, word_address: int, value: int) -> None:
        """SPM-style single-word self-write (little-endian)."""
        byte_addr = word_address * 2
        if not 0 <= byte_addr + 1 < self.size:
            raise MemoryAccessError(
                f"flash word write out of range: word 0x{word_address:05x}"
            )
        self._bytes[byte_addr] = value & 0xFF
        self._bytes[byte_addr + 1] = (value >> 8) & 0xFF
        self.invalidate()

    def dump(self, start: int = 0, length: Optional[int] = None) -> bytes:
        if length is None:
            length = self.size - start
        return bytes(self._bytes[start : start + length])


class Eeprom:
    """Persistent configuration memory, byte addressed, outside data space."""

    def __init__(self, size: int = EEPROM_SIZE) -> None:
        self.size = size
        self._bytes = bytearray(b"\xff" * size)

    def read(self, address: int) -> int:
        if not 0 <= address < self.size:
            raise MemoryAccessError(f"EEPROM read out of range: 0x{address:04x}")
        return self._bytes[address]

    def write(self, address: int, value: int) -> None:
        if not 0 <= address < self.size:
            raise MemoryAccessError(f"EEPROM write out of range: 0x{address:04x}")
        self._bytes[address] = value & 0xFF


class DataSpace:
    """The single linear data space, registers and I/O included.

    The 32 general registers live at the bottom of this space, so register
    reads/writes and memory loads/stores view the same bytes — the property
    the paper's ``write_mem_gadget`` relies on.  SREG (data address 0x5F) is
    backed by a :class:`StatusRegister` so flag semantics stay exact.

    Peripheral registers take one of three forms:

    * a **hook** (:meth:`add_read_hook`, :meth:`add_write_hook`): a Python
      call on every access, for registers whose access has a side effect
      that reads the core (cycle stamps, interrupt requests) or changes
      device state (a data-register read pops the receive queue);
    * a **mirror** (:meth:`add_mirror`): a plain byte that its device
      keeps current through :meth:`set_mirror` whenever its state
      changes.  A read is a plain byte read, with no call, so a compiled
      body's load guard passes and the body runs on.  A store leaves the
      device's byte in place: the mirror's write hook returns it, so the
      firmware and an attacker read back the device's value.  A raw
      :meth:`write_block` re-syncs every mirrored byte it covers, so a
      restored checkpoint (CToMP) reads live device values;
    * a **sink** (:meth:`add_sink`): a write-hook entry that is the
      device's list itself.  A store appends its byte to the list and
      leaves it in the data space.  A sink is data only: it never reads
      the cycle counters and never requests an interrupt, so a compiled
      body that stores to one need not leave.  Only the hooked path tests
      for it, so an unhooked store pays nothing for it.
    """

    def __init__(self, sreg: StatusRegister) -> None:
        self._bytes = bytearray(DATA_SPACE_SIZE)
        self.sreg = sreg
        self._read_hooks: Dict[int, ReadHook] = {}
        self._write_hooks: Dict[int, Union[WriteHook, List[int]]] = {}
        # mirrored address -> the byte its device keeps there
        self._mirrors: Dict[int, int] = {}

    # -- hooks ---------------------------------------------------------

    def add_read_hook(self, data_address: int, hook: ReadHook) -> None:
        """Route reads of ``data_address`` through ``hook`` (peripherals)."""
        self._read_hooks[data_address] = hook

    def add_write_hook(self, data_address: int, hook: WriteHook) -> None:
        """Observe/override writes to ``data_address`` (peripherals).

        A hook returning ``None`` observes only; returning an int replaces
        the stored byte (how self-clearing strobe bits are modelled).
        """
        self._write_hooks[data_address] = hook

    def add_mirror(self, data_address: int, data: bytes) -> None:
        """Make the ``len(data)`` bytes from ``data_address`` on mirrors
        holding ``data`` (see the class).

        A mirror's write hook is the mirror table's ``get``: called with
        ``(address, stored byte)`` it returns the device's byte, which
        replaces the stored one.
        """
        for address in range(data_address, data_address + len(data)):
            self._write_hooks[address] = self._mirrors.get
        self.set_mirror(data_address, data)

    def set_mirror(self, data_address: int, data: bytes) -> None:
        """The device's side: the mirrors from ``data_address`` on now
        read ``data``."""
        end = data_address + len(data)
        self._bytes[data_address:end] = data
        self._mirrors.update(zip(range(data_address, end), data))

    def add_sink(self, data_address: int, sink: List[int]) -> None:
        """Append every byte stored to ``data_address`` to ``sink`` (see
        the class); the byte also stays in the data space."""
        self._write_hooks[data_address] = sink

    # -- registers -----------------------------------------------------

    def read_reg(self, index: int) -> int:
        """Read general register r0..r31 (memory mapped)."""
        if not 0 <= index < REGISTER_FILE_SIZE:
            raise MemoryAccessError(f"register index out of range: {index}")
        return self._bytes[index]

    def write_reg(self, index: int, value: int) -> None:
        if not 0 <= index < REGISTER_FILE_SIZE:
            raise MemoryAccessError(f"register index out of range: {index}")
        self._bytes[index] = value & 0xFF

    def read_reg_pair(self, low_index: int) -> int:
        """Read a 16-bit register pair (e.g. 28 for Y, 30 for Z)."""
        return self.read_reg(low_index) | (self.read_reg(low_index + 1) << 8)

    def write_reg_pair(self, low_index: int, value: int) -> None:
        self.write_reg(low_index, value & 0xFF)
        self.write_reg(low_index + 1, (value >> 8) & 0xFF)

    # -- raw byte access (loads/stores, stack) ---------------------------

    def read(self, address: int) -> int:
        if not 0 <= address < DATA_SPACE_SIZE:
            raise MemoryAccessError(f"data read out of range: 0x{address:05x}")
        if address == SREG_DATA:
            return self.sreg.byte
        if address in self._read_hooks:
            return self._read_hooks[address](address) & 0xFF
        return self._bytes[address]

    def write(self, address: int, value: int) -> None:
        if not 0 <= address < DATA_SPACE_SIZE:
            raise MemoryAccessError(f"data write out of range: 0x{address:05x}")
        value &= 0xFF
        if address == SREG_DATA:
            self.sreg.byte = value
            return
        if address in self._write_hooks:
            hook = self._write_hooks[address]
            if hook.__class__ is list:  # a sink
                hook.append(value)
            else:
                override = hook(address, value)
                if override is not None:
                    value = override & 0xFF
        self._bytes[address] = value

    def read_io(self, io_address: int) -> int:
        """``in`` semantics: read I/O register by I/O address."""
        return self.read(io_address + IO_TO_DATA_OFFSET)

    def write_io(self, io_address: int, value: int) -> None:
        """``out`` semantics: write I/O register by I/O address."""
        self.write(io_address + IO_TO_DATA_OFFSET, value)

    # -- stack pointer ---------------------------------------------------

    @property
    def sp(self) -> int:
        """16-bit stack pointer held in SPL/SPH (data 0x5D/0x5E)."""
        return self._bytes[0x5D] | (self._bytes[0x5E] << 8)

    @sp.setter
    def sp(self, value: int) -> None:
        self._bytes[0x5D] = value & 0xFF
        self._bytes[0x5E] = (value >> 8) & 0xFF

    # -- convenience -----------------------------------------------------

    def read_block(self, address: int, length: int) -> bytes:
        """Read ``length`` raw bytes (no hooks), for inspection/snapshots."""
        if address < 0 or address + length > DATA_SPACE_SIZE:
            raise MemoryAccessError(
                f"block read out of range: 0x{address:05x}+{length}"
            )
        return bytes(self._bytes[address : address + length])

    def write_block(self, address: int, data: bytes) -> None:
        """Write raw bytes (no hooks): test setup, debugger pokes and
        checkpoint restores.  Mirrored bytes in the range keep their
        device's value, as a store would leave them."""
        end = address + len(data)
        if address < 0 or end > DATA_SPACE_SIZE:
            raise MemoryAccessError(
                f"block write out of range: 0x{address:05x}+{len(data)}"
            )
        raw = self._bytes
        raw[address:end] = data
        for mirrored, value in self._mirrors.items():
            if address <= mirrored < end:
                raw[mirrored] = value
