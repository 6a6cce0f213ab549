"""The AVR core: fetch / decode / execute with cycle accounting.

Models the ATmega2560 as the paper uses it:

* PC is a 17-bit-capable *word* address into 256 KB of flash.
* ``call``/``rcall``/``icall`` push a **3-byte** return address (the 2560's
  PC exceeds 16 bits); ``ret`` pops three bytes.  Return addresses sit
  big-endian in memory (high byte at the lowest address), which is the
  layout attack payloads must reproduce.
* SP lives in I/O registers 0x3D/0x3E, so the ``stk_move`` gadget's
  ``out 0x3e, r29`` / ``out 0x3d, r28`` sequence literally moves the stack.
* Executing an undecodable word, or walking out of the programmed image,
  raises :class:`IllegalExecutionError` — the "executing garbage" failure
  the MAVR watchdog detects.

Instruction semantics live in the dispatch table of
:mod:`repro.avr.engine` (one handler per mnemonic).  The core runs on one
of two interchangeable engines: the tiered ``compiled`` engine (default;
decode cache keyed on the flash generation counter, cold block heads
retired per instruction, hot ones through exec-generated block bodies —
:mod:`repro.avr.compiled`) or the ``interpreter`` reference engine
(decode at PC every step).  Both retire instructions through an
identical sequence — see docs/PERFORMANCE.md and the lockstep harness in
:mod:`repro.avr.trace`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import CpuFault, DecodeError, IllegalExecutionError, MemoryAccessError
from .decoder import decode, needs_second_word
from .engine import DEFAULT_ENGINE, Halt, create_engine, retire_preamble
from .insn import POINTER_MODES, Instruction
from .iospace import SPH_DATA, SPL_DATA
from .memory import RAMEND, DataSpace, Eeprom, FlashMemory
from .sreg import StatusRegister

RETURN_ADDRESS_BYTES = 3


class AvrCpu:
    """Single simulated AVR core with Harvard memories."""

    def __init__(
        self,
        flash: Optional[FlashMemory] = None,
        clock_hz: int = 16_000_000,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.flash = flash if flash is not None else FlashMemory()
        self.sreg = StatusRegister()
        self.data = DataSpace(self.sreg)
        self.eeprom = Eeprom()
        self.pc = 0  # word address
        self.cycles = 0
        self.instructions_retired = 0
        # Telemetry accumulators: ``reset()`` zeroes the per-boot counters,
        # so work done before a reboot is banked here first (the snapshot
        # collectors report lifetime = banked + current).
        self.instructions_lifetime = 0
        self.cycles_lifetime = 0
        self.clock_hz = clock_hz
        self.halted = False
        # Pending interrupt vector numbers (lowest number = highest
        # priority, as on AVR).  Serviced between instructions when the
        # global I flag is set.
        self.pending_interrupts: List[int] = []
        self.interrupts_serviced = 0
        # Callbacks fired on every retired instruction (tracing hooks).
        self.trace_hooks: List[Callable[["AvrCpu", int, Instruction], None]] = []
        # Limit of the programmed image in bytes; executing beyond it is a
        # crash even if erased flash (0xFFFF) happened to decode.
        self.code_limit: Optional[int] = None
        self.engine = create_engine(engine, self)

    @property
    def engine_name(self) -> str:
        return self.engine.name

    # -- setup -----------------------------------------------------------

    def reset(self) -> None:
        """Power-on reset: PC to vector 0, SP to RAMEND, flags cleared."""
        self.instructions_lifetime += self.instructions_retired
        self.cycles_lifetime += self.cycles
        self.pc = 0
        self.cycles = 0
        self.instructions_retired = 0
        self.sreg.byte = 0
        self.data.sp = RAMEND
        self.halted = False

    def load_program(self, image: bytes, offset: int = 0) -> None:
        """Program flash and mark the executable image extent."""
        self.flash.load(image, offset)
        self.code_limit = offset + len(image)

    @property
    def pc_bytes(self) -> int:
        """Current PC as a byte address (as shown in listings)."""
        return self.pc * 2

    @property
    def elapsed_seconds(self) -> float:
        return self.cycles / self.clock_hz

    # -- stack helpers ---------------------------------------------------
    #
    # SP lives in SPL/SPH of the data space; these helpers touch those two
    # bytes directly instead of through the ``DataSpace.sp`` property (a
    # call and a return are three pushes/pops each, on every engine's
    # hottest path).  The order is the architectural one, byte for byte:
    # a push stores through ``DataSpace.write`` (hooks, faults) *then*
    # moves SP; a pop moves SP, then reads.

    def push_byte(self, value: int) -> None:
        data = self.data
        raw = data._bytes
        sp = raw[SPL_DATA] | (raw[SPH_DATA] << 8)
        data.write(sp, value)
        sp = (sp - 1) & 0xFFFF
        raw[SPL_DATA] = sp & 0xFF
        raw[SPH_DATA] = sp >> 8

    def pop_byte(self) -> int:
        data = self.data
        raw = data._bytes
        sp = ((raw[SPL_DATA] | (raw[SPH_DATA] << 8)) + 1) & 0xFFFF
        raw[SPL_DATA] = sp & 0xFF
        raw[SPH_DATA] = sp >> 8
        return data.read(sp)

    def push_return_address(self, word_address: int) -> None:
        """Push a 3-byte return address (low byte first, high ends lowest).

        Three :meth:`push_byte` steps, unrolled: a store's write hook runs
        before SP moves, and the SP write after it is what the next step
        reads back, so only the local copy is carried between steps.
        """
        data = self.data
        raw = data._bytes
        write = data.write
        sp = raw[SPL_DATA] | (raw[SPH_DATA] << 8)
        write(sp, word_address & 0xFF)
        sp = (sp - 1) & 0xFFFF
        raw[SPL_DATA] = sp & 0xFF
        raw[SPH_DATA] = sp >> 8
        write(sp, (word_address >> 8) & 0xFF)
        sp = (sp - 1) & 0xFFFF
        raw[SPL_DATA] = sp & 0xFF
        raw[SPH_DATA] = sp >> 8
        write(sp, (word_address >> 16) & 0xFF)
        sp = (sp - 1) & 0xFFFF
        raw[SPL_DATA] = sp & 0xFF
        raw[SPH_DATA] = sp >> 8

    def pop_return_address(self) -> int:
        """Pop a 3-byte return address: three :meth:`pop_byte` steps,
        unrolled.  SP is re-read before each step because a read hook runs
        after SP moved and could move it again."""
        data = self.data
        raw = data._bytes
        read = data.read
        sp = ((raw[SPL_DATA] | (raw[SPH_DATA] << 8)) + 1) & 0xFFFF
        raw[SPL_DATA] = sp & 0xFF
        raw[SPH_DATA] = sp >> 8
        high = read(sp)
        sp = ((raw[SPL_DATA] | (raw[SPH_DATA] << 8)) + 1) & 0xFFFF
        raw[SPL_DATA] = sp & 0xFF
        raw[SPH_DATA] = sp >> 8
        mid = read(sp)
        sp = ((raw[SPL_DATA] | (raw[SPH_DATA] << 8)) + 1) & 0xFFFF
        raw[SPL_DATA] = sp & 0xFF
        raw[SPH_DATA] = sp >> 8
        low = read(sp)
        return (high << 16) | (mid << 8) | low

    # -- execution -------------------------------------------------------

    def fetch(self) -> Instruction:
        """Fetch and decode at PC without executing (always uncached)."""
        byte_addr = self.pc * 2
        if self.code_limit is not None and byte_addr >= self.code_limit:
            raise IllegalExecutionError(
                f"PC 0x{byte_addr:05x} is beyond the programmed image "
                f"(limit 0x{self.code_limit:05x})"
            )
        try:
            word = self.flash.read_word(self.pc)
        except MemoryAccessError as exc:
            raise IllegalExecutionError(str(exc)) from exc
        next_word = None
        if needs_second_word(word):
            try:
                next_word = self.flash.read_word(self.pc + 1)
            except MemoryAccessError as exc:
                raise IllegalExecutionError(str(exc)) from exc
        try:
            return decode(word, next_word, byte_addr)
        except DecodeError as exc:
            raise IllegalExecutionError(
                f"undecodable opcode 0x{word:04x} at 0x{byte_addr:05x}"
            ) from exc

    def request_interrupt(self, vector: int) -> None:
        """Latch an interrupt request for ``vector`` (0-based table slot)."""
        if vector < 0:
            raise CpuFault("negative interrupt vector", self.pc_bytes, self.cycles)
        if vector not in self.pending_interrupts:
            self.pending_interrupts.append(vector)

    def _service_interrupt(self) -> None:
        """Dispatch the highest-priority pending interrupt (datasheet
        behaviour: push PC, clear I, jump to the vector slot)."""
        vector = min(self.pending_interrupts)
        self.pending_interrupts.remove(vector)
        self.push_return_address(self.pc)
        self.sreg.i = False
        self.pc = vector * 2  # each vector slot is one 2-word jmp
        self.cycles += 5
        self.interrupts_serviced += 1

    def step(self) -> Instruction:
        """Execute exactly one instruction; returns it."""
        if self.halted:
            raise CpuFault("core is halted", self.pc_bytes, self.cycles)
        retire_preamble(self)
        handler, insn, size_words, base_cycles = self.engine.fetch_entry(self)
        pc_before = self.pc
        self.pc += size_words
        try:
            handler(self, insn)
        except Halt:
            self.halted = True
        except MemoryAccessError as exc:
            raise CpuFault(str(exc), pc_before * 2, self.cycles) from exc
        self.cycles += base_cycles
        self.instructions_retired += 1
        for hook in self.trace_hooks:
            hook(self, pc_before * 2, insn)
        return insn

    def run(self, max_instructions: int = 1_000_000) -> int:
        """Run until ``break``, halt, or the instruction budget is spent.

        Returns the number of instructions retired in this call.  Crash
        conditions propagate as :class:`IllegalExecutionError`/
        :class:`CpuFault` for the watchdog layer to interpret.  The work
        happens in the active engine's ``run`` loop; behaviour is
        engine-independent by construction (and by the lockstep tests).
        """
        return self.engine.run(max_instructions)

    # -- handler helpers (shared instruction semantics) -------------------

    def _multiply(self, a: int, b: int, signed_d: bool, signed_r: bool) -> None:
        """MUL family: 16-bit product into r1:r0; C = bit 15, Z on zero."""
        if signed_d and a & 0x80:
            a -= 0x100
        if signed_r and b & 0x80:
            b -= 0x100
        product = (a * b) & 0xFFFF
        self.data.write_reg(0, product & 0xFF)
        self.data.write_reg(1, (product >> 8) & 0xFF)
        self.sreg.c = bool(product & 0x8000)
        self.sreg.z = product == 0

    def _skip_next(self) -> None:
        """Skip the following instruction (1 or 2 words)."""
        word = self.flash.read_word(self.pc)
        self.pc += 2 if needs_second_word(word) else 1
        self.cycles += 1

    def _load_store(self, insn: Instruction, load: bool) -> None:
        d = self.data
        m = insn.mnemonic
        pointer_reg, pre_dec, post_inc, disp = POINTER_MODES[m]
        address = d.read_reg_pair(pointer_reg)
        if pre_dec:
            address = (address - 1) & 0xFFFF
            d.write_reg_pair(pointer_reg, address)
        target = (address + (insn.q or 0) if disp else address) & 0xFFFF
        if load:
            d.write_reg(insn.rd, d.read(target))
        else:
            d.write(target, d.read_reg(insn.rr))
        if post_inc:
            d.write_reg_pair(pointer_reg, (address + 1) & 0xFFFF)

