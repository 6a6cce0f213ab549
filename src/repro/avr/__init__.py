"""AVR 8-bit core simulator (ATmega2560 model).

Public surface:

* :class:`AvrCpu` — the core with Harvard memories and cycle accounting.
* :class:`FlashMemory`, :class:`DataSpace`, :class:`Eeprom` — the three
  memories of paper Fig. 1.
* :class:`Instruction` / :class:`Mnemonic` plus :func:`encode` /
  :func:`decode` — the supported ISA subset.
* :class:`Usart`, :class:`FeedLine` — peripherals used by the firmware.
* The execution engines (the tiered ``compiled`` engine, default, and
  the ``interpreter`` reference) with the lockstep differential helpers
  :func:`run_lockstep` / :class:`CpuStateStream`.
"""

from .cpu import AvrCpu, RETURN_ADDRESS_BYTES
from .decoder import decode, decode_at, disassemble_range, iter_instructions
from .devices import EepromController, FeedLine, Usart
from .encoder import encode, encode_bytes, encode_stream
from .engine import DEFAULT_ENGINE, ENGINES, InterpreterEngine

# imported after .engine: CompiledEngine registers itself at the bottom of
# engine.py, so .engine must finish executing before .compiled is entered
from .compiled import CompiledEngine
from .insn import CONTROL_FLOW, TWO_WORD, Instruction, Mnemonic
from .memory import (
    DATA_SPACE_SIZE,
    EEPROM_SIZE,
    FLASH_SIZE,
    RAMEND,
    SRAM_BASE,
    SRAM_SIZE,
    DataSpace,
    Eeprom,
    FlashMemory,
)
from .profile import AvrProfiler, PROFILE_MODES, table_for_symbols
from .sreg import StatusRegister
from .trace import (
    CpuStateStream,
    ExecutionTrace,
    FlightRecorder,
    StackSnapshot,
    diff_state_streams,
    run_lockstep,
    snapshot_stack,
)

__all__ = [
    "AvrCpu",
    "RETURN_ADDRESS_BYTES",
    "DEFAULT_ENGINE",
    "ENGINES",
    "InterpreterEngine",
    "CompiledEngine",
    "CpuStateStream",
    "diff_state_streams",
    "run_lockstep",
    "decode",
    "decode_at",
    "disassemble_range",
    "iter_instructions",
    "EepromController",
    "FeedLine",
    "Usart",
    "encode",
    "encode_bytes",
    "encode_stream",
    "CONTROL_FLOW",
    "TWO_WORD",
    "Instruction",
    "Mnemonic",
    "DATA_SPACE_SIZE",
    "EEPROM_SIZE",
    "FLASH_SIZE",
    "RAMEND",
    "SRAM_BASE",
    "SRAM_SIZE",
    "DataSpace",
    "Eeprom",
    "FlashMemory",
    "StatusRegister",
    "ExecutionTrace",
    "StackSnapshot",
    "snapshot_stack",
    "AvrProfiler",
    "PROFILE_MODES",
    "table_for_symbols",
    "FlightRecorder",
]
