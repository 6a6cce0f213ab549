"""Instruction model for the supported AVR ISA subset.

The subset covers everything the synthetic autopilot firmware, the ROP
gadgets from the paper (``out``/``pop``/``ret``/``std``), and the MAVR
patcher need: full data movement, ALU, control flow (including the 32-bit
``jmp``/``call`` forms that randomization patching rewrites), bit and I/O
operations.

Operand conventions (fields of :class:`Instruction`):

* ``rd`` — destination register index (0..31)
* ``rr`` — source register index (0..31)
* ``k``  — immediate / address / branch displacement (meaning per mnemonic)
* ``q``  — 6-bit displacement for ``ldd``/``std``
* ``a``  — I/O address for ``in``/``out``/``sbi``/``cbi``/``sbic``/``sbis``
* ``b``  — bit index (0..7) for bit instructions and ``brbs``/``brbc``

Branch/relative-jump displacements (``k``) are stored in *words* relative to
the next instruction, as in the architecture manual.  ``jmp``/``call``/
``lds``/``sts`` store absolute targets: word addresses for jumps, data-space
byte addresses for loads/stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Optional


@unique
class Mnemonic(Enum):
    """Every instruction the simulator can decode and execute."""

    # no-operation / misc
    NOP = "nop"
    WDR = "wdr"
    SLEEP = "sleep"
    BREAK = "break"

    # register moves
    MOV = "mov"
    MOVW = "movw"
    LDI = "ldi"

    # multiply (result in r1:r0)
    MUL = "mul"
    MULS = "muls"
    MULSU = "mulsu"

    # arithmetic / logic (register-register)
    ADD = "add"
    ADC = "adc"
    SUB = "sub"
    SBC = "sbc"
    AND = "and"
    OR = "or"
    EOR = "eor"

    # arithmetic / logic (immediate)
    SUBI = "subi"
    SBCI = "sbci"
    ANDI = "andi"
    ORI = "ori"

    # single-register ops
    COM = "com"
    NEG = "neg"
    INC = "inc"
    DEC = "dec"
    SWAP = "swap"
    LSR = "lsr"
    ASR = "asr"
    ROR = "ror"

    # word immediate arithmetic on pairs r24/r26/r28/r30
    ADIW = "adiw"
    SBIW = "sbiw"

    # compares
    CP = "cp"
    CPC = "cpc"
    CPI = "cpi"
    CPSE = "cpse"

    # conditional branches (b = SREG bit, k = word displacement)
    BRBS = "brbs"
    BRBC = "brbc"

    # unconditional control flow
    RJMP = "rjmp"
    RCALL = "rcall"
    JMP = "jmp"
    CALL = "call"
    IJMP = "ijmp"
    ICALL = "icall"
    RET = "ret"
    RETI = "reti"

    # stack
    PUSH = "push"
    POP = "pop"

    # I/O
    IN = "in"
    OUT = "out"
    SBI = "sbi"
    CBI = "cbi"
    SBIC = "sbic"
    SBIS = "sbis"

    # data space loads/stores
    LDS = "lds"
    STS = "sts"
    LD_X = "ld_x"
    LD_X_INC = "ld_x+"
    LD_X_DEC = "ld_-x"
    LD_Y_INC = "ld_y+"
    LD_Y_DEC = "ld_-y"
    LD_Z_INC = "ld_z+"
    LD_Z_DEC = "ld_-z"
    LDD_Y = "ldd_y"
    LDD_Z = "ldd_z"
    ST_X = "st_x"
    ST_X_INC = "st_x+"
    ST_X_DEC = "st_-x"
    ST_Y_INC = "st_y+"
    ST_Y_DEC = "st_-y"
    ST_Z_INC = "st_z+"
    ST_Z_DEC = "st_-z"
    STD_Y = "std_y"
    STD_Z = "std_z"

    # program memory load
    LPM_R0 = "lpm_r0"
    LPM = "lpm"
    LPM_INC = "lpm_z+"

    # SREG bit set/clear (b = bit index); sei/cli are aliases
    BSET = "bset"
    BCLR = "bclr"

    # register bit transfer / skip
    BST = "bst"
    BLD = "bld"
    SBRC = "sbrc"
    SBRS = "sbrs"


# Mnemonics whose encodings occupy two 16-bit words.
TWO_WORD = frozenset({Mnemonic.JMP, Mnemonic.CALL, Mnemonic.LDS, Mnemonic.STS})

# Control-transfer instructions a gadget scan must treat as chain breakers.
CONTROL_FLOW = frozenset(
    {
        Mnemonic.RJMP,
        Mnemonic.RCALL,
        Mnemonic.JMP,
        Mnemonic.CALL,
        Mnemonic.IJMP,
        Mnemonic.ICALL,
        Mnemonic.RET,
        Mnemonic.RETI,
        Mnemonic.BRBS,
        Mnemonic.BRBC,
        Mnemonic.CPSE,
        Mnemonic.SBIC,
        Mnemonic.SBIS,
        Mnemonic.SBRC,
        Mnemonic.SBRS,
    }
)

# Pointer loads/stores -> (pointer register, pre-decrement,
# post-increment, uses the ``q`` displacement).
POINTER_MODES = {
    Mnemonic.LD_X: (26, False, False, False),
    Mnemonic.LD_X_INC: (26, False, True, False),
    Mnemonic.LD_X_DEC: (26, True, False, False),
    Mnemonic.LD_Y_INC: (28, False, True, False),
    Mnemonic.LD_Y_DEC: (28, True, False, False),
    Mnemonic.LD_Z_INC: (30, False, True, False),
    Mnemonic.LD_Z_DEC: (30, True, False, False),
    Mnemonic.LDD_Y: (28, False, False, True),
    Mnemonic.LDD_Z: (30, False, False, True),
    Mnemonic.ST_X: (26, False, False, False),
    Mnemonic.ST_X_INC: (26, False, True, False),
    Mnemonic.ST_X_DEC: (26, True, False, False),
    Mnemonic.ST_Y_INC: (28, False, True, False),
    Mnemonic.ST_Y_DEC: (28, True, False, False),
    Mnemonic.ST_Z_INC: (30, False, True, False),
    Mnemonic.ST_Z_DEC: (30, True, False, False),
    Mnemonic.STD_Y: (28, False, False, True),
    Mnemonic.STD_Z: (30, False, False, True),
}


@dataclass(frozen=True)
class Instruction:
    """One decoded (or to-be-encoded) AVR instruction."""

    mnemonic: Mnemonic
    rd: Optional[int] = None
    rr: Optional[int] = None
    k: Optional[int] = None
    q: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None

    @property
    def size_words(self) -> int:
        """Encoded size in 16-bit words (1 or 2)."""
        return 2 if self.mnemonic in TWO_WORD else 1

    @property
    def size_bytes(self) -> int:
        return self.size_words * 2

    def __str__(self) -> str:
        parts = [self.mnemonic.value]
        for name in ("rd", "rr", "k", "q", "a", "b"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return " ".join(parts)


def signed(value: int, bits: int) -> int:
    """Interpret ``value`` as a two's-complement signed integer of ``bits``."""
    mask = (1 << bits) - 1
    value &= mask
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


def unsigned(value: int, bits: int) -> int:
    """Mask ``value`` into an unsigned field of ``bits`` width."""
    return value & ((1 << bits) - 1)
