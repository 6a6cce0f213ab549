"""Execution engines: how the core turns flash words into state changes.

Two engines share one set of instruction semantics (the dispatch table
``HANDLERS``, one handler per :class:`~repro.avr.insn.Mnemonic`):

* :class:`InterpreterEngine` — the reference engine: decode the word at PC
  on **every** step, dispatch, account cycles.  Slow but has no cached
  state at all, which makes it the ground truth for differential testing.
* :class:`~repro.avr.compiled.CompiledEngine` — the fast engine (the
  default): each flash word is decoded once per flash generation, block
  heads retire per instruction while cold and through ``exec``-generated
  superblock bodies once hot (see :mod:`repro.avr.compiled` for the tiers
  and :mod:`repro.avr.blocks` for the fusion rules).

Both retire instructions through exactly the same sequence as
:meth:`AvrCpu.step`: pending-interrupt service, code-limit check, execute,
cycle accounting, trace hooks.  The shared prefix of that sequence lives
in :func:`retire_preamble` so the contract exists in one place; the
differential harness in :mod:`repro.avr.trace` exists to keep the claim
honest.

Correctness invariant (see docs/PERFORMANCE.md): a cached decode is only
valid for the flash generation it was decoded from.
:class:`~repro.avr.memory.FlashMemory` bumps its ``generation`` counter on
every write path (ISP programming, MAVR reflash, SPM-style self-writes),
and the fast engine compares generations before every block head, so a
re-randomized image can never execute stale decodes.

Cache entries are indexed by word address and each is decoded
independently starting at that address.  This preserves the interpreter's
behaviour for *misaligned* execution — jumping into the second word of a
``call`` re-decodes that word as its own instruction, exactly the
property the ROP gadget finder exploits.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Dict, Tuple

from ..errors import IllegalExecutionError
from . import alu
from .insn import Instruction, Mnemonic
from .iospace import SREG_IO

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cpu import AvrCpu

Handler = Callable[["AvrCpu", Instruction], None]
# (handler, decoded instruction, size in words, base cycle cost)
Entry = Tuple[Handler, Instruction, int, int]


class Halt(Exception):
    """Raised internally when the core executes ``break`` (clean stop)."""


# -- shared retire preamble ----------------------------------------------


def _out_of_image_error(byte_addr: int, limit: int) -> IllegalExecutionError:
    return IllegalExecutionError(
        f"PC 0x{byte_addr:05x} is beyond the programmed image "
        f"(limit 0x{limit:05x})"
    )


def retire_preamble(cpu: "AvrCpu") -> int:
    """The common prefix of every retire: service interrupts, check limit.

    Returns the (possibly interrupt-redirected) PC to fetch from.  This is
    the single definition of the preamble shared by :meth:`AvrCpu.step`
    and every engine ``run()`` loop — the interpreter pays it once per
    instruction, the fast engine once per block head.
    """
    if cpu.pending_interrupts and cpu.sreg.i:
        cpu._service_interrupt()
    pc = cpu.pc
    limit = cpu.code_limit
    if limit is not None and pc * 2 >= limit:
        raise _out_of_image_error(pc * 2, limit)
    return pc


# -- cycle model ---------------------------------------------------------

# Approximate cycle costs (datasheet values for the common cases).
_CYCLES = {
    Mnemonic.RJMP: 2,
    Mnemonic.RCALL: 4,
    Mnemonic.JMP: 3,
    Mnemonic.CALL: 5,
    Mnemonic.IJMP: 2,
    Mnemonic.ICALL: 4,
    Mnemonic.RET: 5,
    Mnemonic.RETI: 5,
    Mnemonic.PUSH: 2,
    Mnemonic.POP: 2,
    Mnemonic.LDS: 2,
    Mnemonic.STS: 2,
    Mnemonic.ADIW: 2,
    Mnemonic.SBIW: 2,
    Mnemonic.MOVW: 1,
    Mnemonic.LPM_R0: 3,
    Mnemonic.LPM: 3,
    Mnemonic.LPM_INC: 3,
    Mnemonic.MUL: 2,
    Mnemonic.MULS: 2,
    Mnemonic.MULSU: 2,
}
_LOAD_STORE_CYCLES = 2


def _base_cycles(mnemonic: Mnemonic) -> int:
    cost = _CYCLES.get(mnemonic)
    if cost is not None:
        return cost
    if mnemonic.value.startswith(("ld", "st")):
        return _LOAD_STORE_CYCLES
    return 1


# Fully materialized mnemonic -> base cycle cost (taken branches and skips
# add their extra cycle inside the handler, as the hardware does).
CYCLES_BY_MNEMONIC: Dict[Mnemonic, int] = {m: _base_cycles(m) for m in Mnemonic}


# -- instruction semantics (one handler per mnemonic) --------------------


def _nop(cpu: "AvrCpu", insn: Instruction) -> None:
    return None


def _break(cpu: "AvrCpu", insn: Instruction) -> None:
    raise Halt()


def _mul(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    cpu._multiply(d.read_reg(insn.rd), d.read_reg(insn.rr),
                  signed_d=False, signed_r=False)


def _muls(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    cpu._multiply(d.read_reg(insn.rd), d.read_reg(insn.rr),
                  signed_d=True, signed_r=True)


def _mulsu(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    cpu._multiply(d.read_reg(insn.rd), d.read_reg(insn.rr),
                  signed_d=True, signed_r=False)


def _mov(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, d.read_reg(insn.rr))


def _movw(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg_pair(insn.rd, d.read_reg_pair(insn.rr))


def _ldi(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.data.write_reg(insn.rd, insn.k)


def _add(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.add(cpu.sreg, d.read_reg(insn.rd), d.read_reg(insn.rr)))


def _adc(cpu: "AvrCpu", insn: Instruction) -> None:
    d, s = cpu.data, cpu.sreg
    d.write_reg(insn.rd, alu.add(s, d.read_reg(insn.rd), d.read_reg(insn.rr), s.c))


def _sub(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.sub(cpu.sreg, d.read_reg(insn.rd), d.read_reg(insn.rr)))


def _sbc(cpu: "AvrCpu", insn: Instruction) -> None:
    d, s = cpu.data, cpu.sreg
    d.write_reg(
        insn.rd,
        alu.sub(s, d.read_reg(insn.rd), d.read_reg(insn.rr), s.c, keep_z=True),
    )


def _subi(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.sub(cpu.sreg, d.read_reg(insn.rd), insn.k))


def _sbci(cpu: "AvrCpu", insn: Instruction) -> None:
    d, s = cpu.data, cpu.sreg
    d.write_reg(insn.rd, alu.sub(s, d.read_reg(insn.rd), insn.k, s.c, keep_z=True))


def _and(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.logic(cpu.sreg, d.read_reg(insn.rd) & d.read_reg(insn.rr)))


def _andi(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.logic(cpu.sreg, d.read_reg(insn.rd) & insn.k))


def _or(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.logic(cpu.sreg, d.read_reg(insn.rd) | d.read_reg(insn.rr)))


def _ori(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.logic(cpu.sreg, d.read_reg(insn.rd) | insn.k))


def _eor(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.logic(cpu.sreg, d.read_reg(insn.rd) ^ d.read_reg(insn.rr)))


def _com(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.com(cpu.sreg, d.read_reg(insn.rd)))


def _neg(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.neg(cpu.sreg, d.read_reg(insn.rd)))


def _inc(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.inc(cpu.sreg, d.read_reg(insn.rd)))


def _dec(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.dec(cpu.sreg, d.read_reg(insn.rd)))


def _swap(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    value = d.read_reg(insn.rd)
    d.write_reg(insn.rd, ((value << 4) | (value >> 4)) & 0xFF)


def _lsr(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.lsr(cpu.sreg, d.read_reg(insn.rd)))


def _asr(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.asr(cpu.sreg, d.read_reg(insn.rd)))


def _ror(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, alu.ror(cpu.sreg, d.read_reg(insn.rd)))


def _adiw(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg_pair(insn.rd, alu.adiw(cpu.sreg, d.read_reg_pair(insn.rd), insn.k))


def _sbiw(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg_pair(insn.rd, alu.sbiw(cpu.sreg, d.read_reg_pair(insn.rd), insn.k))


def _cp(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    alu.sub(cpu.sreg, d.read_reg(insn.rd), d.read_reg(insn.rr))


def _cpc(cpu: "AvrCpu", insn: Instruction) -> None:
    d, s = cpu.data, cpu.sreg
    alu.sub(s, d.read_reg(insn.rd), d.read_reg(insn.rr), s.c, keep_z=True)


def _cpi(cpu: "AvrCpu", insn: Instruction) -> None:
    alu.sub(cpu.sreg, cpu.data.read_reg(insn.rd), insn.k)


def _cpse(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    if d.read_reg(insn.rd) == d.read_reg(insn.rr):
        cpu._skip_next()


def _brbs(cpu: "AvrCpu", insn: Instruction) -> None:
    if cpu.sreg.get_bit(insn.b):
        cpu.pc += insn.k
        cpu.cycles += 1


def _brbc(cpu: "AvrCpu", insn: Instruction) -> None:
    if not cpu.sreg.get_bit(insn.b):
        cpu.pc += insn.k
        cpu.cycles += 1


def _rjmp(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.pc += insn.k


def _rcall(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.push_return_address(cpu.pc)
    cpu.pc += insn.k


def _jmp(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.pc = insn.k


def _call(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.push_return_address(cpu.pc)
    cpu.pc = insn.k


def _ijmp(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.pc = cpu.data.read_reg_pair(30)


def _icall(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.push_return_address(cpu.pc)
    cpu.pc = cpu.data.read_reg_pair(30)


def _ret(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.pc = cpu.pop_return_address()


def _reti(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.pc = cpu.pop_return_address()
    cpu.sreg.i = True


def _push(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.push_byte(cpu.data.read_reg(insn.rr))


def _pop(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.data.write_reg(insn.rd, cpu.pop_byte())


def _in(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, cpu.sreg.byte if insn.a == SREG_IO else d.read_io(insn.a))


def _out(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    value = d.read_reg(insn.rr)
    if insn.a == SREG_IO:
        cpu.sreg.byte = value
    else:
        d.write_io(insn.a, value)


def _sbi(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_io(insn.a, d.read_io(insn.a) | (1 << insn.b))


def _cbi(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_io(insn.a, d.read_io(insn.a) & ~(1 << insn.b))


def _sbic(cpu: "AvrCpu", insn: Instruction) -> None:
    if not cpu.data.read_io(insn.a) & (1 << insn.b):
        cpu._skip_next()


def _sbis(cpu: "AvrCpu", insn: Instruction) -> None:
    if cpu.data.read_io(insn.a) & (1 << insn.b):
        cpu._skip_next()


def _sbrc(cpu: "AvrCpu", insn: Instruction) -> None:
    if not cpu.data.read_reg(insn.rd) & (1 << insn.b):
        cpu._skip_next()


def _sbrs(cpu: "AvrCpu", insn: Instruction) -> None:
    if cpu.data.read_reg(insn.rd) & (1 << insn.b):
        cpu._skip_next()


def _bst(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.sreg.t = bool(cpu.data.read_reg(insn.rd) & (1 << insn.b))


def _bld(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    value = d.read_reg(insn.rd)
    if cpu.sreg.t:
        value |= 1 << insn.b
    else:
        value &= ~(1 << insn.b)
    d.write_reg(insn.rd, value)


def _lds(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, d.read(insn.k))


def _sts(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write(insn.k, d.read_reg(insn.rr))


def _ld(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu._load_store(insn, load=True)


def _st(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu._load_store(insn, load=False)


def _lpm_r0(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(0, cpu.flash.read_byte(d.read_reg_pair(30)))


def _lpm(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    d.write_reg(insn.rd, cpu.flash.read_byte(d.read_reg_pair(30)))


def _lpm_inc(cpu: "AvrCpu", insn: Instruction) -> None:
    d = cpu.data
    z = d.read_reg_pair(30)
    d.write_reg(insn.rd, cpu.flash.read_byte(z))
    d.write_reg_pair(30, (z + 1) & 0xFFFF)


def _bset(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.sreg.set_bit(insn.b, True)


def _bclr(cpu: "AvrCpu", insn: Instruction) -> None:
    cpu.sreg.set_bit(insn.b, False)


HANDLERS: Dict[Mnemonic, Handler] = {
    Mnemonic.NOP: _nop,
    Mnemonic.WDR: _nop,
    Mnemonic.SLEEP: _nop,
    Mnemonic.BREAK: _break,
    Mnemonic.MUL: _mul,
    Mnemonic.MULS: _muls,
    Mnemonic.MULSU: _mulsu,
    Mnemonic.MOV: _mov,
    Mnemonic.MOVW: _movw,
    Mnemonic.LDI: _ldi,
    Mnemonic.ADD: _add,
    Mnemonic.ADC: _adc,
    Mnemonic.SUB: _sub,
    Mnemonic.SBC: _sbc,
    Mnemonic.SUBI: _subi,
    Mnemonic.SBCI: _sbci,
    Mnemonic.AND: _and,
    Mnemonic.ANDI: _andi,
    Mnemonic.OR: _or,
    Mnemonic.ORI: _ori,
    Mnemonic.EOR: _eor,
    Mnemonic.COM: _com,
    Mnemonic.NEG: _neg,
    Mnemonic.INC: _inc,
    Mnemonic.DEC: _dec,
    Mnemonic.SWAP: _swap,
    Mnemonic.LSR: _lsr,
    Mnemonic.ASR: _asr,
    Mnemonic.ROR: _ror,
    Mnemonic.ADIW: _adiw,
    Mnemonic.SBIW: _sbiw,
    Mnemonic.CP: _cp,
    Mnemonic.CPC: _cpc,
    Mnemonic.CPI: _cpi,
    Mnemonic.CPSE: _cpse,
    Mnemonic.BRBS: _brbs,
    Mnemonic.BRBC: _brbc,
    Mnemonic.RJMP: _rjmp,
    Mnemonic.RCALL: _rcall,
    Mnemonic.JMP: _jmp,
    Mnemonic.CALL: _call,
    Mnemonic.IJMP: _ijmp,
    Mnemonic.ICALL: _icall,
    Mnemonic.RET: _ret,
    Mnemonic.RETI: _reti,
    Mnemonic.PUSH: _push,
    Mnemonic.POP: _pop,
    Mnemonic.IN: _in,
    Mnemonic.OUT: _out,
    Mnemonic.SBI: _sbi,
    Mnemonic.CBI: _cbi,
    Mnemonic.SBIC: _sbic,
    Mnemonic.SBIS: _sbis,
    Mnemonic.SBRC: _sbrc,
    Mnemonic.SBRS: _sbrs,
    Mnemonic.BST: _bst,
    Mnemonic.BLD: _bld,
    Mnemonic.LDS: _lds,
    Mnemonic.STS: _sts,
    Mnemonic.LD_X: _ld,
    Mnemonic.LD_X_INC: _ld,
    Mnemonic.LD_X_DEC: _ld,
    Mnemonic.LD_Y_INC: _ld,
    Mnemonic.LD_Y_DEC: _ld,
    Mnemonic.LD_Z_INC: _ld,
    Mnemonic.LD_Z_DEC: _ld,
    Mnemonic.LDD_Y: _ld,
    Mnemonic.LDD_Z: _ld,
    Mnemonic.ST_X: _st,
    Mnemonic.ST_X_INC: _st,
    Mnemonic.ST_X_DEC: _st,
    Mnemonic.ST_Y_INC: _st,
    Mnemonic.ST_Y_DEC: _st,
    Mnemonic.ST_Z_INC: _st,
    Mnemonic.ST_Z_DEC: _st,
    Mnemonic.STD_Y: _st,
    Mnemonic.STD_Z: _st,
    Mnemonic.LPM_R0: _lpm_r0,
    Mnemonic.LPM: _lpm,
    Mnemonic.LPM_INC: _lpm_inc,
    Mnemonic.BSET: _bset,
    Mnemonic.BCLR: _bclr,
}

# Every decodable mnemonic must dispatch: a decoder/table drift would
# otherwise surface as a confusing KeyError mid-flight.
_missing = [m for m in Mnemonic if m not in HANDLERS]
if _missing:  # pragma: no cover - import-time consistency check
    raise RuntimeError(f"mnemonics without handlers: {_missing}")


# -- engines -------------------------------------------------------------


class InterpreterEngine:
    """Reference engine: decode at PC on every single step."""

    name = "interpreter"

    def __init__(self, cpu: "AvrCpu") -> None:
        # weak: the core owns its engine, so a dropped board is freed by
        # reference counting rather than by the cyclic collector
        self._cpu = weakref.ref(cpu)
        # dispatch tables hoisted once, so fetch_entry pays two dict
        # indexes instead of two module-global lookups plus two indexes
        self._handlers = HANDLERS
        self._cycles = CYCLES_BY_MNEMONIC

    @property
    def cpu(self) -> "AvrCpu":
        return self._cpu()

    def fetch_entry(self, cpu: "AvrCpu") -> Entry:
        insn = cpu.fetch()
        mnemonic = insn.mnemonic
        return (
            self._handlers[mnemonic],
            insn,
            insn.size_words,
            self._cycles[mnemonic],
        )

    def run(self, max_instructions: int) -> int:
        cpu = self.cpu
        step = cpu.step  # bound once, not re-resolved per iteration
        executed = 0
        while not cpu.halted and executed < max_instructions:
            step()
            executed += 1
        return executed


ENGINES = {
    InterpreterEngine.name: InterpreterEngine,
}


def create_engine(name: str, cpu: "AvrCpu"):
    """Instantiate the engine called ``name`` for ``cpu``."""
    try:
        factory = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown execution engine {name!r}; choose from {sorted(ENGINES)}"
        ) from None
    return factory(cpu)


# The fast engine builds on the dispatch tables above, so it lives in its
# own module and registers here once they exist.
from .compiled import CompiledEngine  # noqa: E402  (import cycle: needs HANDLERS)

ENGINES[CompiledEngine.name] = CompiledEngine

DEFAULT_ENGINE = CompiledEngine.name
