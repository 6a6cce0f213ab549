"""Execution and stack tracing utilities, plus the lockstep harness.

Used by tests (behavioural-equivalence checks between original and
randomized firmware) and by the Fig. 6 reproduction, which snapshots the
stack at each stage of the stealthy attack.

The lockstep half (:class:`CpuStateStream`, :func:`diff_state_streams`,
:func:`run_lockstep`) is the differential contract for the execution
engines: the compiled engine is only allowed to exist because these
helpers can show, instruction by instruction, that its PC/SP/SREG/cycle
stream is identical to the reference interpreter's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import AvrError, LockstepDivergenceError
from .cpu import AvrCpu
from .insn import POINTER_MODES, Instruction, Mnemonic
from .iospace import IO_TO_DATA_OFFSET, SREG_DATA
from .memory import REGISTER_FILE_SIZE

# Pointer stores (st/std) -> (pointer register, pre-decrement,
# post-increment, displacement), from the core's own addressing table.
_STORE_MODES = {
    mnemonic: mode
    for mnemonic, mode in POINTER_MODES.items()
    if mnemonic.value.startswith("st")
}
_IO_STORES = frozenset((Mnemonic.OUT, Mnemonic.SBI, Mnemonic.CBI))


def _store_address(cpu: AvrCpu, insn: Instruction) -> Optional[int]:
    """Data address ``insn`` just stored to, from the state after retire.

    ``None`` for instructions that store nothing.  Pointer stores recover
    the effective address from the pointer as the store left it: the
    pointer minus one after a post-increment, the pointer itself after a
    pre-decrement, the pointer plus ``q`` for a displacement; ``push``
    stored at SP + 1; ``out``/``sbi``/``cbi`` at their I/O address + 0x20.
    """
    mnemonic = insn.mnemonic
    if mnemonic is Mnemonic.STS:
        return insn.k
    if mnemonic in _IO_STORES:
        return insn.a + IO_TO_DATA_OFFSET
    if mnemonic is Mnemonic.PUSH:
        return (cpu.data.sp + 1) & 0xFFFF
    mode = _STORE_MODES.get(mnemonic)
    if mode is None:
        return None
    pointer_reg, _pre_dec, post_inc, disp = mode
    pointer = cpu.data.read_reg_pair(pointer_reg)
    if post_inc:
        return (pointer - 1) & 0xFFFF
    if disp:
        return (pointer + (insn.q or 0)) & 0xFFFF
    return pointer


@dataclass(frozen=True)
class StackSnapshot:
    """A window of stack memory captured at a labelled moment."""

    label: str
    sp: int
    base_address: int
    data: bytes
    cycle: int

    def hexdump(self, width: int = 8) -> str:
        """Render like the paper's Fig. 6 stack listings."""
        lines = []
        for row_start in range(0, len(self.data), width):
            row = self.data[row_start : row_start + width]
            addr = self.base_address + row_start
            body = " ".join(f"0x{b:02X}" for b in row)
            lines.append(f"0x{addr:06X}: {body}")
        return "\n".join(lines)


def snapshot_stack(
    cpu: AvrCpu, label: str, window: int = 32, base: Optional[int] = None
) -> StackSnapshot:
    """Capture ``window`` bytes starting just above SP (or at ``base``)."""
    start = base if base is not None else cpu.data.sp + 1
    start = max(0, start)
    length = min(window, 0x2200 - start)
    return StackSnapshot(
        label=label,
        sp=cpu.data.sp,
        base_address=start,
        data=cpu.data.read_block(start, length),
        cycle=cpu.cycles,
    )


@dataclass
class ExecutionTrace:
    """Records retired instructions and externally visible stores.

    The *observable trace* (`io_writes`) holds one ``(address, value)``
    pair per retired store outside the register file — ``sts``, every
    ``st``/``std`` addressing mode, ``push``, ``out``, ``sbi`` and
    ``cbi`` — where ``value`` is the byte the store left at ``address``
    (read without triggering peripheral read hooks).  For a data-space
    mirror (a sensor register, UART status) that is the device's value,
    not the byte stored, since a store leaves the mirror in place; for a
    sink (UART data) it is the byte stored.  It is the
    behavioural-equivalence criterion used to show randomized firmware
    behaves identically to the original, and the cross-engine store
    comparison of the lockstep tests.

    Memory bounds: by default recording *stops* after ``max_instructions``
    entries (keep-first semantics, what equivalence checks want).  Set
    ``max_entries`` instead for ring-buffer mode: the trace keeps only the
    most recent ``max_entries`` records (keep-last semantics), so a
    long-running simulation can stay attached forever without growing.
    """

    record_instructions: bool = True
    instructions: List[Tuple[int, Instruction]] = field(default_factory=list)
    io_writes: List[Tuple[int, int]] = field(default_factory=list)
    max_instructions: int = 2_000_000
    # ring-buffer mode: keep only the newest N entries (None = keep-first)
    max_entries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_entries is not None:
            self.instructions = deque(self.instructions, maxlen=self.max_entries)
            self.io_writes = deque(self.io_writes, maxlen=self.max_entries)

    def attach(self, cpu: AvrCpu) -> None:
        cpu.trace_hooks.append(self._on_retire)

    def _on_retire(self, cpu: AvrCpu, pc_bytes: int, insn: Instruction) -> None:
        if self.record_instructions and (
            self.max_entries is not None
            or len(self.instructions) < self.max_instructions
        ):
            self.instructions.append((pc_bytes, insn))
        address = _store_address(cpu, insn)
        if address is not None and address >= REGISTER_FILE_SIZE:
            if address == SREG_DATA:
                value = cpu.sreg.byte
            else:
                value = cpu.data.read_block(address, 1)[0]
            self.io_writes.append((address, value))

    def mnemonic_counts(self) -> dict:
        counts: dict = {}
        for _pc, insn in self.instructions:
            counts[insn.mnemonic] = counts.get(insn.mnemonic, 0) + 1
        return counts


# -- flight recorder ------------------------------------------------------


FLIGHT_RECORDER_SCHEMA = 1
DEFAULT_RING_DEPTH = 256


class FlightRecorder:
    """Bounded ring of retired states plus a forensic-bundle builder.

    Attach one to a core and it maintains the last ``depth`` retired
    ``(pc, sp, sreg, cycles)`` states at trace-hook cost (the superblock
    engines degrade to their per-instruction path while attached — this
    is a forensics tool, not a profiler).  When a :class:`CpuFault` fires
    or the master detects an attack, :meth:`bundle` freezes everything an
    investigator needs into plain builtins: registers, a stack window,
    the ring, a decoded disassembly of the fault neighbourhood, and the
    most recent telemetry events.  ``repro forensics <bundle.json>``
    renders the result.
    """

    def __init__(self, depth: int = DEFAULT_RING_DEPTH) -> None:
        self.depth = depth
        self.stream = CpuStateStream(max_entries=depth)
        self._cpu: Optional[AvrCpu] = None

    def attach(self, cpu: AvrCpu) -> "FlightRecorder":
        self._cpu = cpu
        self.stream.attach(cpu)
        return self

    @property
    def states(self):
        return self.stream.states

    def bundle(
        self,
        reason: str,
        kind: str = "manual",
        symbols=None,
        telemetry=None,
        profiler=None,
        fault_pc: Optional[int] = None,
        stack_window: int = 48,
        disasm_window: int = 32,
        recent_events: int = 32,
    ) -> dict:
        """Freeze a JSON-ready forensic bundle from the current state.

        ``fault_pc`` overrides the neighbourhood centre (byte address) —
        on a :class:`~repro.errors.CpuFault` the core's PC may already
        have moved past the faulting instruction, so callers should pass
        ``fault.pc`` when they have it.
        """
        cpu = self._cpu
        if cpu is None:
            raise RuntimeError("flight recorder is not attached to a core")
        pc_bytes = fault_pc if fault_pc is not None else cpu.pc_bytes
        registers = [cpu.data.read_reg(i) for i in range(32)]
        stack = snapshot_stack(cpu, f"forensic:{kind}", window=stack_window)
        bundle = {
            "schema": FLIGHT_RECORDER_SCHEMA,
            "kind": kind,
            "reason": reason,
            "cpu": {
                "pc_bytes": pc_bytes,
                "sp": cpu.data.sp,
                "sreg": cpu.sreg.byte,
                "cycles": cpu.cycles,
                "cycles_lifetime": cpu.cycles_lifetime,
                "instructions_retired": cpu.instructions_retired,
                "halted": cpu.halted,
                "engine": cpu.engine_name,
            },
            "registers": registers,
            "ring": [list(state) for state in self.stream.states],
            "stack": {
                "label": stack.label,
                "sp": stack.sp,
                "base_address": stack.base_address,
                "data_hex": stack.data.hex(),
                "cycle": stack.cycle,
            },
            "disassembly": self._disassemble_neighbourhood(
                cpu, pc_bytes, disasm_window
            ),
        }
        if symbols is not None:
            containing = symbols.function_containing(pc_bytes)
            bundle["function"] = containing.name if containing is not None else None
        if telemetry is not None and telemetry.enabled:
            bundle["events"] = telemetry.events.events()[-recent_events:]
        if profiler is not None:
            bundle["profile"] = {
                "mode": profiler.mode,
                "effective_mode": profiler.effective_mode,
                "anomaly_count": profiler.anomaly_count,
                "anomalies": list(profiler.anomalies),
            }
        return bundle

    @staticmethod
    def _disassemble_neighbourhood(
        cpu: AvrCpu, pc_bytes: int, window: int
    ) -> List[dict]:
        """Best-effort decode of ± ``window`` bytes around ``pc_bytes``."""
        from .decoder import disassemble_range

        start = max(0, pc_bytes - window) & ~1
        end = min(cpu.flash.size, pc_bytes + window)
        code = cpu.flash.dump(0, end)
        return [
            {
                "pc": offset,
                "text": str(insn),
                "current": offset == pc_bytes,
            }
            for offset, insn in disassemble_range(code, start, end)
        ]


# -- engine differential harness -----------------------------------------

# One retired instruction's architecturally visible state:
# (pc of the retired insn in bytes, SP, SREG byte, cumulative cycles).
RetiredState = Tuple[int, int, int, int]


@dataclass
class CpuStateStream:
    """Records the architectural state after every retired instruction.

    Attach one to each of two cores running the *same scenario* on
    *different engines*, then :func:`diff_state_streams` the results: any
    divergence in PC, SP, SREG or cycle accounting shows up at the exact
    instruction where the engines parted ways.

    ``max_states`` keeps the *first* N states (lockstep diffing wants the
    earliest divergence); ``max_entries`` switches to a ring buffer that
    keeps the *last* N — a bounded flight recorder for long simulations.
    """

    states: List[RetiredState] = field(default_factory=list)
    max_states: int = 5_000_000
    # ring-buffer mode: keep only the newest N states (None = keep-first)
    max_entries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_entries is not None:
            self.states = deque(self.states, maxlen=self.max_entries)

    def attach(self, cpu: AvrCpu) -> "CpuStateStream":
        cpu.trace_hooks.append(self._on_retire)
        return self

    def _on_retire(self, cpu: AvrCpu, pc_bytes: int, insn: Instruction) -> None:
        if self.max_entries is not None or len(self.states) < self.max_states:
            self.states.append((pc_bytes, cpu.data.sp, cpu.sreg.byte, cpu.cycles))


def diff_state_streams(
    reference: CpuStateStream, subject: CpuStateStream
) -> Optional[str]:
    """First divergence between two recorded streams, or ``None`` if equal."""
    a, b = reference.states, subject.states
    for index, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            return (
                f"step {index}: reference (pc, sp, sreg, cycles)={ra} "
                f"!= subject {rb}"
            )
    if len(a) != len(b):
        return f"stream lengths differ: reference {len(a)} != subject {len(b)}"
    return None


def run_lockstep(
    reference: AvrCpu,
    subject: AvrCpu,
    max_instructions: int = 1_000_000,
    telemetry=None,
) -> int:
    """Step two cores in tandem, asserting identical state after each retire.

    Both cores must be loaded with the same image and reset identically;
    they normally differ only in execution engine.  Crashes count as
    agreement when both cores raise the same error type with the same
    message.  Returns the number of instructions retired by each core.
    Raises :class:`~repro.errors.LockstepDivergenceError` on the first
    mismatch; when a :class:`~repro.telemetry.Telemetry` handle is given,
    the divergence is also recorded as a ``lockstep.divergence`` event
    before the raise.
    """

    def _diverged(step: int, detail: str) -> LockstepDivergenceError:
        if telemetry is not None:
            telemetry.emit(
                "lockstep.divergence",
                step=step,
                detail=detail,
                reference_engine=reference.engine_name,
                subject_engine=subject.engine_name,
            )
        return LockstepDivergenceError(detail)

    executed = 0
    while executed < max_instructions and not (reference.halted or subject.halted):
        ref_error = sub_error = None
        try:
            reference.step()
        except AvrError as exc:
            ref_error = exc
        try:
            subject.step()
        except AvrError as exc:
            sub_error = exc
        if (ref_error is None) != (sub_error is None) or (
            ref_error is not None
            and (type(ref_error), str(ref_error))
            != (type(sub_error), str(sub_error))
        ):
            raise _diverged(
                executed,
                f"step {executed}: reference raised {ref_error!r}, "
                f"subject raised {sub_error!r}",
            )
        if ref_error is not None:
            return executed
        executed += 1
        mismatches = [
            f"{name}: {ref_value} != {sub_value}"
            for name, ref_value, sub_value in (
                ("pc", reference.pc, subject.pc),
                ("sp", reference.data.sp, subject.data.sp),
                ("sreg", reference.sreg.byte, subject.sreg.byte),
                ("cycles", reference.cycles, subject.cycles),
                ("halted", reference.halted, subject.halted),
            )
            if ref_value != sub_value
        ]
        if mismatches:
            raise _diverged(
                executed - 1,
                f"step {executed - 1} ({reference.engine_name} vs "
                f"{subject.engine_name}): " + "; ".join(mismatches),
            )
    return executed
