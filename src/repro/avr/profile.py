"""In-sim PC profiler: exact, block-attributed and gadget-heatmap modes.

:class:`AvrProfiler` is the sampling half of the profiler (the report
half lives in :mod:`repro.telemetry.profiler`).  Three modes trade
precision against engine speed:

* ``exact`` — a :attr:`AvrCpu.trace_hooks` callback charges every retired
  instruction's true cycle delta to its PC.  Works on both engines and
  sums *exactly* to the CPU cycle counter, but trace hooks force the
  compiled engine down its per-instruction degrade path.
* ``block`` — a mapping on ``engine.profile_hook`` from each block head
  and the superblock bound there to its run counts by instructions
  retired: the fast engine stays fast (one ``is not None`` check plus
  one dict lookup and list increment per superblock run, no
  Python-level call) and the per-PC weights are reconstructed at
  snapshot time from each block's cached cycle layout, placed at its
  head (one superblock serves the same bytes at every address).  A run charges exactly the first
  ``retired`` instructions of its block: a compiled body that leaves
  early at a hooked access, and a cold run (which stops at the first
  store, so it can be shorter than the hot block fused at its head).
  Cold block heads are fused (never compiled) while the hook is set, so
  cold-tier retirements are attributed too.  Taken-branch extras and
  interrupt service overhead are invisible at this granularity, so
  totals agree with ``exact`` only to within a few percent.  On the
  interpreter (no superblocks) this mode silently degrades to ``exact``;
  check :attr:`effective_mode`.
* ``heatmap`` — ``exact`` plus a shadow call stack.  CALL/RCALL/ICALL
  push the expected return address; RET must pop exactly that address,
  and direct/indirect jumps must stay inside the current function or
  land on a function entry.  Retired PCs that violate this — the
  signature of MAVR's V2/V3 code-reuse chains, which enter functions
  mid-body via forged return addresses — are recorded as anomalies and
  surfaced as ``attack.profile_anomaly`` telemetry events.  The shadow
  stack also yields real call-chain attribution for collapsed-stack
  (flamegraph) output.

Interrupt entries are hardware-pushed frames the hook never sees as an
instruction, so RETI is deliberately unchecked — checking it against the
software shadow stack would be a guaranteed false positive.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from ..telemetry.profiler import (
    FunctionTable,
    build_report,
    collapsed_stack_lines,
)
from .insn import Mnemonic

PROFILE_MODES = ("exact", "block", "heatmap")

_CALLS = frozenset((Mnemonic.CALL, Mnemonic.RCALL, Mnemonic.ICALL))
_JUMPS = frozenset((Mnemonic.JMP, Mnemonic.RJMP, Mnemonic.IJMP))

# Engines whose run loops consume ``profile_hook`` (superblock engines).
_BLOCK_ENGINES = frozenset(("compiled",))

DEFAULT_SHADOW_DEPTH = 512
DEFAULT_MAX_ANOMALIES = 32


def function_regions(symbols) -> List[Tuple[str, int, int]]:
    """``(name, start, end)`` triples for a :class:`SymbolTable`.

    Zero-size symbols (assembly labels) extend to the next function start
    so every text byte stays attributable.
    """
    functions = list(symbols.functions())
    regions: List[Tuple[str, int, int]] = []
    for index, sym in enumerate(functions):
        end = sym.end
        if end <= sym.address:
            if index + 1 < len(functions):
                end = functions[index + 1].address
            else:
                end = sym.address + 2
        regions.append((sym.name, sym.address, end))
    return regions


def table_for_symbols(symbols) -> FunctionTable:
    """A resolver for an image's symbol table (byte addresses)."""
    regions = function_regions(symbols)
    text_start = regions[0][1] if regions else 0
    text_end = regions[-1][2] if regions else None
    return FunctionTable(regions, text_start=text_start, text_end=text_end)


class AvrProfiler:
    """Low-overhead PC profiler attachable to any engine."""

    def __init__(
        self,
        mode: str = "exact",
        symbols=None,
        telemetry=None,
        top_addresses: int = 20,
        shadow_depth: int = DEFAULT_SHADOW_DEPTH,
        max_anomalies: int = DEFAULT_MAX_ANOMALIES,
    ) -> None:
        if mode not in PROFILE_MODES:
            raise ValueError(
                f"unknown profile mode {mode!r}; choose from {PROFILE_MODES}"
            )
        self.mode = mode
        self.effective_mode = mode
        self.telemetry = telemetry
        self.top_addresses = top_addresses
        self.shadow_depth = shadow_depth
        self.max_anomalies = max_anomalies
        self.table: Optional[FunctionTable] = None
        if symbols is not None:
            self.use_symbols(symbols)
        # {pc_bytes: [hits, cycles]} — exact/heatmap fill this directly,
        # block mode expands into it at snapshot time.
        self._samples: Dict[int, List[int]] = {}
        self._block_counts: Dict[Tuple[int, object], List[int]] = {}
        self._last_cycles = 0
        self._cpu = None
        self._engine = None
        self._hook = None
        # heatmap state
        self._lifetime_seen = 0  # cpu.cycles_lifetime at the last retire
        self._shadow: List[int] = []  # expected return addresses (bytes)
        self._frames: Tuple[str, ...] = ()
        self._leaf = ""
        self._chain_key: Tuple[str, ...] = ()
        self._collapsed: Dict[Tuple[str, ...], int] = {}
        self.anomalies: List[dict] = []
        self.anomaly_count = 0

    # -- wiring -----------------------------------------------------------

    def use_symbols(self, symbols) -> None:
        """Attribute PCs via this image's function symbols."""
        self.table = table_for_symbols(symbols)

    def attach(self, cpu, engine=None) -> "AvrProfiler":
        """Hook into ``cpu`` (and, for block mode, its engine).

        The core is held weakly: its trace hooks hold this profiler, and
        a profiler that outlives its board must not keep the core alive.
        """
        if self._cpu is not None:
            raise RuntimeError("profiler is already attached")
        self._cpu = weakref.ref(cpu)
        self._last_cycles = cpu.cycles_lifetime + cpu.cycles
        self._lifetime_seen = cpu.cycles_lifetime
        if self.mode == "block" and engine is not None and (
            getattr(engine, "name", "") in _BLOCK_ENGINES
        ):
            self._engine = engine
            # the engines upsert this mapping inline on the hot path
            engine.profile_hook = self._block_counts
            self.effective_mode = "block"
            return self
        hook = self._on_retire_heatmap if self.mode == "heatmap" else self._on_retire
        self._hook = hook
        cpu.trace_hooks.append(hook)
        self.effective_mode = "heatmap" if self.mode == "heatmap" else "exact"
        return self

    def detach(self) -> None:
        if self._engine is not None:
            if self._engine.profile_hook is self._block_counts:
                self._engine.profile_hook = None
            self._engine = None
        cpu = self._cpu() if self._cpu is not None else None
        if cpu is not None and self._hook is not None:
            try:
                cpu.trace_hooks.remove(self._hook)
            except ValueError:
                pass
        self._cpu = None
        self._hook = None

    # -- hot-path hooks ---------------------------------------------------

    def _cycle_delta(self, cpu) -> int:
        total = cpu.cycles_lifetime + cpu.cycles
        delta = total - self._last_cycles
        self._last_cycles = total
        return delta

    def _on_retire(self, cpu, pc_bytes: int, insn) -> None:
        delta = self._cycle_delta(cpu)
        cell = self._samples.get(pc_bytes)
        if cell is None:
            self._samples[pc_bytes] = [1, delta]
        else:
            cell[0] += 1
            cell[1] += delta

    def _on_retire_heatmap(self, cpu, pc_bytes: int, insn) -> None:
        lifetime = cpu.cycles_lifetime
        if lifetime != self._lifetime_seen:
            # The core was reset (reboot / reflash recovery): the shadow
            # stack describes a dead call chain — drop it rather than
            # reporting every post-reboot return as an anomaly.
            self._lifetime_seen = lifetime
            self._shadow.clear()
            self._frames = ()
            self._leaf = ""
        delta = self._cycle_delta(cpu)
        cell = self._samples.get(pc_bytes)
        if cell is None:
            self._samples[pc_bytes] = [1, delta]
        else:
            cell[0] += 1
            cell[1] += delta

        table = self.table
        region = table.resolve(pc_bytes) if table is not None else None
        name = region.name if region is not None else "?"
        if name != self._leaf:
            self._leaf = name
            self._chain_key = self._frames + (name,)
        self._collapsed[self._chain_key] = (
            self._collapsed.get(self._chain_key, 0) + delta
        )

        mnemonic = insn.mnemonic
        if mnemonic in _CALLS:
            # The handler already redirected cpu.pc; the pushed return
            # address is this instruction's fall-through.
            if len(self._shadow) < self.shadow_depth:
                self._shadow.append(pc_bytes + insn.size_words * 2)
                if table is not None:
                    target = table.resolve(cpu.pc * 2)
                    self._frames = self._frames + (self._leaf,)
                    self._leaf = target.name
                    self._chain_key = self._frames + (target.name,)
        elif mnemonic is Mnemonic.RET:
            target = cpu.pc * 2
            if not self._shadow:
                self._record_anomaly(
                    "return_underflow", pc_bytes, target, expected=None
                )
            else:
                expected = self._shadow.pop()
                if self._frames:
                    self._leaf = self._frames[-1]
                    self._frames = self._frames[:-1]
                    self._chain_key = self._frames + (self._leaf,)
                if target != expected:
                    self._record_anomaly(
                        "bad_return", pc_bytes, target, expected=expected
                    )
        elif mnemonic in _JUMPS and table is not None:
            # Only jumps *from inside a known function* are checked: the
            # vectors/init region below text_start is dispatch code
            # (interrupt vectors, trampoline tables) that legitimately
            # jumps mid-function.  Cross-function jumps must land on a
            # function entry (tail calls); anything else is flagged.
            if region is not None and not region.name.startswith("["):
                target = cpu.pc * 2
                dest = table.resolve(target)
                if dest.name != region.name and target != dest.start:
                    self._record_anomaly(
                        "bad_jump", pc_bytes, target, expected=dest.start
                    )

    def _record_anomaly(
        self, kind: str, from_pc: int, target: int, expected: Optional[int]
    ) -> None:
        self.anomaly_count += 1
        if len(self.anomalies) >= self.max_anomalies:
            return
        table = self.table
        into = table.resolve(target).name if table is not None else "?"
        record = {
            "kind": kind,
            "from_pc": from_pc,
            "target_pc": target,
            "expected_pc": expected,
            "target_function": into,
            "cycle": self._last_cycles,
        }
        self.anomalies.append(record)
        if self.telemetry is not None:
            self.telemetry.emit("attack.profile_anomaly", **record)

    # -- reporting --------------------------------------------------------

    def _block_runs(self):
        """``(head, block, retired, runs)``: ``runs`` runs of the first
        ``retired`` instructions of the block bound at word address
        ``head``, from the engine's block counts."""
        for (head, block), counts in self._block_counts.items():
            for retired, runs in enumerate(counts):
                if runs:
                    yield head, block, retired, runs

    def _expanded_samples(self) -> Dict[int, List[int]]:
        """Block counts unfolded to per-PC samples (block mode only)."""
        if not self._block_counts:
            return self._samples
        samples: Dict[int, List[int]] = {
            pc: list(cell) for pc, cell in self._samples.items()
        }

        def charge(pc_bytes: int, hits: int, cycles: int) -> None:
            cell = samples.get(pc_bytes)
            if cell is None:
                samples[pc_bytes] = [hits, cycles]
            else:
                cell[0] += hits
                cell[1] += cycles

        for head, block, retired, count in self._block_runs():
            meta = block.body_meta
            body_cycles = block.body_cycles
            at = head * 2
            for index, (_, offset, before) in enumerate(meta[:retired]):
                if index + 1 < len(meta):
                    weight = meta[index + 1][2] - before
                else:
                    weight = body_cycles - before
                charge(at + offset, count, weight * count)
            if retired == block.count:
                charge(
                    at + block.last_offset, count, block.last_base_cycles * count
                )
        return samples

    @property
    def total_cycles(self) -> int:
        """Cycles attributed so far (exact modes: equals CPU movement)."""
        return sum(
            cell[1] for cell in self._expanded_samples().values()
        )

    def report(self) -> dict:
        return build_report(
            self._expanded_samples(),
            self.table,
            mode=self.effective_mode,
            top_addresses=self.top_addresses,
        )

    def collapsed(self) -> Dict[Tuple[str, ...], int]:
        """Call-chain → cycles.  Heatmap mode has real chains; the other
        modes degrade to flat one-frame stacks."""
        if self._collapsed:
            return dict(self._collapsed)
        flat: Dict[Tuple[str, ...], int] = {}
        table = self.table
        for pc, (_, cycles) in self._expanded_samples().items():
            name = table.resolve(pc).name if table is not None else "?"
            key = (name,)
            flat[key] = flat.get(key, 0) + cycles
        return flat

    def collapsed_text(self) -> str:
        return "\n".join(collapsed_stack_lines(self.collapsed()))

    def snapshot(self) -> dict:
        """JSON-ready state for telemetry embedding / forensic bundles."""
        return {
            "mode": self.mode,
            "effective_mode": self.effective_mode,
            "report": self.report(),
            "anomaly_count": self.anomaly_count,
            "anomalies": list(self.anomalies),
        }
