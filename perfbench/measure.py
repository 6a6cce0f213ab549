"""Measurement helpers: percentiles, host speed, in-memory spans, patching.

Spans are recorded from outside the program, by wrapping the public
entry points of its layers (see ``layers.py``).  Each call records one
span: name, layer, start, end and the index of the span that was open
when it began.  Calls are single-threaded and nest, so the direct
children of a span never overlap; a span's self time is its duration
minus theirs, and a layer's self time is the sum over its spans.

Host speed: on a shared host a busy neighbour can slow every core by up
to half for tens of seconds, which moves every wall time with it.  The
:class:`SpeedGauge` times a fixed probe next to each scenario; a time
multiplied by ``REFERENCE_MS / probe_ms`` is the time at reference speed,
and the slowdown cancels out of it.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple

#: a percentile is reported as valid only with this many samples beyond it
SAMPLES_BEYOND = 10

#: :func:`speed_probe` milliseconds at reference speed: an uncontended core
#: of the 2-vCPU x86-64 host (CPython 3.11) the benchmark was defined on
REFERENCE_MS = 7.5

#: a :class:`SpeedGauge` reading older than this is taken again
PROBE_EVERY_S = 0.5


class _ProbeCore:
    def __init__(self) -> None:
        self.pc = 0
        self.cycles = 0
        self.carry = False
        self.registers = bytearray(32)
        self.data = bytearray(8192)


def _add(core, a, b):
    registers = core.registers
    value = registers[a] + registers[b]
    core.carry = value > 0xFF
    registers[a] = value & 0xFF


def _load(core, a, b):
    core.registers[a] = core.data[(core.registers[b] << 5 | a) & 0x1FFF]


def _store(core, a, b):
    core.data[(core.registers[a] << 5 | b) & 0x1FFF] = core.registers[b]


def _inc(core, a, b):
    core.registers[a] = (core.registers[a] + 1) & 0xFF


def _branch(core, a, b):
    if core.registers[a] & 7:
        core.pc = b


_PROBE_HANDLERS = (_add, _load, _store, _inc, _add, _load, _inc, _branch)


def _probe_once(steps: int, length: int = 4096) -> float:
    program = []
    for i in range(length):
        handler = _PROBE_HANDLERS[(i * 5 + i // 7) % len(_PROBE_HANDLERS)]
        target = (i - 6) % length if handler is _branch else (i * 7 + 3) % 32
        program.append((handler, i % 32, target, 1, 1 + (i & 1)))
    core = _ProbeCore()
    start = time.perf_counter()
    for _ in range(steps):
        pc = core.pc
        handler, a, b, size, cycles = program[pc]
        core.pc = (pc + size) % length
        handler(core, a, b)
        core.cycles += cycles
    return (time.perf_counter() - start) * 1000.0


def speed_probe(steps: int = 30_000) -> float:
    """Milliseconds a fixed pure-Python instruction-set machine takes now.

    Its loop has the simulator's shape (fetch a decoded entry by program
    counter, dispatch to a handler that updates registers and a data
    bytearray, count cycles) but shares no code with the program, so a
    change to the program never changes the probe.  The median of three
    timings drops a single interruption.
    """
    return statistics.median(_probe_once(steps) for _ in range(3))


class SpeedGauge:
    """The host's current speed, probed at most every PROBE_EVERY_S."""

    def __init__(self, probe: Callable[[], float] = speed_probe) -> None:
        self.probe = probe
        self.last_ms: Optional[float] = None
        self._taken = float("-inf")

    def read(self) -> Tuple[float, float]:
        """(probe ms of the latest reading, ms spent probing in this call)."""
        if time.perf_counter() - self._taken < PROBE_EVERY_S:
            return self.last_ms, 0.0
        start = time.perf_counter()
        self.last_ms = self.probe()
        self._taken = time.perf_counter()
        return self.last_ms, (self._taken - start) * 1000.0


def percentile(samples: Sequence[float], p: int) -> Tuple[float, bool]:
    """Nearest-rank ``p``-th percentile and whether it is valid.

    Valid means at least :data:`SAMPLES_BEYOND` samples lie above the
    rank it was read at: p90 needs 100 samples, p50 needs 20.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank >= SAMPLES_BEYOND


class Tracer:
    """Records spans of wrapped calls in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: [name, layer, start_s, end_s, parent index or -1]
        self.spans: List[list] = []
        self._open: List[int] = []

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        spans, open_spans, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), None, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_spans.pop()

        return traced

    def records(self) -> List[dict]:
        return [
            {"name": name, "layer": layer, "start": start, "end": end, "parent": parent}
            for name, layer, start, end, parent in self.spans
        ]


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[4] >= 0:
            own[span[4]] -= span[3] - span[2]
    return own


def covered(spans: Sequence[Sequence]) -> float:
    """Time inside any span: the summed durations of the root spans."""
    return sum(span[3] - span[2] for span in spans if span[4] < 0)


class Patches:
    """Attributes replaced by wrappers, restorable in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def _set(self, setter, owner, name, value) -> None:
        self._undo.append((setter, owner, name, _raw(owner, name)))
        setter(owner, name, value)

    def method(self, cls: type, name: str, wrap: Callable) -> None:
        """Wrap a method defined on ``cls`` itself (classmethods too)."""
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._set(setattr, cls, name, classmethod(wrap(raw.__func__)))
        else:
            self._set(setattr, cls, name, wrap(raw))

    def function(self, module, name: str, wrap: Callable, everywhere: bool = False) -> None:
        """Wrap a module-level function; with ``everywhere``, also in every
        loaded module that imported it by name."""
        original = getattr(module, name)
        wrapped = wrap(original)
        owners = [module]
        if everywhere:
            owners += [
                other for other in list(sys.modules.values())
                if other is not module
                and getattr(other, "__dict__", {}).get(name) is original
            ]
        for owner in owners:
            self._set(setattr, owner, name, wrapped)

    def field(self, obj, name: str, wrap: Callable) -> None:
        """Wrap a callable field of a frozen dataclass instance."""
        self._set(object.__setattr__, obj, name, wrap(getattr(obj, name)))

    def restore(self) -> None:
        while self._undo:
            setter, owner, name, value = self._undo.pop()
            setter(owner, name, value)


def _raw(owner, name):
    if isinstance(owner, type):
        return owner.__dict__[name]
    return getattr(owner, name)
