"""Pluggable defense backends behind one master-processor pipeline.

The master's lifecycle (deploy → boot → watch → recover) is fixed; what
varies between mitigation schemes is *how* an image is prepared, how a
boot diversifies it, and what recovery after a detection costs.
:class:`DefenseBackend` captures exactly that variation:

* ``mavr`` — the paper's function-block randomization, byte-identical to
  the pre-backend pipeline: same RNG stream, same indexed fast path,
  same policy schedule, recovery = re-randomize + differential reflash.
* ``daedalus`` — DAEDALUS-style stochastic software diversity at
  sub-block granularity with load-time re-diversification: *every* boot
  draws a fresh layout.  When the chip has free flash above the data
  section the sub-blocks scatter with stochastic gaps (the §VIII-B
  padding machinery); when ``.text`` already fills the chip — every
  paper app — it falls back to the in-place sub-block shuffle.  Both
  placements go through the same indexed patcher MAVR uses.
* ``ctomp`` — CToMP-style cycle-task memory protection: no layout
  secrecy at all.  The master checkpoints the task context (data space,
  PC, SREG) at every healthy watch pass and, on a detection, restores
  it in place — zero pages reflashed, zero flash wear, millisecond
  recovery — plus a stack-bound integrity check each watch pass.

Backends publish their accounting through :class:`DefenseStats`, a
telemetry view labelled ``backend=<name>`` so per-backend counters stay
distinct in one registry.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Optional, Tuple

from ..avr.memory import DATA_SPACE_SIZE, FLASH_SIZE, RAMEND, SRAM_BASE
from ..binfmt.image import FirmwareImage
from ..binfmt.symtab import DATA_SPACE_FLAG
from ..errors import DefenseError
from ..telemetry import CounterField, GaugeField, StatsView, Telemetry
from ..uav.autopilot import AutopilotStatus
from .padding import padded_entropy_bits, randomize_image_padded
from .patching import randomize_image
from .policy import RandomizationPolicy
from .preprocess import check_randomizable, preprocess
from .randomize import Permutation, layout_entropy_bits
from .splitting import split_image_blocks

#: backend names accepted by ``MavrSystem``, ``ScenarioSpec`` and the CLI
DEFENSE_BACKENDS = ("mavr", "daedalus", "ctomp")

#: CToMP context-restore timing model: an on-chip copy of the task
#: context back into SRAM, far below any ISP transfer
CTOMP_RESTORE_BASE_MS = 0.2
CTOMP_RESTORE_BYTES_PER_MS = 8192.0

#: DAEDALUS re-tilings by source image object: a bounded LRU shared by
#: every backend in the process, so all boards flying one parsed image
#: split it once.  Each entry holds its source image, so the ``id`` key
#: cannot be reused while the entry lives.
_SPLITS: "OrderedDict[int, Tuple[FirmwareImage, FirmwareImage]]" = OrderedDict()
_SPLITS_LIMIT = 8


def _split_once(image: FirmwareImage) -> FirmwareImage:
    key = id(image)
    entry = _SPLITS.get(key)
    if entry is None or entry[0] is not image:
        entry = _SPLITS[key] = (image, split_image_blocks(image))
    else:
        _SPLITS.move_to_end(key)
    while len(_SPLITS) > _SPLITS_LIMIT:
        _SPLITS.popitem(last=False)
    return entry[1]


class DefenseStats(StatsView):
    """Backend-side accounting, one instrument set per backend label."""

    component = "defense"

    #: fresh layouts generated (every randomize/scatter; 0 for ctomp)
    diversifications = CounterField("defense.diversifications")
    #: recoveries that wrote no flash page (ctomp restores / cold resets)
    zero_reflash_recoveries = CounterField("defense.zero_reflash_recoveries")
    #: task-context snapshots captured at healthy watch passes
    checkpoints = CounterField("defense.checkpoints")
    #: integrity probes run during watch passes
    integrity_checks = CounterField("defense.integrity_checks")
    #: shuffleable units in the last generated layout
    last_layout_units = GaugeField("defense.last_layout_units")


class DefenseBackend:
    """One mitigation scheme plugged into the master processor.

    Subclasses override the hooks; the defaults reproduce the MAVR
    pipeline's behavior so ``MavrBackend`` stays a pure delegation.
    """

    #: registry name (also the telemetry label)
    name = "backend"
    #: True: a detection is handled by re-diversify + reflash (the boot
    #: path); False: the master calls :meth:`recover` instead
    reflashes_on_detection = True

    def __init__(self) -> None:
        self.stats = DefenseStats()

    def bind(self, telemetry: Optional[Telemetry]) -> "DefenseBackend":
        """Attach accounting to the board's telemetry registry."""
        self.stats = DefenseStats(telemetry, backend=self.name)
        return self

    # -- host / deploy phase ------------------------------------------------

    def preprocess(self, image: FirmwareImage) -> str:
        """Host-side pass: image -> preprocessed HEX for the external flash."""
        return preprocess(image)

    def check_deployable(self, image: FirmwareImage) -> None:
        """Reject images this backend cannot protect."""
        check_randomizable(image)

    # -- boot phase ---------------------------------------------------------

    def should_diversify(
        self, policy: RandomizationPolicy, boot_count: int, attack_detected: bool
    ) -> bool:
        """Does this boot generate (and program) a fresh layout?"""
        return policy.should_randomize(boot_count, attack_detected)

    def diversify(
        self, image: FirmwareImage, rng: random.Random
    ) -> Tuple[FirmwareImage, Optional[Permutation]]:
        """Produce the image to program this boot."""
        raise NotImplementedError

    # -- watch phase --------------------------------------------------------

    def observe_healthy(self, master) -> None:
        """Called on every watch pass that found the application healthy."""

    def check(self, master) -> bool:
        """Extra integrity probe; True = corruption detected."""
        return False

    def recover(self, master) -> float:
        """Zero-reflash recovery after a detection; returns latency in ms.

        Only reached when :attr:`reflashes_on_detection` is False.  The
        fallback is a plain reset — subclasses model something better.
        """
        master.autopilot.reset()
        self.stats.zero_reflash_recoveries += 1
        return 0.0

    # -- analysis -----------------------------------------------------------

    def entropy_bits(self, image: FirmwareImage) -> float:
        """Layout entropy an attacker must overcome against this backend."""
        raise NotImplementedError


class MavrBackend(DefenseBackend):
    """The paper's function-block randomization (behavior-preserving)."""

    name = "mavr"

    def diversify(
        self, image: FirmwareImage, rng: random.Random
    ) -> Tuple[FirmwareImage, Optional[Permutation]]:
        randomized, permutation = randomize_image(image, rng)
        self.stats.diversifications += 1
        self.stats.last_layout_units = len(permutation)
        return randomized, permutation

    def entropy_bits(self, image: FirmwareImage) -> float:
        return layout_entropy_bits(image.function_count())


class DaedalusBackend(DefenseBackend):
    """Sub-block stochastic diversity with load-time re-diversification.

    Granularity comes from :mod:`repro.core.splitting` (functions cut at
    every safe point, the relocation index carried over).  Placement is
    adaptive: scatter with stochastic gaps over the free flash when the
    image leaves room (``testapp``); in-place sub-block shuffle when
    ``.text`` fills the chip (every paper app — the same headroom limit
    that made §VIII-B drop padding).  Either layout is one permutation
    applied by the one indexed patcher.
    """

    name = "daedalus"

    def __init__(self, flash_size: int = FLASH_SIZE) -> None:
        super().__init__()
        self.flash_size = flash_size

    def split(self, image: FirmwareImage) -> FirmwareImage:
        """The sub-block re-tiling of ``image`` (once per source image
        object and process)."""
        return _split_once(image)

    def scatters(self, image: FirmwareImage) -> bool:
        """Is there enough free flash to place blocks with random gaps?"""
        free_start = max(image.data_end, image.text_end)
        total_code = sum(s.size for s in image.symbols.functions())
        return self.flash_size - free_start > total_code

    def should_diversify(
        self, policy: RandomizationPolicy, boot_count: int, attack_detected: bool
    ) -> bool:
        # load-time re-diversification: every boot draws a fresh layout,
        # regardless of the wear-throttling schedule
        return True

    def diversify(
        self, image: FirmwareImage, rng: random.Random
    ) -> Tuple[FirmwareImage, Optional[Permutation]]:
        split = self.split(image)
        if self.scatters(split):
            randomized, permutation = randomize_image_padded(
                split, rng, self.flash_size
            )
        else:
            randomized, permutation = randomize_image(split, rng)
        self.stats.diversifications += 1
        self.stats.last_layout_units = len(permutation)
        return randomized, permutation

    def entropy_bits(self, image: FirmwareImage) -> float:
        split = self.split(image)
        if self.scatters(split):
            return padded_entropy_bits(split, self.flash_size)
        return layout_entropy_bits(split.function_count())


class CtompBackend(DefenseBackend):
    """Cycle-task memory protection: recover in place, never reflash.

    No layout secrecy: the image runs as built, and the one programming
    pass is the initial install.  Instead the master checkpoints the
    cycle task's context — the whole data space (which contains SP),
    the PC and SREG — at every healthy watch pass.  A detection restores
    the last good context directly into the running core: flash is
    untouched (decode caches stay valid, wear stays zero) and the
    latency is an on-chip memory copy, not an ISP transfer.  Each watch
    pass also runs a stack-bound probe: a stack pointer below the static
    data's top means the cycle task's frame chain is corrupt.
    """

    name = "ctomp"
    reflashes_on_detection = False

    def __init__(self) -> None:
        super().__init__()
        self._checkpoint: Optional[Tuple[bytes, int, int]] = None
        self._stack_floor: Optional[int] = None

    def preprocess(self, image: FirmwareImage) -> str:
        # no layout transformation ahead: any structurally valid build
        # deploys, including stock toolchain images MAVR must reject
        image.validate()
        return image.to_preprocessed_hex(include_index=False)

    def check_deployable(self, image: FirmwareImage) -> None:
        pass  # no toolchain constraint: the image is never randomized

    def should_diversify(
        self, policy: RandomizationPolicy, boot_count: int, attack_detected: bool
    ) -> bool:
        return boot_count == 0  # the initial install, nothing more

    def diversify(
        self, image: FirmwareImage, rng: random.Random
    ) -> Tuple[FirmwareImage, Optional[Permutation]]:
        self.stats.last_layout_units = 0
        return image, None

    def observe_healthy(self, master) -> None:
        cpu = master.autopilot.cpu
        self._checkpoint = (
            cpu.data.read_block(0, DATA_SPACE_SIZE), cpu.pc, cpu.sreg.byte
        )
        self.stats.checkpoints += 1

    def check(self, master) -> bool:
        self.stats.integrity_checks += 1
        sp = master.autopilot.cpu.data.sp
        return sp < self._floor(master) or sp > RAMEND

    def recover(self, master) -> float:
        autopilot = master.autopilot
        self.stats.zero_reflash_recoveries += 1
        if self._checkpoint is None:
            # no healthy context captured yet: cold reset, still no reflash
            autopilot.reset()
            return 0.0
        data, pc, sreg = self._checkpoint
        cpu = autopilot.cpu
        cpu.data.write_block(0, data)  # includes SP at 0x5D/0x5E
        cpu.pc = pc
        cpu.sreg.byte = sreg
        cpu.halted = False
        autopilot.status = AutopilotStatus.RUNNING
        autopilot.crash = None
        # the restored task resumes mid-loop — it never walks the reset
        # vector, so drop any crash-induced stray boot pulses while
        # keeping the feed history (CPU cycles do not rewind)
        del autopilot.feed.boot_pulses[1:]
        latency_ms = (
            CTOMP_RESTORE_BASE_MS + DATA_SPACE_SIZE / CTOMP_RESTORE_BYTES_PER_MS
        )
        master.clock.advance_ms(latency_ms)
        return latency_ms

    def entropy_bits(self, image: FirmwareImage) -> float:
        return 0.0  # the layout is public; protection is recovery, not secrecy

    def _floor(self, master) -> int:
        if self._stack_floor is None:
            symbols = master.autopilot.debug_symbols
            top = SRAM_BASE
            for symbol in symbols.objects():
                if symbol.address >= DATA_SPACE_FLAG:
                    end = symbol.address - DATA_SPACE_FLAG + symbol.size
                    top = max(top, end)
            self._stack_floor = top
        return self._stack_floor


def create_backend(name: str) -> DefenseBackend:
    """Instantiate a registered backend by name."""
    factories = {
        "mavr": MavrBackend,
        "daedalus": DaedalusBackend,
        "ctomp": CtompBackend,
    }
    try:
        return factories[name]()
    except KeyError:
        raise DefenseError(
            f"unknown defense backend {name!r}; expected one of {DEFENSE_BACKENDS}"
        ) from None
