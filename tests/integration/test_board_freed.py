"""A finished board is freed by reference counting, not by the collector.

Nothing a board owns points back at its core strongly: the engine, the
peripherals whose methods sit in the data-space hook tables and an
attached profiler (whose method sits on the core's trace hooks) hold the
CPU weakly.  With the cyclic collector off, dropping the last reference
to an :class:`Autopilot` or a :class:`MavrSystem` that has flown (and,
for the system, detected a crash and reflashed) frees its core at once.
"""

import gc
import weakref

import pytest

from repro.avr import PROFILE_MODES, AvrProfiler
from repro.core import MavrSystem
from repro.uav import Autopilot


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def test_dropped_autopilot_frees_its_core(testapp, collector_off):
    autopilot = Autopilot(testapp)
    autopilot.run_ticks(3)
    core = weakref.ref(autopilot.cpu)
    del autopilot
    assert core() is None


def test_dropped_system_frees_its_core(testapp, collector_off):
    system = MavrSystem(testapp, seed=5)
    system.boot()
    system.run(10, watch_every=5)
    system.autopilot.cpu.pc = (system.running_image.size + 64) // 2
    system.run(10, watch_every=5)
    assert system.master.stats.randomizations >= 2
    core = weakref.ref(system.autopilot.cpu)
    del system
    assert core() is None


@pytest.mark.parametrize("mode", PROFILE_MODES)
def test_profiled_autopilot_frees_its_core(testapp, collector_off, mode):
    """A profiler that outlives its board (to report on it) keeps neither
    the core nor a reference cycle through the core's hooks."""
    autopilot = Autopilot(testapp)
    cpu = autopilot.cpu
    profiler = AvrProfiler(mode=mode).attach(cpu, cpu.engine)
    assert profiler.effective_mode == mode
    autopilot.run_ticks(2)
    core = weakref.ref(cpu)
    del autopilot, cpu
    assert core() is None
    assert profiler.report()["total_hits"] > 0
    profiler.detach()  # a dead core detaches cleanly
