"""Sensor models wired into the AVR data space.

The APM 2.5 carries a 3-axis gyroscope, accelerometer, magnetometer and a
barometer (paper §II-A).  Each appears to the firmware as a pair of
extended-I/O registers (little-endian int16) that the ``sensors_read``
routine samples with ``lds`` — mirroring how sensor values end up "recorded
in the data address space" where the paper's attack overwrites them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict

from ..avr.cpu import AvrCpu
from ..firmware.hwmap import ACCEL_X_REG, GYRO_X_REG, SENSOR_REGS

# Little-endian int16 register pairs side by side: all eight (gyro x/y/z,
# accel x/y/z, barometer, magnetometer) from GYRO_X_REG, or a device's
# three axes.
_ALL_PAIRS = struct.Struct(f"<{len(SENSOR_REGS)}H")
_AXES = struct.Struct("<3H")


def _to_int16(value: float) -> int:
    clamped = max(-32768, min(32767, int(round(value))))
    return clamped & 0xFFFF


@dataclass
class SensorState:
    """Physical quantities the devices report (raw sensor units).

    A state changes only through :class:`SensorSuite`'s setters: a suite
    writes the register bytes when it is constructed and on each of its
    own setter calls, so a value changed here in place, or through
    another suite sharing this state, reaches a suite's registers only at
    its next setter call.  A suite built over an existing state (an
    autopilot rebuilt over its predecessor's) starts from its values.
    """

    gyro: Dict[str, float] = field(default_factory=lambda: {"x": 0.0, "y": 0.0, "z": 0.0})
    accel: Dict[str, float] = field(default_factory=lambda: {"x": 0.0, "y": 0.0, "z": 1000.0})
    baro: float = 10_000.0
    mag: float = 0.0


class SensorSuite:
    """Exposes a :class:`SensorState` as the sensor registers.

    Every register pair is a data-space mirror
    (:meth:`~repro.avr.memory.DataSpace.add_mirror`): the suite writes its
    bytes at construction and in every setter, so ``_to_int16`` runs once
    per update, a firmware read is a plain byte read, and a store to a
    sensor register leaves the device's value in place.
    """

    def __init__(self, cpu: AvrCpu, state: SensorState = None) -> None:
        self.state = state if state is not None else SensorState()
        self._data = cpu.data
        gyro, accel = self.state.gyro, self.state.accel
        values = (gyro["x"], gyro["y"], gyro["z"], accel["x"], accel["y"],
                  accel["z"], self.state.baro, self.state.mag)
        cpu.data.add_mirror(GYRO_X_REG, _ALL_PAIRS.pack(*map(_to_int16, values)))

    def set_gyro(self, x: float, y: float, z: float) -> None:
        self.state.gyro.update(x=x, y=y, z=z)
        self._data.set_mirror(
            GYRO_X_REG, _AXES.pack(_to_int16(x), _to_int16(y), _to_int16(z))
        )

    def set_accel(self, x: float, y: float, z: float) -> None:
        self.state.accel.update(x=x, y=y, z=z)
        self._data.set_mirror(
            ACCEL_X_REG, _AXES.pack(_to_int16(x), _to_int16(y), _to_int16(z))
        )
