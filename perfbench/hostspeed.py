"""Host-speed calibration: report host times at a fixed reference speed.

The benchmark's host shares its cores with other machines' work, which
slows the simulator by up to ~1.8x for seconds to minutes at a time,
invisibly to the guest's CPU-time accounting.  Raw wall times of two
runs of the same code therefore differ far more than any change worth
measuring.  The same load slows the calibration loop below by a
similar, not identical, factor; the repeats in ``run.py`` absorb the
rest.

So every timed region is bracketed by a short fixed calibration loop
(pure Python plus ``hashlib``; it touches no code of the simulator, so
no change to the simulator can speed it up), and its host time is
scaled by ``REFERENCE_S / calibration_time``: the time the region
would have taken on a host that runs the calibration loop in
``REFERENCE_S`` seconds.  On an idle host of the kind the benchmark
was written on the factor is close to 1.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import List

clock = time.perf_counter

#: calibration-loop time of the reference host (2-core x86 VM, idle)
REFERENCE_S = 0.0012

_ROUNDS = 4000


class _Cell:
    __slots__ = ("scale", "shift")

    def __init__(self, scale: int, shift: int) -> None:
        self.scale = scale
        self.shift = shift

    def step(self, value: int) -> int:
        return (self.scale * value + self.shift) & 0xFFFF


def _loop() -> int:
    """Attribute access, calls, dict and bytearray traffic, small hashes:
    the instruction mix of the simulator, none of its code."""
    table = {}
    buf = bytearray(64)
    cell = _Cell(3, 7)
    acc = 0
    for i in range(_ROUNDS):
        key = i & 127
        table[key] = cell.step(i)
        acc ^= table.get((key * 7) & 127, 0)
        buf[i & 63] = acc & 255
        if (i & 31) == 0:
            acc ^= hashlib.sha256(bytes(buf)).digest()[0]
    return acc


class HostSpeed:
    """Calibration samples taken during one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        """Seconds the calibration loop takes right now."""
        began = clock()
        _loop()
        seconds = clock() - began
        self.samples.append(seconds)
        return seconds

    def factor(self, *samples: float) -> float:
        """Scale from host seconds to reference seconds, for a region
        bracketed by ``samples``."""
        return REFERENCE_S / statistics.fmean(samples)

    def settled_factor(self, count: int = 5) -> float:
        """The factor from ``count`` fresh samples (their median)."""
        return REFERENCE_S / statistics.median(
            self.sample() for _ in range(count)
        )
