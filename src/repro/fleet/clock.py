"""Telemetry clock: the one allowlisted wall-clock source.

Everything simulated must consume :attr:`repro.sim.engine.Simulator.now`
so traces replay identically from a seed.  Wall-clock time is still
legitimate *telemetry* -- shard wall-clock in the execution report,
``created_at`` in the campaign manifest -- but those reads are volatile
by definition and must never leak into canonical (deterministic)
artifacts.  Funnelling every such read through this module keeps the
boundary auditable: ``repro lint``'s ``det-wall-clock`` rule allows
wall-clock calls *only here* (see ``LintConfig.telemetry_allowlist``),
so a stray ``time.time()`` anywhere else in the stack is a lint error.

Call sites take an injectable ``clock: Callable[[], float]`` defaulting
to these functions, which keeps wall-clock-dependent code testable with
a fake clock.
"""

from __future__ import annotations

import time
from typing import Callable

#: signature of an injectable clock
ClockFn = Callable[[], float]


def wall_time() -> float:
    """Seconds since the epoch -- manifest timestamps only."""
    return time.time()


def perf_time() -> float:
    """Monotonic high-resolution counter -- wall-clock telemetry only."""
    return time.perf_counter()

