"""Memory-locking consistency mechanisms (Section 3.1, after [5]).

A locking policy decides *when* each attested block is read-only
relative to the measurement timeline of Figure 4:

====================  =============================================
``No-Lock``           never locks; no consistency guarantee
``All-Lock``          everything locked in [t_s, t_e]; consistent
                      with M throughout [t_s, t_e]
``All-Lock-Ext``      everything locked in [t_s, t_r]; adds the
                      "prover is in this state *now*" guarantee
``Dec-Lock``          all locked at t_s, each block released once
                      measured; consistent with M **at t_s**
``Inc-Lock``          each block locked when measured, all released
                      at t_e; consistent with M **at t_e**
``Inc-Lock-Ext``      Inc-Lock, released at t_r instead of t_e
====================  =============================================

The claims in this table are data in one place,
:func:`repro.core.consistency.expected_consistency`.

Policies drive the simulated MPU; each mutation returns the number of
MPU operations performed so the measurement engine can charge the
syscall time (HYDRA implements these as seL4 capability operations).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.device import Device


class LockingPolicy:
    """Base class: the do-nothing (No-Lock) behaviour.

    Subclasses override the hook methods; each hook returns the number
    of MPU lock/unlock operations it performed (0 for no-ops).

    A policy instance is single-use per measurement: :meth:`reset` is
    called by the measurement engine at t_s.
    """

    #: canonical mechanism name, overridden by subclasses
    name = "no-lock"
    #: does the policy keep a lock after t_e (needs an explicit release)?
    holds_after_end = False

    def __init__(self) -> None:
        self.device: Optional[Device] = None
        self.order: Sequence[int] = ()
        self._hold_start: Optional[float] = None

    def reset(self, device: Device, order: Sequence[int]) -> None:
        """Bind to a device and traversal order at measurement start."""
        self.device = device
        self.order = list(order)
        self._hold_start = None

    # -- observability ---------------------------------------------------

    def _mark_hold_start(self) -> None:
        """Stamp the moment this policy first takes a lock."""
        if self.device is not None and self._hold_start is None:
            self._hold_start = self.device.sim.now

    def _record_hold_end(self, blocks: int) -> None:
        """Record the completed lock-hold window as a span.

        Retrospective (``add_span``) because the release may fire in a
        different callback than the acquisition -- the extended
        policies release from a t_r timer.
        """
        device = self.device
        if device is None or self._hold_start is None:
            return
        obs = device.obs
        if obs.enabled:
            now = device.sim.now
            obs.spans.add_span(
                "ra.lock_hold", self._hold_start, now,
                category="ra.locking", policy=self.name, blocks=blocks,
            )
            obs.metrics.histogram(
                "ra.lock_hold.duration",
                "time attested memory stayed locked (sim s)",
                policy=self.name,
            ).observe(now - self._hold_start)
        self._hold_start = None

    # -- hooks (all return MPU op counts) -------------------------------

    def on_start(self) -> int:
        """Called at t_s, before the first block is read."""
        return 0

    def before_block(self, block_index: int) -> int:
        """Called immediately before a block is snapshotted."""
        return 0

    def after_block(self, block_index: int) -> int:
        """Called after a block's hash contribution is computed."""
        return 0

    def on_end(self) -> int:
        """Called at t_e, after the last block."""
        return 0

    def on_release(self) -> int:
        """Called at t_r for extended policies (no-op otherwise)."""
        return 0

    # -- cleanup ------------------------------------------------------------

    def abort(self) -> None:
        """Unlock everything this policy still holds (error recovery)."""
        if self.device is None:
            return
        mpu = self.device.mpu
        for block_index, locked in enumerate(mpu.lock_bits):
            if locked:
                mpu.unlock(block_index)


class NoLock(LockingPolicy):
    """The strawman: memory is never locked (TrustLite-style)."""

    name = "no-lock"


class AllLock(LockingPolicy):
    """Lock all of M for the whole measurement.

    ``extended=True`` gives All-Lock-Ext: the lock is held past t_e
    until an explicit release at t_r.
    """

    def __init__(self, extended: bool = False) -> None:
        super().__init__()
        self.extended = extended
        self.name = "all-lock-ext" if extended else "all-lock"
        self.holds_after_end = extended

    def on_start(self) -> int:
        self.device.mpu.lock_all()
        self._mark_hold_start()
        return self.device.block_count

    def on_end(self) -> int:
        if self.extended:
            return 0
        self.device.mpu.unlock_all()
        self._record_hold_end(self.device.block_count)
        return self.device.block_count

    def on_release(self) -> int:
        if not self.extended:
            return 0
        self.device.mpu.unlock_all()
        self._record_hold_end(self.device.block_count)
        return self.device.block_count


class DecLock(LockingPolicy):
    """Decreasing Lock: all locked at t_s, released block by block.

    The measurement is consistent with M exactly at t_s, so anything
    resident at t_s -- including transient malware that would like to
    erase itself -- is captured (Section 3.1.2).
    """

    name = "dec-lock"
    _released = 0

    def reset(self, device: Device, order: Sequence[int]) -> None:
        super().reset(device, order)
        self._released = 0

    def on_start(self) -> int:
        self.device.mpu.lock_all()
        self._mark_hold_start()
        return self.device.block_count

    def after_block(self, block_index: int) -> int:
        self.device.mpu.unlock(block_index)
        self._released += 1
        if self._released == len(self.order):
            # The last measured block just unlocked; blocks outside a
            # region-restricted traversal stay locked until abort().
            self._record_hold_end(self.device.block_count)
        return 1


class IncLock(LockingPolicy):
    """Increasing Lock: each block locked as it is measured.

    All of M is locked only at t_e; the measurement is consistent with
    M exactly at t_e.  Self-relocating malware cannot outrun the lock
    front (it would have to write into a measured-and-locked block),
    but transient malware can still erase itself from a not-yet-locked
    block (Section 3.1.2).

    ``extended=True`` (Inc-Lock-Ext) holds the full lock until t_r.
    """

    def __init__(self, extended: bool = False) -> None:
        super().__init__()
        self.extended = extended
        self.name = "inc-lock-ext" if extended else "inc-lock"
        self.holds_after_end = extended

    def before_block(self, block_index: int) -> int:
        self.device.mpu.lock(block_index)
        self._mark_hold_start()
        return 1

    def on_end(self) -> int:
        if self.extended:
            return 0
        self.device.mpu.unlock_all()
        self._record_hold_end(len(self.order))
        return self.device.block_count

    def on_release(self) -> int:
        if not self.extended:
            return 0
        self.device.mpu.unlock_all()
        self._record_hold_end(len(self.order))
        return self.device.block_count


_POLICY_FACTORIES = {
    "no-lock": lambda: NoLock(),
    "all-lock": lambda: AllLock(extended=False),
    "all-lock-ext": lambda: AllLock(extended=True),
    "dec-lock": lambda: DecLock(),
    "inc-lock": lambda: IncLock(extended=False),
    "inc-lock-ext": lambda: IncLock(extended=True),
}

POLICY_NAMES = tuple(_POLICY_FACTORIES)


def make_policy(name: str) -> LockingPolicy:
    """Instantiate a locking policy by its canonical name."""
    factory = _POLICY_FACTORIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown locking policy {name!r}; known: {POLICY_NAMES}"
        )
    return factory()
