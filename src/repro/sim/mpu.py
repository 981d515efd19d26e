"""Memory Protection Unit: per-block lock bits.

The memory-locking mechanisms of Section 3.1 ([5], prototyped on
HYDRA/seL4) make regions *temporarily read-only* during measurement.
This module is the hardware half of that design: a lock bit per block,
checked on every write, with accounting of how long each block stayed
locked (the paper's "writable memory availability" column in Table 1).

Lock and unlock calls carry a configurable syscall cost hook so the
locking mechanisms can charge simulated time for MPU reconfiguration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.errors import LockStateError, MemoryFault
from repro.sim.engine import Signal, Simulator


class FaultPolicy(enum.Enum):
    """What a write to a locked block does to the writer.

    ``RAISE``
        The write faults -- :class:`MemoryFault` propagates to the
        writer, which may catch it and retry (how our tasks model
        "task delayed by locking").
    ``DROP``
        The write is silently discarded (write-ignore hardware).
    """

    RAISE = "raise"
    DROP = "drop"


@dataclass(frozen=True)
class FaultRecord:
    """One rejected write attempt."""

    time: float
    block: int
    actor: str


@dataclass(frozen=True)
class LockInterval:
    """A closed interval during which one block was locked."""

    block: int
    locked_at: float
    released_at: float

    @property
    def duration(self) -> float:
        return self.released_at - self.locked_at


class MemoryProtectionUnit:
    """Per-block lock bits with fault accounting.

    The MPU is deliberately mechanism-free: *policies* (All-Lock,
    Dec-Lock, Inc-Lock, ...) live in :mod:`repro.ra.locking` and drive
    the MPU through :meth:`lock` / :meth:`unlock`.
    """

    def __init__(
        self,
        sim: Simulator,
        block_count: int,
        policy: FaultPolicy = FaultPolicy.RAISE,
    ) -> None:
        self.sim = sim
        self.block_count = block_count
        self.policy = policy
        #: per-block lock bits, read by :class:`~repro.sim.memory.Memory`
        #: to skip :meth:`check_write` for an unlocked block; only
        #: :meth:`lock` / :meth:`unlock` / :meth:`reset` assign them
        self.lock_bits: List[bool] = [False] * block_count
        self._locked_since: List[Optional[float]] = [None] * block_count
        self.faults: List[FaultRecord] = []
        self.lock_history: List[LockInterval] = []
        self.release_signal = Signal(sim, "mpu.release")
        self.lock_ops = 0
        self.unlock_ops = 0

    # -- state ----------------------------------------------------------

    def is_locked(self, block_index: int) -> bool:
        return self.lock_bits[block_index]

    def locked_blocks(self) -> List[int]:
        return [i for i, flag in enumerate(self.lock_bits) if flag]

    def locked_count(self) -> int:
        return sum(self.lock_bits)

    # -- configuration ----------------------------------------------------

    def lock(self, block_index: int) -> None:
        """Make one block read-only.  Idempotent locking is an error:
        the mechanisms in the paper never double-lock, so a double lock
        indicates a policy bug and raises :class:`LockStateError`."""
        if self.lock_bits[block_index]:
            raise LockStateError(f"block {block_index} already locked")
        self.lock_bits[block_index] = True
        self._locked_since[block_index] = self.sim.now
        self.lock_ops += 1

    def unlock(self, block_index: int) -> None:
        """Release one block.  Fires :attr:`release_signal` so writers
        blocked on a fault can retry."""
        if not self.lock_bits[block_index]:
            raise LockStateError(f"block {block_index} not locked")
        self.lock_bits[block_index] = False
        since = self._locked_since[block_index]
        self._locked_since[block_index] = None
        if since is not None:
            self.lock_history.append(
                LockInterval(block_index, since, self.sim.now)
            )
        self.unlock_ops += 1
        self.release_signal.fire(block_index)

    def lock_many(self, blocks: Iterable[int]) -> None:
        for block_index in blocks:
            self.lock(block_index)

    def unlock_many(self, blocks: Iterable[int]) -> None:
        for block_index in blocks:
            self.unlock(block_index)

    def lock_all(self) -> None:
        self.lock_many(
            i for i in range(self.block_count) if not self.lock_bits[i]
        )

    def unlock_all(self) -> None:
        self.unlock_many(
            i for i in range(self.block_count) if self.lock_bits[i]
        )

    def reset(self) -> int:
        """Clear every lock bit (device reset / brownout).

        MPU configuration registers are volatile: after a reset **all
        lock bits are cleared** and every block is writable again --
        this is the documented post-reset state the resilience tests
        pin down.  Open lock intervals are closed at the current time
        so lock-hold accounting stays consistent, but -- unlike
        :meth:`unlock` -- no ``release_signal`` fires and no unlock
        ops are charged: nothing executed the release, the hardware
        simply forgot.  Returns the number of bits cleared.
        """
        cleared = 0
        for block_index in range(self.block_count):
            if not self.lock_bits[block_index]:
                continue
            self.lock_bits[block_index] = False
            since = self._locked_since[block_index]
            self._locked_since[block_index] = None
            if since is not None:
                self.lock_history.append(
                    LockInterval(block_index, since, self.sim.now)
                )
            cleared += 1
        return cleared

    # -- enforcement ------------------------------------------------------

    def check_write(self, block_index: int, actor: str) -> bool:
        """Called by :class:`~repro.sim.memory.Memory` on every write
        to a locked block (an unlocked one needs no check).

        Returns ``True`` if the write may proceed.  For a locked block:
        under :attr:`FaultPolicy.RAISE` a :class:`MemoryFault` is raised
        to the writer; under :attr:`FaultPolicy.DROP` the method returns
        ``False`` and the memory silently discards the write.
        """
        if not self.lock_bits[block_index]:
            return True
        self.faults.append(FaultRecord(self.sim.now, block_index, actor))
        if self.policy is FaultPolicy.RAISE:
            raise MemoryFault(block_index)
        return False

    # -- accounting ---------------------------------------------------------

    def total_locked_time(self) -> float:
        """Sum of completed per-block lock durations (block-seconds)."""
        return sum(interval.duration for interval in self.lock_history)

    def mean_lock_duration(self) -> float:
        if not self.lock_history:
            return 0.0
        return self.total_locked_time() / len(self.lock_history)

    def fault_count_by_actor(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.faults:
            counts[record.actor] = counts.get(record.actor, 0) + 1
        return counts
