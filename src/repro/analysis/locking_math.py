"""Expected write-delay models for the locking mechanisms (Section 3.1).

A writer that targets block ``b`` at a uniformly random instant inside
the measurement window ``[t_s, t_e]`` is delayed until ``b`` unlocks.
With a sequential traversal of ``n`` equal blocks each taking ``d``
seconds (total ``T = n*d``), block ``b`` (0-indexed, in traversal
order) is:

* **All-Lock**: locked for the whole window -- expected residual delay
  ``T/2`` regardless of ``b`` (and ``t_r - arrival`` for the extended
  variant);
* **Dec-Lock**: locked during ``[t_s, t_s + (b+1) d]`` -- early blocks
  free up quickly, late blocks wait;
* **Inc-Lock**: locked during ``[t_s + b d, t_e]`` -- *late* blocks are
  locked briefly, which is why Inc-Lock should "end ... with blocks
  that require high availability";
* **No-Lock / SMARM**: never locked, zero delay.

These close forms calibrate the locking ablation bench and are checked
against simulation in the tests.
"""

from __future__ import annotations

from repro.errors import ParameterError


def _validate(n_blocks: int, block_position: int, block_time: float) -> None:
    if n_blocks < 1:
        raise ParameterError("need at least one block")
    if not 0 <= block_position < n_blocks:
        raise ParameterError("block_position out of range")
    if block_time <= 0:
        raise ParameterError("block_time must be positive")


def lock_exposure(policy: str, n_blocks: int, block_position: int,
                  block_time: float) -> float:
    """Seconds block ``block_position`` spends locked during one
    measurement under ``policy``."""
    _validate(n_blocks, block_position, block_time)
    total = n_blocks * block_time
    if policy == "no-lock":
        return 0.0
    if policy == "all-lock":
        return total
    if policy == "dec-lock":
        return (block_position + 1) * block_time
    if policy == "inc-lock":
        return total - block_position * block_time
    raise ParameterError(f"unknown policy {policy!r}")


def expected_block_delay(policy: str, n_blocks: int, block_position: int,
                         block_time: float) -> float:
    """Expected wait of a write arriving uniformly inside [t_s, t_e].

    For a block locked during a sub-interval of length ``L`` inside a
    window of length ``T``, a uniform arrival lands inside the locked
    interval with probability ``L/T`` and then waits for the remaining
    lock time, uniform over [0, L]: expected delay = L^2 / (2 T).
    """
    _validate(n_blocks, block_position, block_time)
    total = n_blocks * block_time
    locked = lock_exposure(policy, n_blocks, block_position, block_time)
    return locked * locked / (2.0 * total)
