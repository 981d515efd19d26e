"""SMARM: shuffled measurements against roving malware (Section 3.2).

SMARM keeps MP fully interruptible and locks nothing.  Its defense
against self-relocating malware is *secrecy of the traversal order*:
blocks are measured in a random permutation derived from the
attestation key, so malware -- which can observe only how many blocks
have been measured -- cannot tell whether any given block is already
covered.  The optimal adversary relocates to a uniformly random block
between block measurements and still escapes a single measurement with
probability about :math:`e^{-1} \\approx 0.37`; k independent
measurements drive the escape probability down exponentially
(about :math:`e^{-k}`; the paper: "after 13 checks that probability
is below 10^-6").

This module is the abstract game: :func:`escape_trial` /
:func:`escape_probability` play it by Monte Carlo against the closed
forms in :mod:`repro.analysis.smarm_math`, and import nothing but the
DRBG.  :class:`SmarmAttestation`, which configures the shared service
for shuffled, interruptible, multi-round measurement, lives in
:mod:`repro.ra.smarm_service`; it is still exported here, loaded on
first use.
"""

from __future__ import annotations

from repro import export_lazily
from repro.crypto.drbg import HmacDrbg

export_lazily(globals(), {"repro.ra.smarm_service": ("SmarmAttestation",)})


def escape_trial(n_blocks: int, drbg: HmacDrbg,
                 moves_per_block: int = 1) -> bool:
    """One abstract SMARM round: does uniform-relocating malware escape?

    This is the *analytical game* of [7], detached from the device
    simulator (the full-stack version runs in the integration tests):
    a secret permutation over ``n_blocks``; malware starts in a random
    block; before each block measurement it relocates to a uniformly
    random block ``moves_per_block`` times.  It escapes iff it is never
    inside the block being measured at measurement time.

    Returns True if the malware escaped.
    """
    order = drbg.permutation(n_blocks)
    position = drbg.randbelow(n_blocks)
    for measured_block in order:
        for _ in range(moves_per_block):
            position = drbg.randbelow(n_blocks)
        if position == measured_block:
            return False
    return True


def escape_probability(
    n_blocks: int,
    trials: int = 2000,
    seed: bytes = b"smarm-mc",
    moves_per_block: int = 1,
    metrics=None,
) -> float:
    """Monte-Carlo estimate of the single-round escape probability.

    Converges to ``((n-1)/n)**n`` -> ``e^-1`` for the uniform strategy
    (checked against :mod:`repro.analysis.smarm_math` in the tests).
    ``metrics`` optionally takes a
    :class:`repro.obs.metrics.MetricsRegistry` that accumulates trial
    and escape counts across experiment batches.
    """
    drbg = HmacDrbg(seed)
    escapes = sum(
        escape_trial(n_blocks, drbg, moves_per_block)
        for _ in range(trials)
    )
    if metrics is not None:
        game = f"uniform-{moves_per_block}"
        metrics.counter(
            "smarm.trials", "Monte-Carlo escape games played", game=game,
        ).inc(trials)
        metrics.counter(
            "smarm.escapes", "games the malware survived", game=game,
        ).inc(escapes)
    return escapes / trials


def multi_round_escape_probability(
    n_blocks: int,
    rounds: int,
    trials: int = 2000,
    seed: bytes = b"smarm-mc-rounds",
    metrics=None,
) -> float:
    """Monte-Carlo estimate that malware escapes ``rounds`` independent
    measurements in a row."""
    drbg = HmacDrbg(seed)
    survived = 0
    for _ in range(trials):
        if all(escape_trial(n_blocks, drbg) for _ in range(rounds)):
            survived += 1
    if metrics is not None:
        game = f"multi-{rounds}"
        metrics.counter(
            "smarm.trials", "Monte-Carlo escape games played", game=game,
        ).inc(trials)
        metrics.counter(
            "smarm.escapes", "games the malware survived", game=game,
        ).inc(survived)
    return survived / trials


def escape_trial_move_once(n_blocks: int, drbg: HmacDrbg) -> bool:
    """The suboptimal single-move strategy, as a game.

    Malware picks one random boundary (after ``j`` of ``n`` blocks are
    measured) and one uniform destination, and relocates exactly once.
    Used to validate :func:`repro.analysis.smarm_math.move_once_escape`
    (~1/6 for large n, vs e^-1 for the per-block mover).
    """
    order = drbg.permutation(n_blocks)
    position = drbg.randbelow(n_blocks)
    move_after = drbg.randbelow(n_blocks)  # boundary index j
    for step, measured_block in enumerate(order):
        if step == move_after:
            position = drbg.randbelow(n_blocks)
        if position == measured_block:
            return False
    return True


def move_once_escape_probability(
    n_blocks: int,
    trials: int = 2000,
    seed: bytes = b"smarm-mc-once",
) -> float:
    """Monte-Carlo estimate for the single-move strategy."""
    drbg = HmacDrbg(seed)
    escapes = sum(
        escape_trial_move_once(n_blocks, drbg) for _ in range(trials)
    )
    return escapes / trials
