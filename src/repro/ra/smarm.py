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
