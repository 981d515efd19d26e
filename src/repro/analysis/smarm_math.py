"""SMARM escape probability, in closed form (Section 3.2, after [7]).

The game: memory has ``n`` blocks, measured once each in a secret
uniform order.  Malware occupies one block; before each block
measurement it may relocate.  With the uniform strategy (relocate to a
uniformly random block, the optimum established in [7] when only the
progress count is observable), each of the ``n`` block measurements
independently misses the malware with probability ``(n-1)/n``, so

    P(escape one measurement) = ((n-1)/n)^n  ->  e^-1  ~  0.368.

``k`` independent measurements multiply:

    P(escape k measurements) = (((n-1)/n)^n)^k  ~  e^-k,

hence the paper's "after 13 checks that probability is below 10^-6"
(e^-13 ~ 2.3e-6 with the limit value; the exact finite-n probability
for the block counts of real devices crosses 1e-6 at 13-14 rounds --
the benchmark prints the exact table).
"""

from __future__ import annotations

import math

from repro.errors import ParameterError


def single_round_escape(n_blocks: int, moves_per_block: int = 1) -> float:
    """Exact escape probability of the uniform strategy for ``n`` blocks.

    ``moves_per_block`` > 1 does not help the malware (each extra move
    re-randomizes an already-uniform position), so the value is
    independent of it; the parameter exists to mirror the simulation's
    signature and is validated by tests.
    """
    if n_blocks < 2:
        raise ParameterError("need at least 2 blocks for the game")
    if moves_per_block < 1:
        raise ParameterError("malware must move at least once per block")
    return ((n_blocks - 1) / n_blocks) ** n_blocks


def single_round_escape_limit() -> float:
    """The n -> infinity limit, e^-1."""
    return math.exp(-1.0)


def multi_round_escape(n_blocks: int, rounds: int) -> float:
    """Escape probability across ``rounds`` independent measurements."""
    if rounds < 0:
        raise ParameterError("rounds must be non-negative")
    return single_round_escape(n_blocks) ** rounds


def rounds_for_confidence(
    n_blocks: int, target_escape: float = 1e-6
) -> int:
    """Smallest round count whose residual escape probability is below
    ``target_escape``.

    For the e^-1 limit and 1e-6 this is ceil(6 ln 10) = 14; for finite
    n it is slightly smaller because ((n-1)/n)^n < e^-1.
    """
    if not 0 < target_escape < 1:
        raise ParameterError("target_escape must be in (0, 1)")
    per_round = single_round_escape(n_blocks)
    return math.ceil(math.log(target_escape) / math.log(per_round))


def stay_put_escape(n_blocks: int) -> float:
    """Escape probability of the 'stay' strategy: zero -- a full
    traversal always covers the resident block."""
    if n_blocks < 1:
        raise ParameterError("need at least 1 block")
    return 0.0


def move_once_escape(n_blocks: int) -> float:
    """Escape probability when malware relocates exactly once during
    the whole measurement, at a uniformly random boundary, to a
    uniformly random block.

    The move happens after ``j`` of ``n`` blocks are measured
    (j uniform on 0..n-1).  The original block survives the first j
    measurements of a uniform permutation with probability (n-j)/n;
    the uniform destination then escapes the remaining n-j
    measurements only if it lands among the already-measured j blocks,
    probability j/n.  Averaging over j:

        P = (1/n) * sum_{j=0}^{n-1} [(n-j)/n] * (j/n)

    which tends to 1/6 for large n -- strictly worse than the uniform
    per-block strategy's e^-1, illustrating why [7]'s optimal malware
    moves every block.  Validated by Monte-Carlo in the tests.
    """
    if n_blocks < 2:
        raise ParameterError("need at least 2 blocks")
    n = n_blocks
    total = 0.0
    for j in range(n):
        survive_until_move = (n - j) / n
        land_safe = j / n
        total += survive_until_move * land_safe
    return total / n
