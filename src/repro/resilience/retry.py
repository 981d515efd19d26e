"""Bounded retransmission with exponential backoff and seeded jitter.

A lost ``att_request`` or ``att_report`` must not kill the exchange:
the verifier waits ``timeout`` seconds for the report, retransmits the
*same* challenge (same nonce -- the prover's dedup cache makes the
retransmission idempotent), and backs off exponentially with a little
jitter so a fleet of verifiers does not synchronize its retry bursts.

Jitter comes from an HMAC-DRBG keyed by the policy seed and the
exchange nonce, so the whole backoff sequence is a pure function of
``(policy, nonce)`` -- two runs of the same seeded scenario retry at
byte-identical times, which is what the determinism tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retransmission parameters for one request/report exchange.

    ``timeout`` is the wait before the first retransmission; each
    subsequent wait multiplies by ``backoff`` and is capped at
    ``max_timeout``.  ``max_retries`` counts *retransmissions*, so an
    exchange sends at most ``1 + max_retries`` challenges.  ``jitter``
    spreads each wait uniformly over ``[wait * (1 - jitter),
    wait * (1 + jitter)]``.
    """

    timeout: float = 1.0
    max_retries: int = 5
    backoff: float = 2.0
    max_timeout: float = 30.0
    jitter: float = 0.1
    seed: bytes = b"repro-retry"

    def __post_init__(self) -> None:
        # Negated comparisons, so NaN fails each check.
        if not self.timeout > 0:
            raise ConfigurationError("timeout must be positive")
        if not (isinstance(self.max_retries, int) and self.max_retries >= 0):
            raise ConfigurationError("max_retries must be an integer >= 0")
        if not self.backoff >= 1.0:
            raise ConfigurationError("backoff must be >= 1")
        if not self.max_timeout > 0:
            raise ConfigurationError("max_timeout must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")

    @property
    def max_attempts(self) -> int:
        """Total challenge transmissions an exchange may make."""
        return 1 + self.max_retries

    def drbg_for(self, nonce: bytes) -> HmacDrbg:
        """The jitter stream for one exchange, keyed by its nonce."""
        return HmacDrbg(self.seed + b"|retry|" + nonce)

    def wait_before(self, attempt: int,
                    drbg: Optional[HmacDrbg] = None) -> float:
        """Seconds to wait for attempt number ``attempt`` (1-based: the
        wait after sending the ``attempt``-th challenge).

        Pass the exchange's :meth:`drbg_for` stream to jitter the
        sequence; ``None`` returns the un-jittered backoff curve.
        """
        if attempt < 1:
            raise ConfigurationError("attempt is 1-based")
        wait = min(
            self.timeout * self.backoff ** (attempt - 1), self.max_timeout
        )
        if self.jitter and drbg is not None:
            wait *= 1.0 + self.jitter * (2.0 * drbg.uniform() - 1.0)
        return wait

    def schedule(self, nonce: bytes) -> list:
        """The full deterministic wait sequence for one exchange."""
        drbg = self.drbg_for(nonce)
        return [
            self.wait_before(attempt, drbg)
            for attempt in range(1, self.max_attempts + 1)
        ]
