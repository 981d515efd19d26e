"""Fault injection and protocol resilience.

The paper's Section 3.3 communication adversary (drop / delay /
inject) and the RA literature's standing assumptions -- unreliable
transports, prover resets (VRASED models them explicitly), drifting
clocks -- mean a faithful reproduction has to show each mechanism
*surviving* faults, not just running on a clean channel.  This package
provides the three pieces:

* :class:`FaultPlan` -- a deterministic, seeded schedule of network
  loss bursts, latency jitter, message corruption, prover resets and
  secure-timer clock drift, installed via :class:`FaultInjector`
  channel filters and :meth:`repro.sim.device.Device.reset`;
* :class:`RetryPolicy` -- per-exchange timeout with bounded
  retransmission, exponential backoff and DRBG-seeded jitter, consumed
  by the one verifier-side exchange,
  :class:`repro.ra.service.ExchangeDriver`;
* :class:`OutcomeReport` -- the degradation ledger classifying every
  exchange (``ok`` / ``retried-ok`` / ``timed-out`` /
  ``reset-aborted``) that folds into fire-alarm availability metrics
  and fleet run telemetry.

Everything here is strictly opt-in: with no plan and no retry policy,
simulations schedule exactly the events they always did, so
faults-disabled fleet campaigns stay byte-identical to the golden
artifacts.
"""

from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.outcome import (
    OUTCOME_OK,
    OUTCOME_RESET_ABORTED,
    OUTCOME_RETRIED_OK,
    OUTCOME_TIMED_OUT,
    ExchangeOutcome,
    OutcomeReport,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "OutcomeReport",
    "ExchangeOutcome",
    "OUTCOME_OK",
    "OUTCOME_RETRIED_OK",
    "OUTCOME_TIMED_OUT",
    "OUTCOME_RESET_ABORTED",
]
