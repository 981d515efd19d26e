"""Closed forms for Quality of Attestation (Section 3.3, Figure 5).

Transient malware resides for ``dwell`` seconds; the prover
self-measures every ``T_M``; the verifier collects every ``T_C``.
Measurements are treated as instants (their duration is much smaller
than T_M in the regimes of interest; the simulator version relaxes
this).  Infection phase is uniform over the measurement period.
"""

from __future__ import annotations

from repro.errors import ParameterError


def detection_probability(dwell: float, t_m: float) -> float:
    """P(at least one measurement instant lands inside the residency).

    With measurements at ``k * T_M`` and a uniformly random infection
    phase, the residency interval of length ``dwell`` covers a grid
    point with probability ``min(1, dwell / T_M)``.
    """
    if dwell < 0:
        raise ParameterError("dwell must be non-negative")
    if t_m <= 0:
        raise ParameterError("T_M must be positive")
    return min(1.0, dwell / t_m)


def worst_detection_latency(t_m: float, t_c: float) -> float:
    """Worst case from infection start to verifier awareness.

    The first covering measurement can be up to T_M after infection
    start, and the collection conveying it up to T_C after that.
    """
    if t_m <= 0 or t_c <= 0:
        raise ParameterError("periods must be positive")
    return t_m + t_c


def expected_detection_latency(dwell: float, t_m: float,
                               t_c: float) -> float:
    """Expected infection-start-to-detection latency, *conditioned on
    detection*, for uniform phase.

    The covering measurement happens, in expectation, half a period
    after infection start when ``dwell >= T_M`` (the first grid point
    inside the interval is uniform over [0, T_M)); for shorter dwells
    the conditional offset is uniform over [0, dwell).  Collections add
    an independent uniform [0, T_C) wait.
    """
    if t_m <= 0 or t_c <= 0:
        raise ParameterError("periods must be positive")
    if dwell < 0:
        raise ParameterError("dwell must be non-negative")
    measurement_offset = min(dwell, t_m) / 2.0
    return measurement_offset + t_c / 2.0


def required_t_m(dwell: float, target_probability: float) -> float:
    """Largest T_M whose detection probability for ``dwell`` meets the
    target -- how the defender sizes the self-measurement period."""
    if not 0 < target_probability <= 1:
        raise ParameterError("target_probability must be in (0, 1]")
    if dwell <= 0:
        raise ParameterError("dwell must be positive")
    return dwell / target_probability
