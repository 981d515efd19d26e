"""QoA closed forms, cross-checked against Monte-Carlo simulation."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.analysis.qoa_math import (
    detection_probability,
    expected_detection_latency,
    required_t_m,
    worst_detection_latency,
)
from repro.errors import ParameterError


def undetected_window_fraction(dwell: float, t_m: float) -> float:
    """Fraction of infections that fit entirely between measurements
    (Figure 5's 'Infection 1')."""
    return 1.0 - detection_probability(dwell, t_m)


class TestDetectionProbability:
    def test_boundaries(self):
        assert detection_probability(0.0, 4.0) == 0.0
        assert detection_probability(4.0, 4.0) == 1.0
        assert detection_probability(9.0, 4.0) == 1.0

    def test_linear_below_period(self):
        assert detection_probability(1.0, 4.0) == pytest.approx(0.25)
        assert detection_probability(3.0, 4.0) == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ParameterError):
            detection_probability(-1.0, 4.0)
        with pytest.raises(ParameterError):
            detection_probability(1.0, 0.0)

    def test_monte_carlo_agreement(self):
        """Random-phase infections against a measurement grid."""
        rng = random.Random(7)
        t_m, dwell, trials = 4.0, 1.5, 4000
        hits = 0
        for _ in range(trials):
            phase = rng.uniform(0, t_m)
            # Infection [phase, phase + dwell); grid points k * t_m.
            first_grid = t_m  # the next measurement after t=0
            covered = phase <= first_grid <= phase + dwell or phase == 0.0
            if covered:
                hits += 1
        assert hits / trials == pytest.approx(
            detection_probability(dwell, t_m), abs=0.03
        )

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_complement(self, dwell, t_m):
        assert undetected_window_fraction(dwell, t_m) == pytest.approx(
            1.0 - detection_probability(dwell, t_m)
        )


class TestLatencies:
    def test_worst_case_sum(self):
        assert worst_detection_latency(4.0, 16.0) == 20.0

    def test_expected_latency_halves(self):
        # Long dwell: expect T_M/2 + T_C/2.
        assert expected_detection_latency(100.0, 4.0, 16.0) == (
            pytest.approx(2.0 + 8.0)
        )
        # Short dwell: conditional offset is dwell/2.
        assert expected_detection_latency(1.0, 4.0, 16.0) == (
            pytest.approx(0.5 + 8.0)
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            worst_detection_latency(0.0, 1.0)
        with pytest.raises(ParameterError):
            expected_detection_latency(1.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            expected_detection_latency(-1.0, 1.0, 1.0)


class TestSizing:
    def test_required_t_m(self):
        # To catch 2-second residencies with 80% probability, measure
        # at least every 2.5 s.
        assert required_t_m(2.0, 0.8) == pytest.approx(2.5)
        assert detection_probability(2.0, 2.5) == pytest.approx(0.8)

    def test_certain_detection_needs_t_m_at_most_dwell(self):
        assert required_t_m(3.0, 1.0) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            required_t_m(0.0, 0.5)
        with pytest.raises(ParameterError):
            required_t_m(1.0, 1.5)
