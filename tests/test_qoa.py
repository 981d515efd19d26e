"""Quality of Attestation: parameters, timelines, Figure 5 semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.core.qoa import (
    InfectionEvent,
    QoAParameters,
    QoATimeline,
    on_demand_equivalent,
)
from repro.errors import ConfigurationError


class TestParameters:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QoAParameters(t_m=0.0, t_c=1.0)
        with pytest.raises(ConfigurationError):
            QoAParameters(t_m=1.0, t_c=-1.0)

    def test_derived_quantities(self):
        params = QoAParameters(t_m=2.0, t_c=10.0)
        assert params.measurements_per_collection == pytest.approx(5.0)
        assert params.worst_detection_latency == 12.0

    def test_detection_probability(self):
        params = QoAParameters(t_m=4.0, t_c=16.0)
        assert params.detection_probability(0.0) == 0.0
        assert params.detection_probability(2.0) == pytest.approx(0.5)
        assert params.detection_probability(4.0) == 1.0
        assert params.detection_probability(99.0) == 1.0

    def test_negative_dwell_rejected(self):
        with pytest.raises(ConfigurationError):
            QoAParameters(t_m=1.0, t_c=1.0).detection_probability(-1.0)

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.0, max_value=200.0),
    )
    def test_probability_bounds(self, t_m, dwell):
        params = QoAParameters(t_m=t_m, t_c=t_m)
        p = params.detection_probability(dwell)
        assert 0.0 <= p <= 1.0

    def test_on_demand_conflates_both(self):
        params = on_demand_equivalent(30.0)
        assert params.t_m == params.t_c == 30.0


class TestInfectionEvent:
    def test_dwell(self):
        assert InfectionEvent(1.0, 3.5).dwell == pytest.approx(2.5)

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            InfectionEvent(3.0, 3.0)


class TestTimeline:
    def make(self):
        params = QoAParameters(t_m=4.0, t_c=16.0)
        return QoATimeline(params, horizon=36.0)

    def test_default_grids(self):
        timeline = self.make()
        assert timeline.measurement_times[0] == 0.0
        assert timeline.measurement_times[1] == 4.0
        assert timeline.collection_times[0] == 16.0
        assert max(timeline.measurement_times) <= 36.0

    def test_infection_between_measurements_undetected(self):
        timeline = self.make()
        outcome = timeline.add_infection(InfectionEvent(5.0, 7.5))
        assert not outcome.detected
        assert outcome.covering_measurement is None

    def test_infection_spanning_measurement_detected(self):
        timeline = self.make()
        outcome = timeline.add_infection(InfectionEvent(18.0, 21.0))
        assert outcome.detected
        assert outcome.covering_measurement == 20.0
        assert outcome.detected_at_collection == 32.0
        assert outcome.detection_latency == pytest.approx(14.0)

    def test_detection_needs_a_collection_afterwards(self):
        params = QoAParameters(t_m=4.0, t_c=16.0)
        timeline = QoATimeline(params, horizon=20.0)  # collections: 16
        outcome = timeline.add_infection(InfectionEvent(17.0, 21.0))
        # Covered by the t=20 measurement but no collection follows
        # within the horizon.
        assert outcome.covering_measurement == 20.0
        assert not outcome.detected

    def test_custom_instants(self):
        params = QoAParameters(t_m=4.0, t_c=16.0)
        timeline = QoATimeline(
            params, horizon=10.0,
            measurement_times=[1.0, 6.0],
            collection_times=[9.0],
        )
        outcome = timeline.add_infection(InfectionEvent(5.0, 7.0))
        assert outcome.covering_measurement == 6.0
        assert outcome.detected_at_collection == 9.0

    def test_render_shows_infections_and_marks(self):
        timeline = self.make()
        timeline.add_infection(InfectionEvent(5.0, 7.5, label="sneaky"))
        timeline.add_infection(InfectionEvent(18.0, 21.0, label="caught"))
        text = timeline.render()
        assert "M" in text and "C" in text
        assert "sneaky: undetected" in text
        assert "caught: DETECTED" in text
