"""FIG5 -- Quality of Attestation timeline (Figure 5).

Reproduces the figure's two-infection story -- a short residency
slipping between self-measurements (undetected) and a longer one
spanning a measurement (detected at the next collection) -- both
analytically and with a real ERASMUS prover run.
"""

import pytest

from repro.experiments import fig5_qoa

from tests.paper.conftest import banner


def test_fig5_qoa():
    result = fig5_qoa(t_m=4.0, t_c=16.0, horizon=36.0)
    print(banner("Figure 5: QoA -- measurements (T_M) vs collections (T_C)"))
    print(result.render())

    outcomes = {o.infection.label: o for o in result.timeline.outcomes}
    assert not outcomes["infection 1"].detected
    assert outcomes["infection 2"].detected
    # The full-stack ERASMUS run agrees with the analytic timeline.
    assert result.sim_detected == {
        "infection 1": False,
        "infection 2": True,
    }
    # Detection latency decomposes into measurement + collection waits.
    caught = outcomes["infection 2"]
    assert caught.detection_latency is not None
    assert caught.detection_latency <= (
        result.params.worst_detection_latency + result.params.t_m
    )


def test_fig5_on_demand_conflation():
    """Figure 5's premise: on-demand RA conjoins the two QoA knobs;
    decoupling them lets T_M shrink without touching Vrf load."""
    from repro.core.qoa import QoAParameters, on_demand_equivalent

    on_demand = on_demand_equivalent(16.0)
    erasmus = QoAParameters(t_m=4.0, t_c=16.0)
    dwell = 6.0
    print(banner("QoA comparison for a 6 s transient residency"))
    print(
        f"  on-demand every 16 s : P(detect) = "
        f"{on_demand.detection_probability(dwell):.2f}"
    )
    print(
        f"  ERASMUS T_M=4, T_C=16: P(detect) = "
        f"{erasmus.detection_probability(dwell):.2f}"
    )
    assert on_demand.detection_probability(dwell) == pytest.approx(0.375)
    assert erasmus.detection_probability(dwell) == 1.0
