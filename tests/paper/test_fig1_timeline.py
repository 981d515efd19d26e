"""FIG1 -- the on-demand RA timeline (Figure 1).

Regenerates the event sequence of Figure 1 (request, deferred start,
t_s, t_e, report, verification) from a full protocol run and asserts
its ordering and the deferral the caption describes.
"""

import pytest

from repro.experiments import fig1_timeline

from tests.paper.conftest import banner


def test_fig1_timeline():
    result = fig1_timeline(memory_mib=64, deferral=0.05)
    print(banner("Figure 1: timeline for an on-demand RA scheme"))
    print(result.render())

    # Shape claims: strict event ordering, MP dominates the round trip.
    assert (
        result.request_sent
        < result.request_received
        <= result.t_s
        < result.t_e
        < result.report_received
        < result.verified
    )
    mp_time = result.t_e - result.t_s
    network_time = (result.request_received - result.request_sent) + (
        result.report_received - result.t_e
    )
    assert mp_time > network_time
    assert result.verdict == "healthy"


def test_fig1_deferral_sweep():
    """The caption: MP 'may be deferred on Prv due to networking
    delays, Vrf's request authentication, or termination of the
    previously running task' -- t_s tracks the deferral linearly."""

    rows = [
        (deferral, fig1_timeline(memory_mib=16, deferral=deferral))
        for deferral in (0.0, 0.05, 0.2)
    ]
    print(banner("Figure 1 sweep: request deferral vs t_s"))
    for deferral, result in rows:
        print(
            f"  deferral={deferral * 1e3:6.1f}ms  "
            f"t_s={result.t_s:.4f}s  round_trip="
            f"{result.verified - result.request_sent:.4f}s"
        )
    baseline = rows[0][1].t_s
    for deferral, result in rows[1:]:
        assert result.t_s - baseline == pytest.approx(deferral, abs=0.01)
