"""Experiment drivers: every paper artifact regenerates and makes the
claims the paper makes."""

import pytest

import repro.experiments as experiments
from repro.units import GiB, MiB


class TestFig1:
    def test_event_ordering(self):
        result = experiments.fig1_timeline(memory_mib=16)
        assert (
            result.request_sent
            < result.request_received
            <= result.t_s
            < result.t_e
            < result.report_received
            < result.verified
        )
        assert result.verdict == "healthy"

    def test_deferral_visible(self):
        deferred = experiments.fig1_timeline(memory_mib=16, deferral=0.2)
        prompt = experiments.fig1_timeline(memory_mib=16, deferral=0.0)
        gap_deferred = deferred.request_received - deferred.request_sent
        gap_prompt = prompt.request_received - prompt.request_sent
        assert gap_deferred == pytest.approx(gap_prompt + 0.2, abs=0.01)

    def test_render(self):
        text = experiments.fig1_timeline(memory_mib=16).render()
        assert "t_s" in text and "t_e" in text and "verdict" in text


class TestFig2:
    def test_report_holds_anchors(self):
        result = experiments.fig2_report()
        assert all(anchor.holds for anchor in result.anchors)

    def test_render_mentions_crossovers(self):
        text = experiments.fig2_report().render()
        assert "crossover" in text
        assert "rsa4096" in text


class TestFig3:
    def test_render(self):
        text = experiments.fig3_overview().render()
        assert "SMARM" in text and "ERASMUS" in text
        assert "Solution" in text  # the Table 1 header


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return experiments.fig4_consistency()

    def test_all_six_policies(self, result):
        assert [case.policy for case in result.cases] == [
            "no-lock", "all-lock", "all-lock-ext",
            "dec-lock", "inc-lock", "inc-lock-ext",
        ]

    def test_write_commit_pattern(self, result):
        by_policy = {case.policy: case for case in result.cases}
        # No-Lock: both mid-measurement writes land.
        assert by_policy["no-lock"].committed_writes["B"]
        assert by_policy["no-lock"].committed_writes["C"]
        # All-Lock: neither lands.
        assert not by_policy["all-lock"].committed_writes["B"]
        assert not by_policy["all-lock"].committed_writes["C"]
        # Dec-Lock: the early (already measured, released) block is
        # writable; the late (still locked) one is not.
        assert by_policy["dec-lock"].committed_writes["B"]
        assert not by_policy["dec-lock"].committed_writes["C"]
        # Inc-Lock: mirror image.
        assert not by_policy["inc-lock"].committed_writes["B"]
        assert by_policy["inc-lock"].committed_writes["C"]

    def test_write_A_and_D_never_matter(self, result):
        """Figure 4's caption: changes at A or D have no effect."""
        for case in result.cases:
            assert case.committed_writes["A"]  # before t_s: always lands
            if case.policy in ("all-lock-ext", "inc-lock-ext"):
                # D targets a locked block until t_r in ext variants.
                assert not case.committed_writes["D"]

    def test_consistency_claims(self, result):
        by_policy = {case.policy: case for case in result.cases}
        tolerance = 1e-3
        assert not by_policy["no-lock"].profile.any_consistent
        assert by_policy["dec-lock"].consistent_near(
            by_policy["dec-lock"].t_s, tolerance
        )
        assert not by_policy["dec-lock"].consistent_near(
            by_policy["dec-lock"].t_e, tolerance
        )
        assert by_policy["inc-lock"].consistent_near(
            by_policy["inc-lock"].t_e, tolerance
        )
        assert by_policy["all-lock-ext"].consistent_near(
            by_policy["all-lock-ext"].t_r, tolerance * 10
        )

    def test_render(self, result):
        text = result.render()
        assert "dec-lock" in text and "claim" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return experiments.fig5_qoa()

    def test_infection1_missed_infection2_caught(self, result):
        outcomes = {o.infection.label: o for o in result.timeline.outcomes}
        assert not outcomes["infection 1"].detected
        assert outcomes["infection 2"].detected

    def test_simulation_agrees_with_analysis(self, result):
        assert result.sim_detected == {
            "infection 1": False,
            "infection 2": True,
        }

    def test_render(self, result):
        text = result.render()
        assert "infection 1: undetected" in text
        assert "infection 2: DETECTED" in text


class TestFleetQoA:
    def test_one_seed_grid(self):
        from repro.core.qoa import QoAParameters

        result = experiments.fleet_qoa(seed_count=1)
        assert result.run_count == 9
        assert sorted(result.curves) == [
            (t_m, dwell)
            for t_m in (2.0, 4.0, 8.0)
            for dwell in (1.0, 3.0, 6.0)
        ]
        for (t_m, dwell), (analytic, empirical) in result.curves.items():
            assert analytic == QoAParameters(
                t_m, t_c=12.0
            ).detection_probability(dwell)
            assert 0.0 <= empirical <= 1.0
        assert "qoa-fleet: 9 runs" in result.summary_text


class TestSec24:
    def test_anchors(self):
        anchors = experiments.sec24_anchors()
        assert all(a.holds for a in anchors)


class TestSec25:
    @pytest.fixture(scope="class")
    def result(self):
        return experiments.sec25_firealarm(
            memory_bytes=GiB, mechanisms=["none", "smart", "inc-lock"]
        )

    def test_smart_mp_about_7_seconds(self, result):
        smart = next(r for r in result.rows if r.mechanism == "smart")
        assert smart.mp_duration == pytest.approx(7.0, rel=0.1)

    def test_smart_alarm_latency_in_seconds(self, result):
        smart = next(r for r in result.rows if r.mechanism == "smart")
        baseline = next(r for r in result.rows if r.mechanism == "none")
        assert smart.alarm_latency > 5.0
        assert baseline.alarm_latency < 1.0

    def test_interruptible_mechanism_preserves_alarm(self, result):
        inclock = next(r for r in result.rows if r.mechanism == "inc-lock")
        assert inclock.alarm_latency < 1.0

    def test_render(self, result):
        text = result.render()
        assert "fire alarm" in text and "smart" in text


class TestSec32:
    def test_render(self):
        text = experiments.sec32_smarm(n_blocks=32, trials=500).render()
        assert "e^-1" in text and "13" in text


class TestTable1:
    def test_all_claims_match(self):
        from repro.core.tradeoff import ScenarioConfig

        result = experiments.table1(
            config=ScenarioConfig(
                block_count=24, sim_block_size=MiB, horizon=35.0,
                t_m=2.0, t_c=25.0,
            )
        )
        mismatches = [row for row in result.claims if not row[4]]
        assert mismatches == []
        text = result.render()
        assert "every checkable Table 1 cell matches" in text
