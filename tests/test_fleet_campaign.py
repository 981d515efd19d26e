"""Campaign specs and the planner."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    CANNED_CAMPAIGNS,
    DEVICE_CLASSES,
    CampaignSpec,
    Cohort,
    RunSpec,
    canned_campaign,
    hetero_fleet_campaign,
    qoa_fleet_campaign,
)


def small_campaign() -> CampaignSpec:
    return CampaignSpec(
        name="unit",
        base={"block_count": 8, "horizon": 10.0},
        axes={
            "mechanism": ["smart", "erasmus"],
            "adversary": ["none", "transient"],
        },
        seeds=range(3),
    )


class TestRunSpec:
    def test_round_trip(self):
        spec = RunSpec(mechanism="smarm", adversary="relocating", seed=42)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_run_id_is_content_derived(self):
        a = RunSpec(mechanism="smart", seed=1)
        b = RunSpec(mechanism="smart", seed=1)
        assert a.run_id == b.run_id
        assert a.run_id != RunSpec(mechanism="smart", seed=2).run_id
        assert a.run_id != a.with_overrides(horizon=99.0).run_id

    def test_run_id_readable_prefix(self):
        spec = RunSpec(mechanism="erasmus", adversary="transient", seed=5)
        assert spec.run_id.startswith("erasmus-transient-s0005-")

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(mechanism="quantum")

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(adversary="alien")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec.from_dict({"mechanism": "smart", "bogus": 1})

    @pytest.mark.parametrize("name", ["horizon", "t_m", "t_c"])
    @pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0])
    def test_timing_outside_bound_rejected(self, name, value):
        # rejected at plan time, not mid-run in a worker
        with pytest.raises(ConfigurationError,
                           match=f"^{name} must be positive$"):
            RunSpec(mechanism="seed", **{name: value})

    @pytest.mark.parametrize("probe_count", [-1, 2.5, float("nan")])
    def test_probe_count_outside_bound_rejected(self, probe_count):
        with pytest.raises(ConfigurationError, match="^probe_count must"):
            RunSpec(probe_count=probe_count)

    @pytest.mark.parametrize("trace_limit", [0, -5, 2.5, float("nan")])
    def test_trace_limit_outside_bound_rejected(self, trace_limit):
        with pytest.raises(ConfigurationError, match="^trace_limit must"):
            RunSpec(trace_limit=trace_limit)

    @pytest.mark.parametrize("timeout", [float("nan"), -1.0])
    def test_timeout_outside_bound_rejected(self, timeout):
        with pytest.raises(ConfigurationError, match="^timeout must"):
            RunSpec(timeout=timeout)

    def test_limit_edges_accepted(self):
        spec = RunSpec(trace_limit=1, timeout=0.0)
        assert (spec.trace_limit, spec.timeout) == (1, 0.0)
        assert RunSpec(timeout=2.5).timeout == 2.5

    def test_zero_probe_count_stays_out_of_the_identity(self):
        spec = RunSpec(mechanism="smart", seed=1)
        assert "probe_count" not in spec.to_dict()
        assert spec.run_id == RunSpec.from_dict(spec.to_dict()).run_id
        probed = spec.with_overrides(probe_count=6)
        assert probed.to_dict()["probe_count"] == 6
        assert probed.run_id != spec.run_id


class TestPlanner:
    def test_expansion_count(self):
        campaign = small_campaign()
        specs = campaign.plan()
        assert len(specs) == 2 * 2 * 3 == campaign.run_count

    def test_plan_is_deterministic(self):
        first = [spec.run_id for spec in small_campaign().plan()]
        second = [spec.run_id for spec in small_campaign().plan()]
        assert first == second

    def test_run_ids_unique(self):
        ids = [spec.run_id for spec in small_campaign().plan()]
        assert len(set(ids)) == len(ids)

    def test_base_fields_applied(self):
        for spec in small_campaign().plan():
            assert spec.block_count == 8
            assert spec.horizon == 10.0
            assert spec.campaign == "unit"

    def test_axis_order_independent(self):
        reordered = CampaignSpec(
            name="unit",
            base={"block_count": 8, "horizon": 10.0},
            axes={
                "adversary": ["none", "transient"],
                "mechanism": ["smart", "erasmus"],
            },
            seeds=range(3),
        )
        assert [s.run_id for s in reordered.plan()] == [
            s.run_id for s in small_campaign().plan()
        ]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="bad", axes={"warp_factor": [9]})

    def test_overlapping_base_and_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(
                name="bad",
                base={"mechanism": "smart"},
                axes={"mechanism": ["smart"]},
            )

    def test_seed_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="bad", axes={"seed": [1, 2]})

    def test_campaign_round_trip(self):
        campaign = small_campaign()
        clone = CampaignSpec.from_dict(campaign.to_dict())
        assert clone.spec_hash == campaign.spec_hash
        assert [s.run_id for s in clone.plan()] == [
            s.run_id for s in campaign.plan()
        ]


def cohort_campaign() -> CampaignSpec:
    return CampaignSpec(
        name="hetero-unit",
        base={"adversary": "transient", "horizon": 10.0},
        cohorts=[
            Cohort(
                name="sensors",
                base={"device_class": "sensor", "mechanism": "erasmus"},
                axes={"firmware": ["fw-1.0", "fw-1.1"]},
            ),
            Cohort(
                name="gateways",
                base={"device_class": "gateway", "mechanism": "smart"},
                seeds=[3, 4],
            ),
        ],
        seeds=[7],
    )


class TestHeterogeneousPlanning:
    def test_device_class_presets_applied(self):
        specs = cohort_campaign().plan()
        sensors = [s for s in specs if s.cohort == "sensors"]
        gateways = [s for s in specs if s.cohort == "gateways"]
        assert sensors and gateways
        for spec in sensors:
            assert spec.block_count == DEVICE_CLASSES["sensor"]["block_count"]
        for spec in gateways:
            assert spec.block_count == DEVICE_CLASSES["gateway"]["block_count"]

    def test_cohort_axes_and_seeds(self):
        specs = cohort_campaign().plan()
        sensors = [s for s in specs if s.cohort == "sensors"]
        gateways = [s for s in specs if s.cohort == "gateways"]
        # sensors: 2 firmware values x campaign seed [7]
        assert sorted(s.firmware for s in sensors) == ["fw-1.0", "fw-1.1"]
        assert {s.seed for s in sensors} == {7}
        # gateways: cohort seeds override the campaign's
        assert {s.seed for s in gateways} == {3, 4}

    def test_cohort_round_trip_preserves_plan(self):
        campaign = cohort_campaign()
        clone = CampaignSpec.from_dict(campaign.to_dict())
        assert clone.spec_hash == campaign.spec_hash
        assert [s.run_id for s in clone.plan()] == [
            s.run_id for s in campaign.plan()
        ]

    def test_firmware_distinguishes_run_ids(self):
        a = RunSpec(mechanism="smart", seed=1, firmware="fw-1.0")
        b = RunSpec(mechanism="smart", seed=1, firmware="fw-1.1")
        assert a.run_id != b.run_id

    def test_unknown_device_class_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(mechanism="smart", device_class="toaster")

    def test_duplicate_cohort_names_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(
                name="bad",
                cohorts=[Cohort(name="a"), Cohort(name="a")],
            )

    def test_flat_spec_hash_unchanged_by_cohort_support(self):
        # to_dict only grows a "cohorts" key when cohorts exist, so
        # pre-cohort campaign hashes (and golden artifacts keyed on
        # them) are untouched
        campaign = small_campaign()
        assert "cohorts" not in campaign.to_dict()

    def test_hetero_canned_campaign_plans(self):
        campaign = hetero_fleet_campaign()
        specs = campaign.plan()
        assert campaign.run_count == len(specs) > 0
        assert {s.cohort for s in specs} == {
            "sensors", "actuators", "gateways"
        }


class TestCannedCampaigns:
    def test_qoa_is_fleet_scale(self):
        assert qoa_fleet_campaign().run_count >= 50

    def test_registry_names_resolve(self):
        for name in CANNED_CAMPAIGNS:
            campaign = canned_campaign(name)
            assert campaign.run_count > 0
            assert campaign.plan()

    def test_seed_count_override(self):
        assert canned_campaign("qoa", seed_count=2).run_count == 18

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            canned_campaign("nope")
