"""The cross-mechanism evaluation harness (empirical Table 1)."""

from dataclasses import replace

import pytest

from repro.core.solution import Feature
from repro.core.tradeoff import (
    ScenarioConfig,
    evaluate_all,
)
from repro.errors import ConfigurationError
from repro.fleet.campaign import RunSpec
from repro.fleet.executor import SHARED_FIELDS, execute_run
from repro.units import MiB

# One reduced-geometry config shared by the module (fast, same physics).
FAST = ScenarioConfig(
    block_count=24,
    sim_block_size=MiB,
    rounds=13,
    horizon=35.0,
    t_m=2.0,
    t_c=25.0,
)


@pytest.fixture(scope="module")
def matrix():
    return evaluate_all(config=FAST)


class TestMatrixStructure:
    def test_all_cells_present(self, matrix):
        keys = {m for m, _ in matrix.outcomes}
        assert keys == {
            "smart", "all-lock", "dec-lock", "inc-lock",
            "smarm", "erasmus", "no-lock",
        }
        for key in keys:
            for adversary in ("none", "relocating", "transient"):
                assert (key, adversary) in matrix.outcomes

    def test_render_has_all_rows(self, matrix):
        text = matrix.render()
        for key in ("smart", "dec-lock", "smarm", "erasmus"):
            assert key in text

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_all(mechanisms=["quantum"], config=FAST)

    @pytest.mark.parametrize("name,value", [
        ("relocation_strategy", "uniform"),
        ("relocation_seed", 5),
        ("alarm_writes", False),
        ("seed_shared", b"k" * 16),
    ])
    def test_config_field_no_spec_sets_is_rejected(self, name, value):
        # never dropped silently: a RunSpec cannot carry it
        with pytest.raises(ConfigurationError, match=name):
            evaluate_all(
                mechanisms=["smart"], config=replace(FAST, **{name: value})
            )

    def test_probe_count_set_in_the_config_is_kept(self):
        small = evaluate_all(
            mechanisms=["no-lock"], adversaries=("none",),
            config=replace(FAST, probe_count=3),
        )
        assert small.outcome("no-lock", "none").probes == {
            "attempted": 3, "succeeded": 3,
        }


class TestNoFalsePositives:
    def test_clean_runs_stay_healthy(self, matrix):
        for mechanism in ("smart", "all-lock", "dec-lock", "inc-lock",
                          "smarm", "erasmus", "no-lock"):
            assert not matrix.false_positive(mechanism), mechanism


class TestDetectionCells:
    def test_relocating_column(self, matrix):
        assert matrix.detects_relocating("smart")
        assert matrix.detects_relocating("all-lock")
        assert matrix.detects_relocating("dec-lock")
        assert matrix.detects_relocating("inc-lock")
        assert matrix.detects_relocating("smarm")
        assert matrix.detects_relocating("erasmus")
        assert not matrix.detects_relocating("no-lock")

    def test_transient_column(self, matrix):
        assert matrix.detects_transient("smart")
        assert matrix.detects_transient("all-lock")
        assert matrix.detects_transient("dec-lock")
        assert matrix.detects_transient("erasmus")
        assert not matrix.detects_transient("inc-lock")
        assert not matrix.detects_transient("smarm")
        assert not matrix.detects_transient("no-lock")


class TestAvailabilityCells:
    def test_writable_availability(self, matrix):
        assert matrix.writable_availability("smart") is Feature.NO
        assert matrix.writable_availability("all-lock") is Feature.NO
        assert matrix.writable_availability("smarm") is Feature.YES
        assert matrix.writable_availability("no-lock") is Feature.YES
        assert matrix.writable_availability("dec-lock") in (
            Feature.PARTIAL, Feature.YES,
        )

    def test_interruptibility(self, matrix):
        assert matrix.interruptibility("smart") is Feature.NO
        assert matrix.interruptibility("erasmus") is Feature.NO
        assert matrix.interruptibility("smarm") in (
            Feature.YES, Feature.PARTIAL,
        )
        assert matrix.interruptibility("no-lock") in (
            Feature.YES, Feature.PARTIAL,
        )

    def test_atomic_mechanisms_block_the_task(self, matrix):
        smart = matrix.outcome("smart", "none")
        nolock = matrix.outcome("no-lock", "none")
        # Under SMART the fire-alarm task waits out whole measurements.
        assert smart.availability_report.worst_response > (
            10 * nolock.availability_report.worst_response
        )
        assert smart.mp_interruptions == 0
        assert nolock.mp_interruptions > 0


class TestClaimComparison:
    def test_every_checkable_claim_matches(self, matrix):
        mismatches = [row for row in matrix.against_claims() if not row[4]]
        assert mismatches == []

    def test_claim_rows_cover_table1_mechanisms(self, matrix):
        rows = matrix.against_claims()
        mechanisms = {row[0] for row in rows}
        assert mechanisms == {
            "smart", "all-lock", "dec-lock", "inc-lock", "smarm",
            "erasmus",
        }  # no-lock is the strawman, not a Table 1 row


def fast_run(mechanism, adversary):
    """One Table 1 cell at the ``FAST`` config, as ``evaluate_all``
    runs it."""
    shared = {name: getattr(FAST, name) for name in SHARED_FIELDS}
    shared["probe_count"] = 6
    return execute_run(RunSpec(
        campaign="table1", mechanism=mechanism, adversary=adversary,
        **shared,
    ))


class TestSingleScenario:
    def test_lock_ops_counted_for_locking_mechanisms(self):
        locked = fast_run("all-lock", "none")
        unlocked = fast_run("smarm", "none")
        assert locked.lock_ops > 0
        assert unlocked.lock_ops == 0
