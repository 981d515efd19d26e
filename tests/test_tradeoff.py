"""The cross-mechanism evaluation harness (empirical Table 1)."""

import pytest

from repro.core.solution import Feature
from repro.core.tradeoff import (
    ScenarioConfig,
    evaluate_all,
    run_scenario,
)
from repro.errors import ConfigurationError
from repro.units import MiB

# One reduced-geometry config shared by the module (fast, same physics).
FAST = ScenarioConfig(
    block_count=24,
    sim_block_size=MiB,
    smarm_rounds=13,
    horizon=35.0,
    erasmus_period=2.0,
    erasmus_collect_period=25.0,
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
        assert smart.availability.worst_response > (
            10 * nolock.availability.worst_response
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


class TestSingleScenario:
    def test_lock_ops_counted_for_locking_mechanisms(self):
        locked, _ = run_scenario("all-lock", "none", FAST)
        unlocked, _ = run_scenario("smarm", "none", FAST)
        assert locked.lock_ops > 0
        assert unlocked.lock_ops == 0
