"""TAB1 -- the feature matrix (Table 1), empirically derived.

Runs every mechanism against the no-adversary / self-relocating /
reactive-transient scenarios on an identical device and workload, then
distills the Table 1 columns from the outcomes and compares each cell
with the paper's claim.
"""

from repro.core.tradeoff import ScenarioConfig
from repro.experiments import table1
from repro.units import MiB

from tests.paper.conftest import banner


def test_table1_features():
    config = ScenarioConfig(
        block_count=32,
        sim_block_size=2 * MiB,
        horizon=40.0,
        t_m=2.5,
        t_c=30.0,
    )
    result = table1(config=config)
    print(banner("Table 1: claimed vs simulated feature matrix"))
    print(result.render())

    mismatches = [row for row in result.claims if not row[4]]
    assert mismatches == [], mismatches

    matrix = result.matrix
    # Spot-check the numeric story behind the marks.
    smart = matrix.outcome("smart", "none")
    smarm = matrix.outcome("smarm", "none")
    # Atomic baseline blocks the critical task for ~ a full measurement;
    # SMARM keeps worst-case response ~ the task's own compute time.
    assert smart.availability_report.worst_response > 0.5 * smart.mp_duration
    assert smarm.availability_report.worst_response < 0.05 * smarm.mp_duration
    # Locking overhead exists but is small ("Low" in Table 1): the MPU
    # ops add well under 10% to the measurement.
    all_lock = matrix.outcome("all-lock", "none")
    assert all_lock.mp_duration < smart.mp_duration * 1.1
    assert all_lock.lock_ops > 0
