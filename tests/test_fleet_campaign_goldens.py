"""The ``locking`` and ``hetero`` campaigns against their golden artifacts.

``locking`` is the only campaign with the ``writers`` workload (writer
tasks racing locked measurement reads) and the one the
``fleet-locking`` perfbench workload times; ``hetero`` mixes cohorts
(SMART, Inc-Lock, SMARM and ERASMUS with ``t_c`` 12) on one fleet.
Each run's ``runs.jsonl`` line pins how the run was driven (requests
or collections) and how it was folded into telemetry, so a refactor of
either moves a byte here (CI re-runs the same diff via
``repro fleet run --campaign <name>``)."""

from pathlib import Path

import pytest

from repro.fleet import canned_campaign, execute_run

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "campaign_name, run_count",
    [("locking", 8), ("hetero", 5)],
)
def test_runs_jsonl_matches_golden_byte_for_byte(campaign_name, run_count):
    campaign = canned_campaign(campaign_name, seed_count=1)
    results = sorted(
        (execute_run(spec) for spec in campaign.plan()),
        key=lambda r: r.run_id,
    )
    assert len(results) == run_count
    assert all(r.status == "ok" for r in results)
    produced = "\n".join(r.to_json_line() for r in results) + "\n"
    golden = GOLDEN / f"{campaign_name}_runs.jsonl"
    assert produced == golden.read_text(encoding="utf-8")
