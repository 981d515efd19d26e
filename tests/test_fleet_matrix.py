"""The Table 1 fleet matrix against its golden artifact.

``matrix_fleet_campaign`` runs every mechanism kind -- on-demand
(atomic, locking, shuffled), self-measurement (ERASMUS) and
prover-pushed (SeED) -- against each adversary.  Its ``runs.jsonl``
carries each run's metric snapshot, ``sim.events.scheduled``
included, so the golden pins how every kind is wired: a change in
construction order or in what a run folds into telemetry shows up
as a byte difference (CI re-runs the same diff via
``repro fleet run --campaign matrix``)."""

from pathlib import Path

from repro.fleet import canned_campaign, execute_run

GOLDEN = Path(__file__).parent / "golden" / "matrix_runs.jsonl"


def run_matrix():
    campaign = canned_campaign("matrix", seed_count=1)
    return sorted(
        (execute_run(spec) for spec in campaign.plan()),
        key=lambda r: r.run_id,
    )


class TestMatrixGolden:
    def test_runs_jsonl_matches_golden_byte_for_byte(self):
        results = run_matrix()
        produced = "\n".join(r.to_json_line() for r in results) + "\n"
        assert produced == GOLDEN.read_text(encoding="utf-8")

    def test_matrix_covers_every_kind_and_adversary(self):
        results = run_matrix()
        assert len(results) == 21
        assert all(r.status == "ok" for r in results)
        cells = {
            (r.spec["mechanism"], r.spec["adversary"]) for r in results
        }
        assert {m for m, _ in cells} == {
            "smart", "all-lock", "dec-lock", "inc-lock",
            "smarm", "erasmus", "seed",
        }
        assert {a for _, a in cells} == {"none", "transient", "relocating"}
        for result in results:
            assert result.telemetry["sim.events.scheduled"] > 0
            assert result.measurements > 0
