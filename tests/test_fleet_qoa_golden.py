"""The ``qoa`` campaign against its golden artifact.

``qoa_fleet_campaign`` runs ERASMUS self-measurement beside the 50 ms
fire-alarm task (Section 2.5, Fig. 5) -- the run the ``fleet-qoa``
perfbench workload times.  Its ``runs.jsonl`` carries each run's
metric snapshot, ``sim.events.{scheduled,fired,cancelled}`` included,
so a scheduler fast path that skips the event queue must still account
every skipped schedule/fire pair, or a byte here moves (CI re-runs the
same diff via ``repro fleet run --campaign qoa``)."""

from pathlib import Path

from repro.fleet import canned_campaign, execute_run

GOLDEN = Path(__file__).parent / "golden" / "qoa_runs.jsonl"


def run_qoa():
    campaign = canned_campaign("qoa", seed_count=1)
    return sorted(
        (execute_run(spec) for spec in campaign.plan()),
        key=lambda r: r.run_id,
    )


class TestQoaGolden:
    def test_runs_jsonl_matches_golden_byte_for_byte(self):
        results = run_qoa()
        produced = "\n".join(r.to_json_line() for r in results) + "\n"
        assert produced == GOLDEN.read_text(encoding="utf-8")

    def test_every_run_is_erasmus_beside_the_fire_alarm(self):
        results = run_qoa()
        assert len(results) == 9
        assert all(r.status == "ok" for r in results)
        for result in results:
            assert result.spec["mechanism"] == "erasmus"
            assert result.spec["workload"] == "firealarm"
            telemetry = result.telemetry
            assert telemetry["sim.events.fired"] > 0
            assert telemetry["sim.events.scheduled"] >= \
                telemetry["sim.events.fired"]
