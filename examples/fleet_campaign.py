"""Fleet campaigns: sweep the whole experiment space in one shot.

A single `Simulator` answers one question about one prover.  The fleet
layer answers distribution-level questions -- "how does detection
probability scale with T_M?", "what does each locking policy cost a
writer workload?" -- by planning a deterministic grid of independent
runs, executing them through the campaign pipeline (serially here;
`backend=ProcessPoolBackend(workers=N)` shards them over a process
pool), and aggregating the structured telemetry.

This walkthrough builds a small custom campaign from scratch; the
canned ones (`repro fleet run --campaign qoa`) are the same thing at
larger scale.
"""

import tempfile
from pathlib import Path

from repro.fleet import (
    CampaignSpec,
    PipelineConfig,
    read_results_jsonl,
    run_pipeline,
)
from repro.units import MiB


def main() -> None:
    # 1. Declare the sweep: fixed base fields, swept axes, seeds.
    campaign = CampaignSpec(
        name="example-sweep",
        base={
            "block_count": 16,
            "sim_block_size": 2 * MiB,
            "horizon": 24.0,
            "dwell": 5.0,  # transient malware resident for 5 s
            "workload": "firealarm",
        },
        axes={
            "mechanism": ["smart", "erasmus"],
            "adversary": ["none", "transient"],
        },
        seeds=range(3),
    )
    specs = campaign.plan()
    print(f"campaign {campaign.name!r} (hash {campaign.spec_hash}) "
          f"expands to {len(specs)} runs:")
    for spec in specs[:4]:
        print(f"  {spec.run_id}")
    print(f"  ... and {len(specs) - 4} more")

    # Run IDs are pure functions of the spec: replanning yields the
    # same IDs, which is what makes campaigns resumable.
    assert [s.run_id for s in campaign.plan()] == [s.run_id for s in specs]

    with tempfile.TemporaryDirectory() as scratch:
        run_steps(campaign, Path(scratch))


def run_steps(campaign: CampaignSpec, scratch: Path) -> None:
    # 2. Execute.  Serial here; backend=ProcessPoolBackend(workers=4)
    # uses a pool.  The pipeline writes runs.jsonl, summary.json/.txt
    # and manifest.json under <out_dir>/<campaign name>/.
    report = run_pipeline(campaign, out_dir=scratch / "first")
    print(f"\n{report.summary_line()}")
    assert report.status_counts == {"ok": report.total_runs}

    # 3. Every run folds into one structured RunResult.
    results = read_results_jsonl(report.paths.runs)
    sample = results[0]
    print(f"\none result ({sample.run_id}):")
    print(f"  verdicts            : {sample.verdict_counts}")
    print(f"  measurements        : {sample.measurements} "
          f"(first took {sample.mp_duration:.3f}s simulated)")
    print(f"  hashed              : {sample.hash_bytes / MiB:.0f} MiB "
          f"in {sample.hash_ops} block ops")
    print(f"  deadline miss rate  : {sample.miss_rate:.1%}")

    # 4. Aggregate across the grid (the pipeline already folded it).
    summary = report.summary
    print(f"\n{summary.render()}")

    # The 5-second-resident malware spans at least one measurement of
    # every mechanism here, so each adversarial cell detects it...
    for mechanism in ("smart", "erasmus"):
        cell = summary.group(mechanism, "transient")
        assert cell.detection_rate == 1.0, (mechanism, cell.detection_rate)
        # ...and no clean run ever produces a false positive.
        assert summary.group(mechanism, "none").detected == 0

    # 5. Determinism: re-executing the same plan reproduces the same
    # telemetry byte for byte (this is also the serial/parallel parity
    # guarantee the backend tests enforce).
    again = run_pipeline(campaign, out_dir=scratch / "second")
    assert again.paths.runs.read_bytes() == report.paths.runs.read_bytes()

    # 6. Resume support: a resumed pass over a finished campaign finds
    # every run already done and executes nothing.
    resumed = run_pipeline(
        campaign, out_dir=scratch / "first",
        config=PipelineConfig(resume=True),
    )
    assert resumed.executed == 0 and resumed.restored == report.total_runs
    print("\nparity + resume checks passed")


if __name__ == "__main__":
    main()
