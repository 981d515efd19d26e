"""Command-line driver: ``python -m repro <command>``.

``repro --help`` lists every command.  The paper artifacts (``fig1``
... ``swatt``) and their options come from
:data:`repro.experiments.ARTIFACTS`; ``repro all`` prints the ones
with a section title.  This module adds the tools: ``fleet``
(docs/fleet.md), ``lint`` (docs/static_analysis.md), ``serve``
(docs/verifier_service.md), ``bench`` (docs/performance.md), ``obs``
and ``profile`` (docs/observability.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import ARTIFACTS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Reconciling Remote Attestation and "
            "Safety-Critical Operation on Simple IoT Devices' (DAC'18)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for artifact in ARTIFACTS:
        command = sub.add_parser(artifact.name, help=artifact.help)
        for flag, options in artifact.arguments:
            command.add_argument(flag, **options)
        command.set_defaults(run=artifact.run)

    fleet = sub.add_parser(
        "fleet", help="campaign runner: plan / run / summarize"
    )
    fleet.set_defaults(run=_run_fleet)
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def add_campaign_options(p):
        p.add_argument("--campaign", default="qoa",
                       help="canned campaign name (qoa, matrix, locking, "
                            "faults, vserver, hetero)")
        p.add_argument("--spec", default=None,
                       help="JSON campaign spec file (overrides --campaign)")
        p.add_argument("--seeds", type=int, default=None,
                       help="seed count override for canned campaigns")
        p.add_argument("--limit", type=int, default=None,
                       help="truncate the plan to the first N runs")

    plan = fleet_sub.add_parser("plan", help="expand and print the run list")
    add_campaign_options(plan)

    run = fleet_sub.add_parser(
        "run", help="execute a campaign through the staged pipeline"
    )
    add_campaign_options(run)
    run.add_argument(
        "--backend", default="serial",
        help="execution backend: serial, process[:N]",
    )
    run.add_argument("--shard-size", type=int, default=8)
    run.add_argument("--retries", type=int, default=1,
                     help="extra attempts for a raising run")
    run.add_argument("--timeout", type=float, default=0.0,
                     help="per-run wall-clock budget, seconds (0 = none)")
    run.add_argument("--out", default="fleet-artifacts",
                     help="artifact output directory")
    run.add_argument(
        "--resume", action="store_true",
        help="restore checkpointed shards / prior results for the "
             "same plan and execute only what is missing",
    )
    run.add_argument(
        "--incremental", action="store_true",
        help=(
            "reuse prior ok results whose run_id and source-tree "
            "fingerprint both match (stricter than --resume, which "
            "it subsumes)"
        ),
    )
    run.add_argument(
        "--keep-checkpoints", action="store_true",
        help="keep the shards/ checkpoint directory after finalize "
             "(debugging aid)",
    )

    summ = fleet_sub.add_parser(
        "summarize", help="re-aggregate an existing runs.jsonl"
    )
    summ.add_argument("--campaign", default="qoa")
    summ.add_argument("--out", default="fleet-artifacts")

    lint = sub.add_parser(
        "lint", help="determinism & crypto-safety static analysis"
    )
    from repro.staticlint.cli import add_lint_arguments

    add_lint_arguments(lint)

    serve = sub.add_parser(
        "serve",
        help="served-verifier load test (docs/verifier_service.md)",
    )
    from repro.vserver.cli import add_serve_arguments, run_serve

    add_serve_arguments(serve)
    serve.set_defaults(run=run_serve)

    bench = sub.add_parser(
        "bench", help="wall-clock regression bench suite (docs/performance.md)"
    )
    bench.add_argument("action", nargs="?", default="run",
                       choices=["run", "history"],
                       help="'run' the suite (default) or tabulate the "
                            "committed 'history' of BENCH_*.json artifacts")
    bench.add_argument("--quick", action="store_true",
                       help="smaller workloads for CI smoke runs")
    bench.add_argument("--out", default=None,
                       help="artifact path (default BENCH_<rev>.json)")
    bench.add_argument("--against", default=None,
                       help="baseline BENCH_*.json to compare with "
                            "(exit 1 on regression)")
    bench.add_argument("--threshold", type=float, default=0.20,
                       help="regression threshold as a fraction "
                            "(default 0.20 = 20%%)")
    bench.add_argument("--dir", default="benchmarks",
                       help="artifact directory the 'history' action "
                            "tabulates (default: benchmarks/)")

    obs = sub.add_parser(
        "obs", help="observability exports: trace / metrics"
    )
    from repro.obs.cli import (
        add_obs_arguments,
        add_profile_arguments,
        run_obs,
        run_profile,
    )

    add_obs_arguments(obs)
    obs.set_defaults(run=run_obs)

    profile = sub.add_parser(
        "profile", help="event-loop hot-spot profiling"
    )
    add_profile_arguments(profile)
    profile.set_defaults(run=run_profile)

    sub.add_parser("all", help="run every experiment")
    return parser


def _fleet_campaign(args: argparse.Namespace):
    import json

    from repro.errors import ConfigurationError
    from repro.fleet import CampaignSpec, canned_campaign

    def reject(literal: str) -> None:
        raise ConfigurationError(
            f"{args.spec}: {literal} is not JSON; use a finite number"
        )

    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            return CampaignSpec.from_dict(
                json.load(handle, parse_constant=reject)
            )
    return canned_campaign(args.campaign, seed_count=args.seeds)


def _run_fleet(args: argparse.Namespace) -> str:
    from repro import fleet

    if args.fleet_command == "summarize":
        # --campaign takes a campaign's own name or a canned key, whose
        # artifacts live under the canned campaign's name
        names = [args.campaign]
        if args.campaign in fleet.CANNED_CAMPAIGNS:
            names.append(fleet.canned_campaign(args.campaign).name)
        tried = [fleet.artifact_paths(args.out, name).runs for name in names]
        runs = next((path for path in tried if path.exists()), None)
        if runs is None:
            raise SystemExit(
                "no artifacts at "
                + " or ".join(str(path) for path in tried)
                + f"; run `repro fleet run --campaign {args.campaign}` first"
            )
        results = fleet.read_results_jsonl(runs)
        return fleet.summarize(results, campaign=runs.parent.name).render()

    campaign = _fleet_campaign(args)
    specs = campaign.plan()
    if args.limit is not None:
        specs = specs[: args.limit]

    if args.fleet_command == "plan":
        lines = [
            f"campaign {campaign.name} (hash {campaign.spec_hash}): "
            f"{len(specs)} runs",
            f"{'run_id':<44} {'mechanism':<10} {'adversary':<11} "
            f"{'seed':>5}  swept fields",
        ]
        axis_keys = sorted(campaign.axes)
        for spec in specs:
            swept = " ".join(
                f"{key}={getattr(spec, key)}" for key in axis_keys
            )
            lines.append(
                f"{spec.run_id:<44} {spec.mechanism:<10} "
                f"{spec.adversary:<11} {spec.seed:>5}  {swept}"
            )
        return "\n".join(lines)

    # fleet run: the staged pipeline (plan -> shard -> execute ->
    # stream -> reduce); results checkpoint per shard and fold through
    # a memory-bounded streaming reducer (docs/fleet.md).
    if args.timeout > 0:
        specs = [spec.with_overrides(timeout=args.timeout) for spec in specs]
    lines = []
    backend = fleet.resolve_backend(args.backend)
    config = fleet.PipelineConfig(
        shard_size=args.shard_size,
        retries=args.retries,
        resume=args.resume,
        incremental=args.incremental,
        keep_checkpoints=args.keep_checkpoints,
    )
    report = fleet.run_pipeline(
        campaign,
        specs,
        out_dir=args.out,
        backend=backend,
        config=config,
        log=lines.append,
    )
    lines.extend([
        report.summary_line(),
        f"artifacts: {report.paths.root}",
        "",
        report.summary.render(),
    ])
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "lint":
        # lint owns its exit code: 0 clean, 1 findings, 2 usage errors
        from repro.staticlint.cli import run_lint

        return run_lint(args)
    if args.command == "bench":
        # bench owns its exit code: 0 clean, 1 regression vs --against
        from repro.perf.bench import run_bench

        return run_bench(args)
    if args.command == "all":
        for artifact in ARTIFACTS:
            if artifact.title is not None:
                print(f"\n===== {artifact.title} =====")
                print(artifact.run(parser.parse_args([artifact.name])))
        return 0
    # every other command's subparser set ``run``
    print(args.run(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
