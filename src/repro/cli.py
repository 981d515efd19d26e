"""Command-line driver: ``python -m repro <command>``.

``repro --help`` lists every command.  The paper artifacts (``fig1``
... ``swatt``) and their options come from
:data:`repro.experiments.ARTIFACTS`; ``repro all`` prints the ones
with a section title.  This module adds the tools (:data:`TOOLS`):
``fleet`` (docs/fleet.md), ``lint`` (docs/static_analysis.md),
``serve`` (docs/verifier_service.md), ``bench``
(docs/performance.md), ``obs`` and ``profile``
(docs/observability.md).  A command imports its own module when it
runs, so ``repro fig3`` loads neither the simulator nor any tool.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.experiments.artifacts import ARTIFACTS


@dataclass(frozen=True)
class Tool:
    """A ``repro`` tool subcommand.

    ``arguments`` and ``run`` name ``"module:function"`` targets: the
    first adds the command's options to its subparser, the second takes
    the parsed namespace.  Neither is imported unless the command runs.
    """

    name: str
    help: str
    arguments: str
    run: str


#: every tool subcommand, in ``--help`` order after the paper artifacts
TOOLS = (
    Tool("fleet", "campaign runner: plan / run / summarize",
         "repro.cli:add_fleet_arguments", "repro.cli:run_fleet"),
    Tool("lint", "determinism & crypto-safety static analysis",
         "repro.staticlint.cli:add_lint_arguments",
         "repro.staticlint.cli:run_lint"),
    Tool("serve", "served-verifier load test (docs/verifier_service.md)",
         "repro.vserver.cli:add_serve_arguments",
         "repro.vserver.cli:run_serve"),
    Tool("bench", "wall-clock regression bench suite (docs/performance.md)",
         "repro.cli:add_bench_arguments", "repro.perf.bench:run_bench"),
    Tool("obs", "observability exports: trace / metrics",
         "repro.obs.cli:add_obs_arguments", "repro.obs.cli:run_obs"),
    Tool("profile", "event-loop hot-spot profiling",
         "repro.obs.cli:add_profile_arguments", "repro.obs.cli:run_profile"),
)

#: tools whose ``run`` returns the exit code instead of text to print:
#: lint exits 0 clean, 1 on findings, 2 on usage errors; bench exits 1
#: on a regression against ``--against``
OWN_EXIT_CODE = frozenset({"lint", "bench"})


def _resolve(target: str) -> Any:
    """The function a ``"module:function"`` target names."""
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser.  Every paper artifact gets its arguments;
    a tool gets its arguments only when it is ``command``, so building
    the parser for ``repro fig3`` imports no tool."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Reconciling Remote Attestation and "
            "Safety-Critical Operation on Simple IoT Devices' (DAC'18)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for artifact in ARTIFACTS:
        subparser = sub.add_parser(artifact.name, help=artifact.help)
        for flag, options in artifact.arguments:
            subparser.add_argument(flag, **options)
        subparser.set_defaults(run=artifact.run)

    for tool in TOOLS:
        subparser = sub.add_parser(tool.name, help=tool.help)
        if tool.name == command:
            _resolve(tool.arguments)(subparser)
        subparser.set_defaults(run=tool.run)

    sub.add_parser("all", help="run every experiment")
    return parser


def add_fleet_arguments(fleet: argparse.ArgumentParser) -> None:
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
        help="restore checkpointed shards and reuse prior ok results "
             "whose run_id and source-tree fingerprint both match; "
             "execute only what is missing",
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


def add_bench_arguments(bench: argparse.ArgumentParser) -> None:
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


def run_fleet(args: argparse.Namespace) -> str:
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
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.command == "all":
        for artifact in ARTIFACTS:
            if artifact.title is not None:
                print(f"\n===== {artifact.title} =====")
                section = parser.parse_args([artifact.name])
                print(_resolve(artifact.run)(section))
        return 0
    result = _resolve(args.run)(args)
    if args.command in OWN_EXIT_CODE:
        return result
    print(result)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
