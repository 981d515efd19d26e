"""Command-line experiment driver: ``python -m repro <experiment>``.

Each subcommand regenerates one paper artifact on stdout::

    repro fig1            # on-demand RA timeline (Figure 1)
    repro fig2            # hash/signature timing curves (Figure 2)
    repro fig3            # solution taxonomy (Figure 3)
    repro fig4            # consistency vs locking policy (Figure 4)
    repro fig5            # QoA timeline (Figure 5)
    repro table1          # the feature matrix, empirical vs claimed
    repro firealarm       # the Section 2.5 scenario
    repro smarm           # SMARM escape probabilities (Section 3.2)
    repro faults          # RA under loss/resets (docs/resilience.md)
    repro all             # everything

and the fleet campaign runner (docs/fleet.md)::

    repro fleet plan      # expand a campaign into its run list
    repro fleet run       # staged pipeline: shard / execute / stream
    repro fleet summarize # re-aggregate existing artifacts

plus the in-tree static analyzer (docs/static_analysis.md)::

    repro lint [paths]    # determinism & crypto-safety lint

and the observability layer (docs/observability.md)::

    repro obs export-trace    # Perfetto-loadable Chrome trace JSON
    repro obs export-metrics  # Prometheus-text / JSONL metric snapshot
    repro profile             # event-loop hot-spot table
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.units import parse_size


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Reconciling Remote Attestation and "
            "Safety-Critical Operation on Simple IoT Devices' (DAC'18)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig1 = sub.add_parser("fig1", help="on-demand RA timeline")
    fig1.add_argument("--memory", default="64MiB",
                      help="attested memory size (default 64MiB)")
    fig1.add_argument("--deferral", type=float, default=0.05,
                      help="request deferral on the prover, seconds")

    fig2 = sub.add_parser("fig2", help="hash/signature timing curves")
    fig2.add_argument("--points", type=int, default=1,
                      help="points per decade in the size sweep")

    sub.add_parser("fig3", help="solution taxonomy and Table 1 text")

    sub.add_parser("fig4", help="consistency timeline per locking policy")

    fig5 = sub.add_parser("fig5", help="QoA timeline (self-measurement)")
    fig5.add_argument("--tm", type=float, default=4.0, help="T_M seconds")
    fig5.add_argument("--tc", type=float, default=16.0, help="T_C seconds")

    sub.add_parser("table1", help="empirical feature matrix vs claims")

    fire = sub.add_parser("firealarm", help="Section 2.5 fire alarm")
    fire.add_argument("--memory", default="1GiB",
                      help="attested memory size (default 1GiB)")

    smarm = sub.add_parser("smarm", help="SMARM escape probabilities")
    smarm.add_argument("--blocks", type=int, default=64)
    smarm.add_argument("--trials", type=int, default=4000)

    faults = sub.add_parser(
        "faults", help="on-demand RA under an adversarial channel"
    )
    faults.add_argument(
        "--plan", default="loss=0.3@0:40;reset@6",
        help="FaultPlan DSL (docs/resilience.md)",
    )
    faults.add_argument("--exchanges", type=int, default=20,
                        help="attestation exchanges per mechanism")
    faults.add_argument(
        "--mechanisms", nargs="*",
        default=["smart", "inc-lock", "smarm"],
        help="on-demand mechanisms to drive",
    )
    faults.add_argument("--seed", type=int, default=7)

    swarm = sub.add_parser("swarm", help="collective attestation demo")
    swarm.add_argument("--count", type=int, default=15,
                       help="number of devices")
    swarm.add_argument("--shape", default="tree",
                       choices=["tree", "star", "line", "random"])
    swarm.add_argument("--infect", type=int, nargs="*", default=[4, 9],
                       help="node indices to infect")

    swatt = sub.add_parser(
        "swatt", help="software-based RA timing game (legacy devices)"
    )
    swatt.add_argument("--penalty", type=float, default=2e-3,
                       help="redirection penalty per read, seconds")
    swatt.add_argument("--speedup", type=float, default=0.5,
                       help="the optimized adversary's speed factor")

    fleet = sub.add_parser(
        "fleet", help="campaign runner: plan / run / summarize"
    )
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
    from repro.vserver.cli import add_serve_arguments

    add_serve_arguments(serve)

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
    from repro.obs.cli import add_obs_arguments, add_profile_arguments

    add_obs_arguments(obs)

    profile = sub.add_parser(
        "profile", help="event-loop hot-spot profiling"
    )
    add_profile_arguments(profile)

    sub.add_parser("all", help="run every experiment")
    return parser


def _run(command: str, args: argparse.Namespace) -> str:
    # Imports are deferred so `repro --help` stays fast.
    import repro.experiments as experiments

    if command == "fig1":
        memory = parse_size(args.memory)
        from repro.units import MiB

        return experiments.fig1_timeline(
            memory_mib=max(1, memory // MiB), deferral=args.deferral
        ).render()
    if command == "fig2":
        return experiments.fig2_report(points_per_decade=args.points).render()
    if command == "fig3":
        return experiments.fig3_overview().render()
    if command == "fig4":
        return experiments.fig4_consistency().render()
    if command == "fig5":
        return experiments.fig5_qoa(t_m=args.tm, t_c=args.tc).render()
    if command == "table1":
        return experiments.table1().render()
    if command == "firealarm":
        return experiments.sec25_firealarm(
            memory_bytes=parse_size(args.memory)
        ).render()
    if command == "smarm":
        return experiments.sec32_smarm(
            n_blocks=args.blocks, trials=args.trials
        ).render()
    if command == "faults":
        return _run_faults(args)
    if command == "swarm":
        return _run_swarm(args)
    if command == "swatt":
        return _run_swatt(args)
    if command == "fleet":
        return _run_fleet(args)
    if command == "serve":
        from repro.vserver.cli import run_serve

        return run_serve(args)
    if command == "obs":
        from repro.obs.cli import run_obs

        return run_obs(args)
    if command == "profile":
        from repro.obs.cli import run_profile

        return run_profile(args)
    raise AssertionError(f"unhandled command {command!r}")


def _fleet_campaign(args: argparse.Namespace):
    import json

    from repro.fleet import CampaignSpec, canned_campaign

    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            return CampaignSpec.from_dict(json.load(handle))
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


def _run_faults(args: argparse.Namespace) -> str:
    """Drive on-demand mechanisms through a seeded FaultPlan and print
    the degradation ledger (docs/resilience.md)."""
    from repro.core.tradeoff import ScenarioConfig
    from repro.ra.report import Verdict
    from repro.resilience import RetryPolicy
    from repro.scenario import Scenario
    from repro.units import MiB

    spacing = 2.0
    horizon = 1.0 + spacing * args.exchanges + 10.0
    lines = [
        f"fault plan: {args.plan!r}  "
        f"({args.exchanges} exchanges per mechanism, seed {args.seed})",
    ]
    for mechanism in args.mechanisms:
        scenario = Scenario.build(
            mechanism=mechanism,
            faults=args.plan,
            config=ScenarioConfig(
                block_count=8, sim_block_size=MiB, horizon=horizon,
            ),
            seed=args.seed,
            retry=RetryPolicy(
                timeout=1.0, max_retries=6, backoff=1.5,
                max_timeout=4.0,
                seed=f"faults-cli-{args.seed}".encode(),
            ),
            fault_seed=f"faults-cli-{args.seed}-{mechanism}".encode(),
        )
        for index in range(args.exchanges):
            scenario.schedule_request(1.0 + spacing * index)
        scenario.run()
        false_alarms = sum(
            1 for r in scenario.verifier.results
            if r.verdict is Verdict.COMPROMISED
        )
        lines.append("")
        lines.append(scenario.outcomes.render(title=f"{mechanism}:"))
        if false_alarms:
            lines.append(
                f"  WARNING: {false_alarms} false 'compromised' "
                "verdict(s) on a benign device"
            )
    return "\n".join(lines)


def _run_swarm(args: argparse.Namespace) -> str:
    from repro.malware import TransientMalware
    from repro.ra.verifier import Verifier
    from repro.sim.engine import Simulator
    from repro.swarm import SwarmAttestation, make_topology

    sim = Simulator()
    topology = make_topology(sim, count=args.count, shape=args.shape)
    verifier = Verifier(sim)
    swarm = SwarmAttestation(topology, verifier)
    for index in args.infect:
        if 0 <= index < args.count:
            TransientMalware(
                topology.devices[index], target_block=3, infect_at=0.0,
                name=f"mal-{index}",
            )
    nonce = swarm.attest(timeout=60.0)
    sim.run(until=120.0)
    result = swarm.result_for(nonce)
    lines = [
        f"swarm of {args.count} devices ({args.shape})",
        f"aggregate valid : {result.valid}",
        f"healthy         : {result.healthy}/{result.total}",
        f"dirty nodes     : {', '.join(result.dirty_nodes) or '(none)'}",
        f"completed at    : t = {result.completed_at:.3f} s",
    ]
    return "\n".join(lines)


def _run_swatt(args: argparse.Namespace) -> str:
    from repro.malware import TransientMalware
    from repro.ra.software import SoftwareAttestation, SoftwareVerifier
    from repro.sim import Channel, Device, Simulator
    from repro.units import MiB

    def play(redirect_penalty, speedup, infected):
        sim = Simulator()
        device = Device(sim, block_count=16, block_size=32,
                        sim_block_size=MiB)
        channel = Channel(sim, latency=0.005)
        device.attach_network(channel)
        service = SoftwareAttestation(
            device, redirect_penalty=redirect_penalty,
            forgery_speedup=speedup,
        )
        service.install()
        reads = device.block_count * service.iterations
        honest = device.timing.hash_time(
            "sha256", device.memory.sim_block_size * reads
        )
        swatt_verifier = SoftwareVerifier(
            channel, list(device.memory.benign_image()), honest
        )
        if infected:
            TransientMalware(device, target_block=5, infect_at=0.0)
        sim.schedule_at(0.5, swatt_verifier.challenge, device.name)
        sim.run(until=60)
        return swatt_verifier.verdicts[0]

    rows = [
        ("honest device", play(0.0, 1.0, False)),
        ("naive malware", play(0.0, 1.0, True)),
        ("redirecting malware", play(args.penalty, 1.0, True)),
        ("optimized adversary", play(args.penalty, args.speedup, True)),
    ]
    lines = ["software-based RA timing game"]
    for label, verdict in rows:
        mark = "ACCEPTED" if verdict.accepted else "rejected"
        lines.append(
            f"  {label:<22} checksum "
            f"{'ok' if verdict.correct else 'BAD'}  "
            f"elapsed {verdict.elapsed:7.4f}s "
            f"(limit {verdict.threshold:.4f}s)  -> {mark}"
        )
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
        import repro.experiments as experiments

        sections = [
            ("FIG1", experiments.fig1_timeline().render()),
            ("FIG2", experiments.fig2_report().render()),
            ("FIG3", experiments.fig3_overview().render()),
            ("FIG4", experiments.fig4_consistency().render()),
            ("FIG5", experiments.fig5_qoa().render()),
            ("TABLE1", experiments.table1().render()),
            ("SEC25", experiments.sec25_firealarm().render()),
            ("SEC32", experiments.sec32_smarm().render()),
        ]
        for title, body in sections:
            print(f"\n===== {title} =====")
            print(body)
        return 0
    print(_run(args.command, args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
