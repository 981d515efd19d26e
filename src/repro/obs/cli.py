"""CLI entry points: ``repro obs`` and ``repro profile``.

``repro obs export-trace`` replays one fleet run with full span
tracking and writes a Chrome trace-event JSON that opens directly in
https://ui.perfetto.dev (or ``chrome://tracing``); ``--by-exchange``
regroups the tracks so each traced attestation exchange gets its own
lane.  ``repro obs export-metrics`` writes the same run's sim-time
metric snapshot as Prometheus text or JSONL.  ``repro obs report``
replays runs with causal tracing enabled and folds them into the
cross-shard exchange summary (terminal table or JSON artifact), with
optional SLO evaluation via ``--slo``.  ``repro obs timeline`` emits
the canonical causal-timeline JSONL for a served-verifier scenario --
the artifact CI diffs against its golden copy.  ``repro profile``
replays one or more runs of a campaign under the event-loop profiler
and prints the hot-spot table -- the quantitative answer to "which
mechanism burns the event loop".

Wall-clock readings for the profiler come from
:func:`repro.fleet.clock.perf_time`, the repository's only allowlisted
wall-clock source, so everything here stays clean under ``repro lint``.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List

from repro.obs.chrome import write_chrome_trace
from repro.obs.core import Observability
from repro.obs.metrics import to_prometheus_text
from repro.obs.profiler import EventLoopProfiler
from repro.obs.report import causal_timeline, resolve_quantile


def _campaign_specs(args: argparse.Namespace) -> List:
    from repro.fleet import canned_campaign

    campaign = canned_campaign(args.campaign, seed_count=args.seeds)
    return campaign.plan()


def _pick_spec(args: argparse.Namespace):
    specs = _campaign_specs(args)
    if not 0 <= args.index < len(specs):
        raise SystemExit(
            f"--index {args.index} out of range; campaign "
            f"{args.campaign!r} plans {len(specs)} runs"
        )
    return specs[args.index]


# ---------------------------------------------------------------------------
# repro obs
# ---------------------------------------------------------------------------


def add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="obs_command", required=True)

    def add_run_selection(p: argparse.ArgumentParser) -> None:
        p.add_argument("--campaign", default="locking",
                       help="canned campaign name (qoa, matrix, locking)")
        p.add_argument("--seeds", type=int, default=1,
                       help="seed count for the campaign plan")
        p.add_argument("--index", type=int, default=0,
                       help="which planned run to replay")

    trace = sub.add_parser(
        "export-trace",
        help="replay one run and write a Perfetto/Chrome trace JSON",
    )
    add_run_selection(trace)
    trace.add_argument("--out", default="trace.json",
                       help="output path (default trace.json)")
    trace.add_argument("--by-exchange", action="store_true",
                       help="one Perfetto track per traced exchange")

    metrics = sub.add_parser(
        "export-metrics",
        help="replay one run and export its sim-time metrics",
    )
    add_run_selection(metrics)
    metrics.add_argument("--out", default="metrics.prom",
                         help="output path (default metrics.prom)")
    metrics.add_argument("--format", default="prometheus",
                         choices=["prometheus", "jsonl"])

    report = sub.add_parser(
        "report",
        help="replay runs with causal tracing and fold the exchange "
             "summary (terminal or JSON)",
    )
    report.add_argument("--campaign", default="locking",
                        help="canned campaign name (qoa, matrix, locking)")
    report.add_argument("--seeds", type=int, default=1,
                        help="seed count for the campaign plan")
    report.add_argument("--runs", type=int, default=2,
                        help="replay the first N planned runs")
    report.add_argument("--slo", default="",
                        help="SLO DSL / preset evaluated per run "
                             "(e.g. firealarm)")
    report.add_argument("--format", default="terminal",
                        choices=["terminal", "json"])
    report.add_argument("--out", default="",
                        help="also write the JSON summary to this path")

    timeline = sub.add_parser(
        "timeline",
        help="emit the canonical causal-timeline JSONL for a served-"
             "verifier scenario (the golden-diffed artifact)",
    )
    timeline.add_argument("--service", default="smoke",
                          help="ServiceConfig DSL (default: smoke preset)")
    timeline.add_argument("--out", default="",
                          help="write the JSONL here instead of stdout")


def _render_report(data: Dict[str, Any]) -> str:
    sketch = data["exchanges"]
    lines = [
        f"obs report: campaign {data['campaign']!r}, "
        f"{len(data['runs'])} run(s), {data['traces']} traced exchange(s)",
    ]
    if sketch["count"]:
        lines.append(
            f"exchange latency: count={sketch['count']} "
            f"mean={sketch['sum'] / sketch['count']:.4f}s "
            f"min={sketch['min']:.4f}s max={sketch['max']:.4f}s"
        )
        lines.append("slowest exchanges:")
        for latency, trace_id, label in sketch["top"]:
            lines.append(
                f"  {latency:8.4f}s  {label:<20} trace={trace_id}"
            )
    for row in data["p99_exemplars"]:
        lines.append(
            f"p99 exemplar: {row['metric']} -> trace {row['trace_id']} "
            f"({row['value']:.4f}s in bucket <= {row['bucket']})"
        )
    for entry in data["runs"]:
        slo = entry.get("slo")
        if not slo:
            continue
        for name, objective in sorted(slo["objectives"].items()):
            status = "met" if objective["met"] else "VIOLATED"
            lines.append(
                f"slo {entry['run_id']} {name}: "
                f"{objective['compliance']:.2%} vs target "
                f"{objective['target']:.2%} [{status}] "
                f"alerts={objective['alerts']}"
            )
    return "\n".join(lines)


#: histograms the report resolves p99 exemplars from, when populated
_EXEMPLAR_METRICS = (
    "ra.round_trip.latency",
    "erasmus.collection.latency",
    "app.alarm.latency",
    "vserver.stage.total",
)


def _run_report(args: argparse.Namespace) -> str:
    from repro.fleet import canned_campaign
    from repro.fleet.executor import execute_run
    from repro.fleet.telemetry import ExchangeSketch

    campaign = canned_campaign(args.campaign, seed_count=args.seeds)
    specs = campaign.plan()[: max(1, args.runs)]
    if args.slo:
        specs = [spec.with_overrides(slo=args.slo) for spec in specs]

    sketch = ExchangeSketch()
    traces = 0
    runs: List[Dict[str, Any]] = []
    exemplar_rows: List[Dict[str, Any]] = []
    for spec in specs:
        obs = Observability.enabled()
        result = execute_run(spec, obs=obs)
        summary = result.trace_summary
        traces += int(summary.get("traces", 0))
        exchanges = summary.get("exchanges")
        if exchanges:
            sketch.merge(ExchangeSketch.from_dict(exchanges))
        entry: Dict[str, Any] = {
            "run_id": result.run_id,
            "mechanism": spec.mechanism,
            "traces": summary.get("traces", 0),
            "spans": summary.get("spans", 0),
        }
        if result.slo:
            entry["slo"] = result.slo
        runs.append(entry)
        for metric in _EXEMPLAR_METRICS:
            hit = resolve_quantile(obs.metrics, metric, 0.99)
            if hit is not None:
                exemplar_rows.append(
                    {"run_id": result.run_id, "metric": metric, **hit}
                )

    data = {
        "campaign": args.campaign,
        "runs": runs,
        "traces": traces,
        "exchanges": sketch.to_dict(),
        "p99_exemplars": exemplar_rows,
    }
    if args.format == "json":
        rendered = json.dumps(data, indent=2, sort_keys=True)
    else:
        rendered = _render_report(data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        rendered += f"\nwrote {args.out}"
    return rendered


def _run_timeline(args: argparse.Namespace) -> str:
    from repro.scenario import Scenario
    from repro.vserver.service import ServiceConfig

    config = ServiceConfig.parse(args.service)
    obs = Observability.enabled()
    scenario = Scenario.build(service=config, obs=obs)
    scenario.sim.run(until=config.horizon)
    lines = causal_timeline(obs.spans)
    body = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(body)
        return (
            f"causal timeline: {len(lines)} traced-span line(s) from "
            f"{len(obs.spans)} spans\nwrote {args.out}"
        )
    return body.rstrip("\n")


def run_obs(args: argparse.Namespace) -> str:
    if args.obs_command == "report":
        return _run_report(args)
    if args.obs_command == "timeline":
        return _run_timeline(args)

    from repro.fleet.executor import execute_run

    spec = _pick_spec(args)
    obs = Observability.enabled()
    result = execute_run(spec, obs=obs)

    if args.obs_command == "export-trace":
        events = write_chrome_trace(
            args.out, obs.spans, by_exchange=args.by_exchange
        )
        return (
            f"run {result.run_id} ({spec.mechanism} vs {spec.adversary}): "
            f"{len(obs.spans)} spans -> {events} trace events\n"
            f"wrote {args.out}; open it at https://ui.perfetto.dev"
        )

    # export-metrics
    if args.format == "jsonl":
        count = obs.metrics.to_jsonl(args.out)
        what = f"{count} metric lines"
    else:
        text = to_prometheus_text(obs.metrics)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        what = f"{len(obs.metrics)} instruments"
    return (
        f"run {result.run_id} ({spec.mechanism} vs {spec.adversary}): "
        f"{what}\nwrote {args.out}"
    )


# ---------------------------------------------------------------------------
# repro profile
# ---------------------------------------------------------------------------


def add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--campaign", default="qoa",
                        help="canned campaign name (qoa, matrix, locking)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="seed count for the campaign plan")
    parser.add_argument("--runs", type=int, default=4,
                        help="profile the first N planned runs")
    parser.add_argument("--by", default="events",
                        choices=["events", "sim_time", "wall_time"],
                        help="hot-spot sort column")
    parser.add_argument("--top", type=int, default=20,
                        help="rows in the hot-spot table")
    parser.add_argument("--no-wall", action="store_true",
                        help="sim-time-only profiling (fully deterministic)")


def run_profile(args: argparse.Namespace) -> str:
    from repro.fleet.clock import perf_time
    from repro.fleet.executor import execute_run

    specs = _campaign_specs(args)[: max(1, args.runs)]
    wall = None if args.no_wall else perf_time
    profiler = EventLoopProfiler(wall_clock=wall)
    obs = Observability(profiler=profiler)
    for spec in specs:
        execute_run(spec, obs=obs)
    mechanisms = sorted({spec.mechanism for spec in specs})
    lines = [
        f"profiled {len(specs)} run(s) of campaign {args.campaign!r} "
        f"({', '.join(mechanisms)}): {profiler.total_events} events, "
        f"{profiler.total_sim_time:.3f} sim-seconds",
        "",
        profiler.render(by=args.by, limit=args.top),
    ]
    return "\n".join(lines)
