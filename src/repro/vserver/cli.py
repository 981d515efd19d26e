"""The ``repro serve`` entry point: run a served-verifier load test.

Kept separate from :mod:`repro.cli` (the pattern the lint and obs
subcommands follow) so the service harness stays importable and
scriptable -- ``run_serve`` is what the CI load-test smoke job and
the tests drive.
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import List

from repro.vserver.service import (
    SERVICE_PRESETS,
    ServiceConfig,
    service_preset,
)


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the serve options to a (sub)parser."""
    parser.add_argument(
        "--preset", default="smoke", choices=sorted(SERVICE_PRESETS),
        help="named service configuration (default: smoke)",
    )
    parser.add_argument(
        "--service", default=None,
        help=(
            "DSL overrides on top of the preset, e.g. "
            "'provers=200;epoch=0.5'"
        ),
    )
    parser.add_argument(
        "--provers", type=int, default=None,
        help="override the prover population size",
    )
    parser.add_argument(
        "--horizon", type=float, default=None,
        help="override the sim horizon (seconds)",
    )
    parser.add_argument(
        "--ledger", default=None,
        help="write the canonical verdict ledger (JSONL) here",
    )
    parser.add_argument(
        "--outcomes", action="store_true",
        help="also render the exchange-outcome taxonomy table",
    )
    parser.add_argument(
        "--timing", action="store_true",
        help="report wall-clock verify-stage timing (non-deterministic; "
             "never part of the ledger)",
    )


def _config_from_args(args: argparse.Namespace) -> ServiceConfig:
    config = service_preset(args.preset)
    if args.service:
        # re-parse with the preset as base: "preset=<chosen>;<overrides>"
        config = ServiceConfig.parse(
            f"preset={args.preset};{args.service}"
        )
    overrides = {}
    if args.provers is not None:
        overrides["provers"] = args.provers
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def run_serve(args: argparse.Namespace) -> str:
    """Build, run, and summarize one served-verifier scenario."""
    from repro.scenario import Scenario

    config = _config_from_args(args)
    scenario = Scenario.build(service=config)
    if args.timing:
        from repro.fleet.clock import perf_time

        scenario.server.verify_wall_time = 0.0
        scenario.server.verify_wall_clock = perf_time
    scenario.run()

    lines: List[str] = [
        (
            f"serve: preset {args.preset!r}, {config.provers} provers / "
            f"{config.cohorts} cohorts, epoch {config.epoch}s"
        ),
        scenario.server.summary(),
    ]
    if args.outcomes:
        lines.append(scenario.outcomes.render("exchange outcomes:"))
    if args.timing:
        wall = scenario.server.verify_wall_time
        verified = scenario.server.verified
        rate = verified / wall if wall > 0 else 0.0
        lines.append(
            f"  verify stage: {wall:.4f}s wall for {verified} reports "
            f"({rate:,.0f} reports/s)"
        )
    if args.ledger:
        count = scenario.write_ledger(args.ledger)
        lines.append(f"  ledger: {count} entries -> {args.ledger}")
    return "\n".join(lines)
