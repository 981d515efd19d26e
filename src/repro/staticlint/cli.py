"""The ``repro lint`` entry point.

Kept separate from :mod:`repro.cli` so the analyzer is importable and
scriptable (``run_lint`` is what the tests and CI drive) while the
top-level CLI stays a thin argument shim.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.staticlint.engine import analyze_project
from repro.staticlint.registry import LintConfig, all_rules
from repro.staticlint.reporters import LintReport, rule_catalogue


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json", "sarif"],
        help="report format",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="warnings also fail the run",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--call-graph", action="store_true",
        help="print the whole-program call graph and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE_OR_FINGERPRINT",
        help=(
            "print the source->sink path for matching findings "
            "(a rule id or a fingerprint prefix)"
        ),
    )


def build_report(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    strict: bool = False,
) -> LintReport:
    """Analyze ``paths`` (lexical + whole-program rules) -- the API the
    self-scan test uses directly."""
    analysis = analyze_project(paths, config=config)
    return LintReport(
        findings=analysis.findings,
        files_checked=len(analysis.files),
        strict=strict,
        context=analysis.context,
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint``; returns the process exit code.

    Usage errors (unknown rule id, missing path) exit 2 with a
    message on stderr; findings exit 1; a clean run exits 0.
    """
    try:
        return _run_lint(args)
    except ConfigurationError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2


def _explain(report: LintReport, token: str) -> None:
    matched = [
        f for f in report.findings
        if f.rule_id == token or f.fingerprint().startswith(token)
    ]
    if not matched:
        print(f"no finding matches {token!r}")
        return
    for finding in sorted(
        matched, key=lambda f: (f.path, f.line, f.col, f.rule_id)
    ):
        print(finding.render())
        if finding.suppressed:
            print("    (suppressed in source)")
        if finding.trace:
            print("    path:")
            for index, step in enumerate(finding.trace, start=1):
                print(f"      {index}. {step}")
        else:
            print("    (single-function finding: no cross-function path)")


def _run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(rule_catalogue(all_rules()))
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        raise ConfigurationError(
            "no such path(s): " + ", ".join(missing)
        )

    select = None
    if args.select:
        select = tuple(
            token.strip() for token in args.select.split(",")
            if token.strip()
        )
    report = build_report(
        args.paths, config=LintConfig(select=select), strict=args.strict
    )
    if args.call_graph:
        print(report.context.index.render())
        return 0
    if args.explain is not None:
        _explain(report, args.explain)
        return report.exit_code
    print(report.render(args.format))
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="determinism & crypto-safety analyzer for the "
                    "simulation stack",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
