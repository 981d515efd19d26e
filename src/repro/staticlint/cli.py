"""The ``repro lint`` entry point.

Kept separate from :mod:`repro.cli` so the analyzer is importable and
scriptable (``run_lint`` is what the tests and CI drive) while the
top-level CLI stays a thin argument shim.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.staticlint.baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.staticlint.cache import DEFAULT_CACHE_NAME
from repro.staticlint.engine import analyze_project, iter_python_files
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
        "--baseline", default=None,
        help=(
            "baseline file of accepted findings "
            f"(default: ./{DEFAULT_BASELINE_NAME} when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept all current findings into the baseline and exit 0",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="warnings and stale baseline entries also fail the run",
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
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None,
        metavar="GIT_REF",
        help=(
            "lint only files modified vs. a git ref (default HEAD) "
            "plus untracked files; intersected with the given paths"
        ),
    )
    parser.add_argument(
        "--cache", nargs="?", const=DEFAULT_CACHE_NAME, default=None,
        metavar="PATH",
        help=(
            "cache per-module analysis by content hash "
            f"(default path: ./{DEFAULT_CACHE_NAME})"
        ),
    )


def build_report(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    baseline_path: Optional[str] = None,
    strict: bool = False,
    cache_path: Optional[str] = None,
    need_context: bool = False,
) -> LintReport:
    """Analyze ``paths`` (lexical + whole-program rules) and fold in
    the baseline -- the API the self-scan test uses directly.

    ``cache_path`` enables the content-hash analysis cache;
    ``need_context`` materializes the call-graph index on the report
    even when every result came from the cache.
    """
    analysis = analyze_project(
        paths,
        config=config,
        cache_path=cache_path,
        need_context=need_context,
    )
    findings = analysis.findings
    baseline = load_baseline(baseline_path) if baseline_path else None
    if baseline is not None:
        findings, stale = apply_baseline(findings, baseline)
    else:
        stale = []
    return LintReport(
        findings=findings,
        stale_baseline=stale,
        files_checked=len(analysis.files),
        strict=strict,
        context=analysis.context,
        cache_stats=(
            {"hits": analysis.cache_hits, "misses": analysis.cache_misses}
            if cache_path is not None
            else None
        ),
    )


def _default_baseline(args: argparse.Namespace) -> Optional[str]:
    if args.no_baseline:
        return None
    if args.baseline:
        return args.baseline
    default = Path(DEFAULT_BASELINE_NAME)
    return str(default) if default.exists() else None


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


def _changed_files(ref: str, paths: Sequence[str]) -> List[str]:
    """Python files under ``paths`` modified vs. ``ref`` or untracked."""
    changed = set()
    for cmd in (
        ["git", "diff", "--name-only", ref, "--", "*.py"],
        ["git", "ls-files", "--others", "--exclude-standard",
         "--", "*.py"],
    ):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise ConfigurationError(f"--changed needs git: {exc}")
        if proc.returncode != 0:
            raise ConfigurationError(
                f"--changed: {' '.join(cmd)} failed: "
                + proc.stderr.strip()
            )
        for name in proc.stdout.splitlines():
            name = name.strip()
            if name:
                changed.add(Path(name).resolve())
    return [
        str(path)
        for path in iter_python_files(paths)
        if path.resolve() in changed
    ]


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
        if finding.baselined:
            print("    (accepted in the baseline)")
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
    config = LintConfig(select=select)

    paths = list(args.paths)
    if args.changed is not None:
        paths = _changed_files(args.changed, paths)
        if not paths:
            print(
                f"no python files changed vs. {args.changed}; "
                "nothing to lint"
            )
            return 0

    if args.write_baseline:
        target = args.baseline or DEFAULT_BASELINE_NAME
        report = build_report(
            paths, config=config, cache_path=args.cache
        )
        accepted = write_baseline(
            target,
            [f for f in report.findings if not f.suppressed],
        )
        print(
            f"baselined {len(accepted.entries)} finding(s) into {target}"
        )
        return 0

    report = build_report(
        paths,
        config=config,
        baseline_path=_default_baseline(args),
        strict=args.strict,
        cache_path=args.cache,
        need_context=args.call_graph,
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
