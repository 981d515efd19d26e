"""`repro lint`: determinism & crypto-safety static analysis.

The reproduction rests on contracts nothing else enforces: the DES
engine promises identical traces for identical inputs, the fleet layer
promises canonical JSONL free of volatile fields, the verifiers
promise constant-time tag comparison, and the atomic measurement modes
promise no interleaving between MPU lock and unlock.  This package is
the AST-based analyzer that machine-checks those conventions, in the
spirit of statically-verified RA designs (VRASED, OAT): the security
argument is only as good as the properties the measurement code
provably has.

Rule families (see :mod:`repro.staticlint.determinism`,
:mod:`repro.staticlint.crypto_rules`,
:mod:`repro.staticlint.atomicity`,
:mod:`repro.staticlint.obs_rules`,
:mod:`repro.staticlint.perf_rules`,
:mod:`repro.staticlint.taint_rules`)::

    determinism  det-wall-clock, det-module-random,
                 det-unseeded-random, det-set-iteration,
                 det-mutable-default, det-taint-flow*
    crypto       crypto-digest-eq, crypto-random-module,
                 crypto-secret-leak*
    atomicity    ra-atomic-gap*, ra-naked-send
    observability  obs-span-leak*, obs-ctx-drop
    performance  perf-unbounded-queue

Rules marked ``*`` are whole-program: they run once over the project
symbol table / call graph / taint engine (:mod:`repro.staticlint.
symbols`, :mod:`repro.staticlint.callgraph`,
:mod:`repro.staticlint.dataflow`) instead of per module; a finding that
crosses a function boundary carries a ``trace`` (the source->sink
path or the call chain).

Usage::

    repro lint src/                 # self-scan, exit 0 when clean
    repro lint --list-rules         # the catalogue
    repro lint --format json src/   # machine-readable findings
    repro lint --format sarif src/  # SARIF 2.1.0 (code scanning)
    repro lint --call-graph src/    # the resolved call graph
    repro lint --explain det-taint-flow src/   # source->sink paths

Inline suppression: ``# repro: allow[rule-id]  -- justification`` is
the one way to accept a finding.
"""

from repro.staticlint.callgraph import ProjectIndex
from repro.staticlint.cli import build_report, main, run_lint
from repro.staticlint.dataflow import TaintSpec, run_taint
from repro.staticlint.engine import (
    ProjectAnalysis,
    ProjectContext,
    analyze_project,
    analyze_source,
    iter_python_files,
)
from repro.staticlint.findings import Finding, Severity
from repro.staticlint.registry import (
    LintConfig,
    Rule,
    all_rules,
    get_rule,
    selected_project_rules,
    selected_rules,
)
from repro.staticlint.reporters import LintReport, rule_catalogue
from repro.staticlint.sarif import render_sarif
from repro.staticlint.symbols import (
    FunctionInfo,
    ModuleSummary,
    extract_module_summary,
)

__all__ = [
    "Finding",
    "FunctionInfo",
    "LintConfig",
    "LintReport",
    "ModuleSummary",
    "ProjectAnalysis",
    "ProjectContext",
    "ProjectIndex",
    "Rule",
    "TaintSpec",
    "all_rules",
    "analyze_project",
    "analyze_source",
    "build_report",
    "extract_module_summary",
    "get_rule",
    "iter_python_files",
    "main",
    "render_sarif",
    "rule_catalogue",
    "run_lint",
    "run_taint",
    "selected_project_rules",
    "selected_rules",
    "Severity",
]
