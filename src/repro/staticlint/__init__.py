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

    determinism  det-wall-clock, det-wall-clock-assert,
                 det-module-random, det-unseeded-random,
                 det-set-iteration, det-mutable-default,
                 det-taint-flow*
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

from repro import export_lazily

__all__ = export_lazily(globals(), {
    "repro.staticlint.callgraph": ("ProjectIndex",),
    "repro.staticlint.cli": ("build_report", "main", "run_lint"),
    "repro.staticlint.dataflow": ("TaintSpec", "run_taint"),
    "repro.staticlint.engine": (
        "ProjectAnalysis", "ProjectContext", "analyze_project",
        "analyze_source", "iter_python_files",
    ),
    "repro.staticlint.findings": ("Finding", "Severity"),
    "repro.staticlint.registry": (
        "LintConfig", "Rule", "all_rules", "get_rule",
        "selected_project_rules", "selected_rules",
    ),
    "repro.staticlint.reporters": ("LintReport", "rule_catalogue"),
    "repro.staticlint.sarif": ("render_sarif",),
    "repro.staticlint.symbols": (
        "FunctionInfo", "ModuleSummary", "extract_module_summary",
    ),
})
