"""Whole-program analyzer tests: symbols, call graph, taint.

Each interprocedural rule gets a cross-file fixture trio: a true
positive the lexical rules cannot see (the hazard spans two modules),
the same positive suppressed inline, and a near-miss that must NOT
fire.  On top of that: call-graph resolution, taint-engine unit
semantics (injection, backflow, sanitizers, projections), SARIF
output, ``--explain`` and ``--call-graph``.
"""

import ast
import json

from repro.staticlint import (
    LintConfig,
    ProjectIndex,
    TaintSpec,
    analyze_project,
    analyze_source,
    build_report,
    extract_module_summary,
    run_taint,
)
from repro.staticlint.cli import main
from repro.staticlint.dataflow import call_matcher
from repro.staticlint.symbols import module_name


def write_project(root, files):
    """Write ``{relpath: source}`` under ``root/src`` and return it."""
    src = root / "src"
    for rel, text in files.items():
        path = src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return src


def live_findings(tmp_path, files, rule=None):
    src = write_project(tmp_path, files)
    config = LintConfig(select=(rule,) if rule else None)
    analysis = analyze_project([str(src)], config)
    return [f for f in analysis.findings if not f.suppressed]


def all_findings(tmp_path, files, rule=None):
    src = write_project(tmp_path, files)
    config = LintConfig(select=(rule,) if rule else None)
    return analyze_project([str(src)], config).findings


# ---------------------------------------------------------------------------
# symbols / call graph
# ---------------------------------------------------------------------------


class TestModuleName:
    def test_relative_to_root(self):
        assert (
            module_name("src/repro/fleet/clock.py", ["src"])
            == "repro.fleet.clock"
        )

    def test_package_init_collapses(self):
        assert module_name("src/repro/__init__.py", ["src"]) == "repro"

    def test_repro_anchor_without_root(self):
        assert (
            module_name("/x/y/repro/ra/verifier.py") == "repro.ra.verifier"
        )


def index_of(sources):
    """Build a ProjectIndex from ``{path: source}`` fixtures."""
    summaries = {}
    for path, text in sources.items():
        tree = ast.parse(text)
        summaries[path] = extract_module_summary(tree, path, ["src"])
    return ProjectIndex.build(summaries.values())


class TestCallGraph:
    SOURCES = {
        "src/pkg/a.py": (
            "from pkg.b import helper\n"
            "class Runner:\n"
            "    def go(self):\n"
            "        self.step()\n"
            "        helper()\n"
            "    def step(self):\n"
            "        unique_leaf()\n"
        ),
        "src/pkg/b.py": (
            "def helper():\n"
            "    return 1\n"
            "def unique_leaf():\n"
            "    return 2\n"
            "def drive(runner):\n"
            "    runner.step()\n"
        ),
    }

    def test_self_method_resolves_to_same_class(self):
        index = index_of(self.SOURCES)
        go = index.functions["pkg.a.Runner.go"]
        callee = index.resolve_call(go, go.calls[0])
        assert callee is not None
        assert callee.qual == "pkg.a.Runner.step"

    def test_import_dealiasing_resolves_cross_module(self):
        index = index_of(self.SOURCES)
        go = index.functions["pkg.a.Runner.go"]
        callee = index.resolve_call(go, go.calls[1])
        assert callee is not None
        assert callee.qual == "pkg.b.helper"

    def test_unique_method_fallback(self):
        # ``runner.step()``: the receiver type is unknown, but only
        # one class in the project defines a ``step`` method
        index = index_of(self.SOURCES)
        drive = index.functions["pkg.b.drive"]
        callee = index.resolve_call(drive, drive.calls[0])
        assert callee is not None
        assert callee.qual == "pkg.a.Runner.step"

    def test_bare_unknown_name_stays_unresolved(self):
        # a bare call to an unimported name is deliberately NOT
        # resolved through the unique-name fallback
        index = index_of(self.SOURCES)
        step = index.functions["pkg.a.Runner.step"]
        assert index.resolve_call(step, step.calls[0]) is None

    def test_render_lists_edges(self):
        index = index_of(self.SOURCES)
        rendered = index.render()
        assert "pkg.a.Runner.go" in rendered
        assert "pkg.b.helper" in rendered


# ---------------------------------------------------------------------------
# taint engine semantics
# ---------------------------------------------------------------------------


def taint_spec(**overrides):
    base = dict(
        rule_id="test-rule",
        call_sources=call_matcher(
            terminals=("taint_source",), describe="source {name}"
        ),
        sinks=call_matcher(terminals=("sink",), describe="{name}()"),
        sanitizers=call_matcher(terminals=("launder",)),
    )
    base.update(overrides)
    return TaintSpec(**base)


class TestTaintEngine:
    def test_cross_file_param_injection_and_ret_backflow(self):
        index = index_of({
            "src/t/a.py": (
                "from t.b import identity\n"
                "def top():\n"
                "    value = taint_source()\n"
                "    out = identity(value)\n"
                "    sink(out)\n"
            ),
            "src/t/b.py": (
                "def identity(x):\n"
                "    return x\n"
            ),
        })
        hits = run_taint(index, taint_spec())
        assert len(hits) == 1
        assert hits[0].function.qual == "t.a.top"
        trace = "\n".join(hits[0].trace)
        assert "passes tainted value into identity()" in trace
        assert "receives tainted return value from identity()" in trace

    def test_sanitizer_cuts_the_flow(self):
        index = index_of({
            "src/t/a.py": (
                "def top():\n"
                "    value = taint_source()\n"
                "    out = launder(value)\n"
                "    sink(out)\n"
            ),
        })
        assert run_taint(index, taint_spec()) == []

    def test_sanitizer_inside_return_expression_cuts_too(self):
        # the regression the call-mediated _expr_deps exists for:
        # ``return launder(value)`` must not leak a direct edge
        index = index_of({
            "src/t/a.py": (
                "from t.b import derive\n"
                "def top():\n"
                "    out = derive(taint_source())\n"
                "    sink(out)\n"
            ),
            "src/t/b.py": (
                "def derive(x):\n"
                "    return launder(x)\n"
            ),
        })
        assert run_taint(index, taint_spec()) == []

    def test_unknown_callee_taints_through(self):
        index = index_of({
            "src/t/a.py": (
                "def top():\n"
                "    out = external(taint_source())\n"
                "    sink(out)\n"
            ),
        })
        assert len(run_taint(index, taint_spec())) == 1

    def test_projection_filter_gates_container_reads(self):
        sources = {
            "src/t/a.py": (
                "def top():\n"
                "    box = external(taint_source())\n"
                "    sink(box.metadata)\n"
                "    sink(box.key)\n"
            ),
        }
        # default projection: both reads inherit the container taint
        hits = run_taint(index_of(sources), taint_spec())
        assert len(hits) == 2
        # a narrowed projection keeps .metadata clean
        narrowed = taint_spec(projection=lambda attr: attr == "key")
        hits = run_taint(index_of(sources), narrowed)
        assert len(hits) == 1
        assert hits[0].line == 4

    def test_name_sources_seed_parameters(self):
        index = index_of({
            "src/t/a.py": (
                "def handler(secret):\n"
                "    sink(secret)\n"
            ),
        })
        spec = taint_spec(
            name_sources=lambda func: [
                (f"param:{p}", f"parameter {p}")
                for p in func.params
                if p == "secret"
            ],
        )
        hits = run_taint(index, spec)
        assert len(hits) == 1
        assert "parameter secret" in hits[0].trace[0]


# ---------------------------------------------------------------------------
# det-taint-flow (cross-file)
# ---------------------------------------------------------------------------

DET_CLOCK = (
    "import time\n"
    "\n"
    "def wall_now():\n"
    "    return time.time()\n"
)


class TestDetTaintFlow:
    RULE = "det-taint-flow"

    def test_blessed_clock_value_reaching_scheduler_flagged(self, tmp_path):
        found = live_findings(tmp_path, {
            "repro/fleet/clock.py": DET_CLOCK,
            "repro/core/run.py": (
                "from repro.fleet.clock import wall_now\n"
                "\n"
                "def kickoff(sim):\n"
                "    t = wall_now()\n"
                "    sim.schedule(t, None)\n"
            ),
        })
        dets = [f for f in found if f.rule_id == self.RULE]
        assert len(dets) == 1
        assert dets[0].path.endswith("repro/core/run.py")
        assert dets[0].line == 5
        # the source lives in the allowlisted clock module, which the
        # lexical det-wall-clock rule deliberately ignores
        assert not any(f.rule_id == "det-wall-clock" for f in found)
        trace = "\n".join(dets[0].trace)
        assert "time.time" in trace
        assert "reaches sink" in trace

    def test_inline_suppression_honored(self, tmp_path):
        found = all_findings(tmp_path, {
            "repro/fleet/clock.py": DET_CLOCK,
            "repro/core/run.py": (
                "from repro.fleet.clock import wall_now\n"
                "\n"
                "def kickoff(sim):\n"
                "    t = wall_now()\n"
                "    sim.schedule(t, None)"
                "  # repro: allow[det-taint-flow] -- test rig\n"
            ),
        }, rule=self.RULE)
        assert [f.suppressed for f in found] == [True]

    def test_telemetry_envelope_not_flagged(self, tmp_path):
        # RunResult is the sanctioned wall-clock envelope
        found = live_findings(tmp_path, {
            "repro/fleet/clock.py": DET_CLOCK,
            "repro/core/run.py": (
                "from repro.fleet.clock import wall_now\n"
                "\n"
                "def kickoff(sim, results):\n"
                "    results.append(RunResult(started_at=wall_now()))\n"
                "    sim.schedule(0.0, None)\n"
            ),
        }, rule=self.RULE)
        assert found == []


# ---------------------------------------------------------------------------
# crypto-secret-leak (cross-file)
# ---------------------------------------------------------------------------

LEAK_KEYS = (
    "def expand_key(key):\n"
    "    return key\n"
)


class TestCryptoSecretLeak:
    RULE = "crypto-secret-leak"

    def test_key_material_reaching_fstring_flagged(self, tmp_path):
        found = live_findings(tmp_path, {
            "repro/crypto/keys.py": LEAK_KEYS,
            "repro/ra/emit.py": (
                "from repro.crypto.keys import expand_key\n"
                "\n"
                "def emit(logger, raw):\n"
                "    k = expand_key(raw)\n"
                "    msg = f'session {k}'\n"
                "    return msg\n"
            ),
        }, rule=self.RULE)
        assert len(found) == 1
        assert found[0].path.endswith("repro/ra/emit.py")
        assert "f-string" in found[0].message

    def test_inline_suppression_honored(self, tmp_path):
        found = all_findings(tmp_path, {
            "repro/crypto/keys.py": LEAK_KEYS,
            "repro/ra/emit.py": (
                "from repro.crypto.keys import expand_key\n"
                "\n"
                "def emit(logger, raw):\n"
                "    k = expand_key(raw)\n"
                "    msg = f'session {k}'"
                "  # repro: allow[crypto-secret-leak] -- fixture\n"
                "    return msg\n"
            ),
        }, rule=self.RULE)
        assert [f.suppressed for f in found] == [True]

    def test_fingerprint_of_key_not_flagged(self, tmp_path):
        found = live_findings(tmp_path, {
            "repro/crypto/keys.py": LEAK_KEYS,
            "repro/ra/emit.py": (
                "from repro.crypto.keys import expand_key\n"
                "\n"
                "def emit(logger, raw):\n"
                "    k = expand_key(raw)\n"
                "    logger.info(f'session {key_fingerprint(k)}')\n"
            ),
        }, rule=self.RULE)
        assert found == []

    def test_container_metadata_not_flagged(self, tmp_path):
        # a prover object holds a key, but reading .history off it
        # must not count as reading the key
        found = live_findings(tmp_path, {
            "repro/crypto/keys.py": LEAK_KEYS,
            "repro/ra/emit.py": (
                "from repro.crypto.keys import expand_key\n"
                "\n"
                "def emit(logger, raw):\n"
                "    prover = make_prover(expand_key(raw))\n"
                "    a = f'{prover.history}'\n"
                "    b = f'{prover.key}'\n"
                "    return a, b\n"
            ),
        }, rule=self.RULE)
        assert [f.line for f in found] == [6]


# ---------------------------------------------------------------------------
# ra-atomic-gap (cross-file)
# ---------------------------------------------------------------------------

ATOMIC_HELPERS = (
    "def prep(proc):\n"
    "    proc.sim.schedule(0.0, None)\n"
)


class TestAtomicGapInterproc:
    RULE = "ra-atomic-gap"

    def test_helper_scheduling_inside_window_flagged(self, tmp_path):
        found = live_findings(tmp_path, {
            "repro/ra/helpers.py": ATOMIC_HELPERS,
            "repro/ra/proc.py": (
                "from repro.ra.helpers import prep\n"
                "\n"
                "def run(self, proc):\n"
                "    yield Atomic(True)\n"
                "    prep(proc)\n"
                "    yield Compute(0.5)\n"
                "    yield Atomic(False)\n"
            ),
        })
        gaps = [f for f in found if f.rule_id == self.RULE]
        assert len(gaps) == 1
        assert gaps[0].path.endswith("repro/ra/proc.py")
        assert gaps[0].line == 5
        # one rule per hazard: exactly one finding at this site
        assert [
            f for f in found if (f.path, f.line) == (gaps[0].path, 5)
        ] == gaps

    def test_inline_suppression_honored(self, tmp_path):
        found = all_findings(tmp_path, {
            "repro/ra/helpers.py": ATOMIC_HELPERS,
            "repro/ra/proc.py": (
                "from repro.ra.helpers import prep\n"
                "\n"
                "def run(self, proc):\n"
                "    yield Atomic(True)\n"
                "    prep(proc)  # repro: allow[ra-atomic-gap]\n"
                "    yield Compute(0.5)\n"
                "    yield Atomic(False)\n"
            ),
        }, rule=self.RULE)
        assert [f.suppressed for f in found] == [True]

    def test_helper_called_outside_window_not_flagged(self, tmp_path):
        found = live_findings(tmp_path, {
            "repro/ra/helpers.py": ATOMIC_HELPERS,
            "repro/ra/proc.py": (
                "from repro.ra.helpers import prep\n"
                "\n"
                "def run(self, proc):\n"
                "    yield Atomic(True)\n"
                "    yield Compute(0.5)\n"
                "    yield Atomic(False)\n"
                "    prep(proc)\n"
            ),
        }, rule=self.RULE)
        assert found == []

    def test_same_module_helper_reported_by_analyze_source(self):
        source = (
            "def prep(proc):\n"
            "    proc.sim.schedule(0.0, None)\n"
            "\n"
            "def run(self, proc):\n"
            "    yield Atomic(True)\n"
            "    prep(proc)\n"
            "    yield Atomic(False)\n"
        )
        found = analyze_source(
            source, path="src/repro/ra/proc.py",
            config=LintConfig(select=(self.RULE,)),
        )
        assert [(f.rule_id, f.line) for f in found] == [(self.RULE, 6)]
        assert "prep() called inside the atomic section" in found[0].message
        assert found[0].trace

    def test_pure_helper_inside_window_not_flagged(self, tmp_path):
        found = live_findings(tmp_path, {
            "repro/ra/helpers.py": (
                "def pure(x):\n"
                "    return x + 1\n"
            ),
            "repro/ra/proc.py": (
                "from repro.ra.helpers import pure\n"
                "\n"
                "def run(self, proc):\n"
                "    yield Atomic(True)\n"
                "    pure(1)\n"
                "    yield Compute(0.5)\n"
                "    yield Atomic(False)\n"
            ),
        }, rule=self.RULE)
        assert found == []


# ---------------------------------------------------------------------------
# obs-span-leak (cross-file)
# ---------------------------------------------------------------------------

SPAN_OPENER = (
    "def open_phase(obs):\n"
    "    span = obs.begin_span('phase')\n"
    "    return span\n"
)


class TestSpanLeakInterproc:
    RULE = "obs-span-leak"

    def test_unbalanced_opener_call_flagged(self, tmp_path):
        found = live_findings(tmp_path, {
            "repro/obs/spans.py": SPAN_OPENER,
            "repro/core/work.py": (
                "from repro.obs.spans import open_phase\n"
                "\n"
                "def work(obs):\n"
                "    span = open_phase(obs)\n"
                "    use(span)\n"
            ),
        })
        leaks = [f for f in found if f.rule_id == self.RULE]
        assert len(leaks) == 1
        assert leaks[0].path.endswith("repro/core/work.py")
        # the opener itself transfers ownership via return; one rule
        # per hazard: exactly one finding at the caller's site
        assert [
            f for f in found
            if (f.path, f.line) == (leaks[0].path, leaks[0].line)
        ] == leaks

    def test_inline_suppression_honored(self, tmp_path):
        found = all_findings(tmp_path, {
            "repro/obs/spans.py": SPAN_OPENER,
            "repro/core/work.py": (
                "from repro.obs.spans import open_phase\n"
                "\n"
                "def work(obs):\n"
                "    span = open_phase(obs)"
                "  # repro: allow[obs-span-leak]\n"
                "    use(span)\n"
            ),
        }, rule=self.RULE)
        assert [f.suppressed for f in found] == [True]

    def test_caller_ending_span_not_flagged(self, tmp_path):
        found = live_findings(tmp_path, {
            "repro/obs/spans.py": SPAN_OPENER,
            "repro/core/work.py": (
                "from repro.obs.spans import open_phase\n"
                "\n"
                "def work(obs):\n"
                "    span = open_phase(obs)\n"
                "    obs.end_span(span)\n"
            ),
        }, rule=self.RULE)
        assert found == []

    def test_caller_returning_span_not_flagged(self, tmp_path):
        found = live_findings(tmp_path, {
            "repro/obs/spans.py": SPAN_OPENER,
            "repro/core/work.py": (
                "from repro.obs.spans import open_phase\n"
                "\n"
                "def work(obs):\n"
                "    return open_phase(obs)\n"
            ),
        }, rule=self.RULE)
        assert found == []


# ---------------------------------------------------------------------------
# a two-module project: wall-clock taint crosses the module boundary
# ---------------------------------------------------------------------------

TAINT_PROJECT = {
    "repro/fleet/clock.py": DET_CLOCK,
    "repro/core/run.py": (
        "from repro.fleet.clock import wall_now\n"
        "\n"
        "def kickoff(sim):\n"
        "    t = wall_now()\n"
        "    sim.schedule(t, None)\n"
    ),
}


# ---------------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------------


class TestSarif:
    def report(self, tmp_path, files=None):
        src = write_project(tmp_path, files or TAINT_PROJECT)
        return build_report([str(src)])

    def test_envelope_and_rules(self, tmp_path):
        doc = json.loads(self.report(tmp_path).render("sarif"))
        assert doc["version"] == "2.1.0"
        assert "sarif-2.1.0" in doc["$schema"]
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "det-taint-flow" in rule_ids

    def test_result_carries_fingerprint_and_code_flow(self, tmp_path):
        doc = json.loads(self.report(tmp_path).render("sarif"))
        results = doc["runs"][0]["results"]
        flows = [r for r in results if r["ruleId"] == "det-taint-flow"]
        assert len(flows) == 1
        result = flows[0]
        assert result["partialFingerprints"]["reproLintFingerprint"]
        locations = result["codeFlows"][0]["threadFlows"][0]["locations"]
        assert len(locations) >= 2
        first = locations[0]["location"]["physicalLocation"]
        assert first["artifactLocation"]["uri"].endswith(
            "repro/fleet/clock.py"
        )

    def test_suppressed_finding_marked(self, tmp_path):
        files = dict(TAINT_PROJECT)
        files["repro/core/run.py"] = files["repro/core/run.py"].replace(
            "sim.schedule(t, None)",
            "sim.schedule(t, None)  # repro: allow[det-taint-flow] -- rig",
        )
        doc = json.loads(self.report(tmp_path, files).render("sarif"))
        suppressed = [
            r for r in doc["runs"][0]["results"] if r.get("suppressions")
        ]
        assert len(suppressed) == 1
        assert (
            suppressed[0]["suppressions"][0]["kind"] == "inSource"
        )


# ---------------------------------------------------------------------------
# CLI: --explain, --call-graph
# ---------------------------------------------------------------------------


class TestCliWholeProgram:
    def test_explain_prints_source_to_sink_path(
        self, tmp_path, monkeypatch, capsys
    ):
        src = write_project(tmp_path, TAINT_PROJECT)
        monkeypatch.chdir(tmp_path)
        code = main([str(src), "--explain", "det-taint-flow"])
        out = capsys.readouterr().out
        assert code == 1
        assert "source:" in out
        assert "time.time" in out
        assert "reaches sink" in out

    def test_call_graph_renders(self, tmp_path, monkeypatch, capsys):
        src = write_project(tmp_path, TAINT_PROJECT)
        monkeypatch.chdir(tmp_path)
        code = main([str(src), "--call-graph"])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro.core.run.kickoff" in out
        assert "repro.fleet.clock.wall_now" in out
