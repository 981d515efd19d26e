"""The analysis driver: parse, run rules, apply suppressions.

One :class:`ModuleContext` per analyzed file carries the parsed tree,
the raw lines, an import-alias table (so ``from time import
perf_counter as pc`` is still seen as ``time.perf_counter``), and the
scoping helpers rules use.  :func:`analyze_source` runs every selected
rule over one module (the whole-program rules see it as a one-module
project); :func:`analyze_project` runs them over files and
directories.

Suppressions
------------
A ``# repro: allow[rule-id]`` comment suppresses matching findings on
its own line; a standalone allow-comment line suppresses the next code
line.  ``allow[rule-a,rule-b]`` lists several rules, ``allow[*]``
suppresses everything on the line.  Suppressed findings are still
reported (marked) but never fail the run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.staticlint.findings import Finding, Severity
from repro.staticlint.registry import (
    LintConfig,
    selected_project_rules,
    selected_rules,
)

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")

#: pseudo-rule reported for files the parser rejects
PARSE_ERROR_RULE = "parse-error"


@dataclass
class ModuleContext:
    """Everything the rules need to know about one module."""

    path: str  # display path (as passed / found on disk)
    norm: str  # normalized posix path, used for scope matching
    source: str
    lines: List[str]
    tree: ast.AST
    config: LintConfig
    import_map: Dict[str, str] = field(default_factory=dict)

    # -- scoping -------------------------------------------------------

    def in_scope(self, patterns: Sequence[str]) -> bool:
        """True when this module lives under any of ``patterns``."""
        return any(pattern in self.norm for pattern in patterns)

    def is_telemetry_module(self) -> bool:
        return self.in_scope(self.config.telemetry_allowlist)

    # -- name resolution -----------------------------------------------

    def resolve(self, node: ast.AST) -> str:
        """Dotted name of an expression, de-aliased through imports.

        ``pc()`` after ``from time import perf_counter as pc`` resolves
        to ``"time.perf_counter"``; unresolvable expressions (calls on
        call results, subscripts, ...) resolve to ``""``.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return ""
        root = self.import_map.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))


@dataclass
class ProjectContext:
    """Everything a whole-program rule sees: every module's summary,
    the call graph index over them, and the raw lines (for snippets
    and suppression handling).  Keyed by each module's display path."""

    summaries: Dict[str, "ModuleSummary"]  # display path -> summary
    index: "ProjectIndex"
    config: LintConfig
    lines: Dict[str, List[str]]  # display path -> source lines

    def line_text(self, path: str, line: int) -> str:
        lines = self.lines.get(path, [])
        if 1 <= line <= len(lines):
            return lines[line - 1].strip()
        return ""

    def finding(
        self,
        rule,
        path: str,
        line: int,
        col: int,
        message: str,
        trace: Sequence[str] = (),
        hint: Optional[str] = None,
    ) -> Finding:
        """Build a finding for a whole-program rule at a location."""
        return Finding(
            rule_id=rule.id,
            path=path,
            line=line,
            col=col,
            message=message,
            hint=rule.hint if hint is None else hint,
            severity=rule.severity,
            line_text=self.line_text(path, line),
            trace=tuple(trace),
        )


def build_import_map(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted names they import."""
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else local
                mapping[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level:  # relative imports never alias stdlib modules
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                mapping[local] = f"{node.module}.{alias.name}"
    return mapping


def walk_scope(root: ast.AST) -> Iterable[ast.AST]:
    """Walk ``root`` without descending into nested function bodies.

    Used by the summary extractor and the lexical rules that reason
    about one function body: code inside a nested ``def``/``lambda``
    runs at some other time and must not be attributed to the outer
    function (an atomic window, a span balance, a taint path).
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


def suppressed_lines(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule ids allowed on them."""
    allowed: Dict[int, Set[str]] = {}
    pending: Set[str] = set()
    for number, line in enumerate(lines, start=1):
        match = _ALLOW_RE.search(line)
        rules_here: Set[str] = set()
        if match:
            rules_here = {
                token.strip()
                for token in match.group(1).split(",")
                if token.strip()
            }
        before_comment = line.split("#", 1)[0]
        is_code = bool(before_comment.strip())
        if is_code:
            combined = rules_here | pending
            if combined:
                allowed[number] = allowed.get(number, set()) | combined
            pending = set()
        elif rules_here:
            # standalone allow-comment: applies to the next code line
            pending |= rules_here
    return allowed


def _apply_suppressions(
    findings: List[Finding], allowed: Dict[int, Set[str]]
) -> List[Finding]:
    out = []
    for finding in findings:
        rules = allowed.get(finding.line, ())
        if finding.rule_id in rules or "*" in rules:
            finding = _replace(finding, suppressed=True)
        out.append(finding)
    return out


def _replace(finding: Finding, **changes) -> Finding:
    import dataclasses

    return dataclasses.replace(finding, **changes)


def _number_occurrences(findings: List[Finding]) -> List[Finding]:
    """Disambiguate findings sharing (rule, path, line text)."""
    seen: Dict[Tuple[str, str, str], int] = {}
    out = []
    for finding in sorted(findings, key=lambda f: (f.line, f.col, f.rule_id)):
        key = (finding.rule_id, finding.path, finding.line_text)
        index = seen.get(key, 0)
        seen[key] = index + 1
        out.append(
            _replace(finding, occurrence=index) if index else finding
        )
    return out


# ---------------------------------------------------------------------------
# Analysis entry points
# ---------------------------------------------------------------------------


def _parse_module(
    source: str, path: str, config: LintConfig
) -> Tuple[Optional[ModuleContext], Optional[Finding]]:
    """Parse one module; (context, None) or (None, parse-error)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return None, Finding(
            rule_id=PARSE_ERROR_RULE,
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            message=f"could not parse module: {exc.msg}",
            hint="fix the syntax error; unparseable code is unchecked",
            severity=Severity.ERROR,
            line_text=(exc.text or "").strip(),
        )
    return ModuleContext(
        path=path,
        norm=Path(path).as_posix(),
        source=source,
        lines=source.splitlines(),
        tree=tree,
        config=config,
        import_map=build_import_map(tree),
    ), None


def _lexical_findings(ctx: ModuleContext) -> List[Finding]:
    """Run the lexical rules over one parsed module, finished
    (occurrence-numbered and suppression-marked)."""
    findings: List[Finding] = []
    for rule in selected_rules(ctx.config):
        findings.extend(rule.check(ctx))
    findings = _number_occurrences(findings)
    return _apply_suppressions(findings, suppressed_lines(ctx.lines))


def analyze_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Run every selected rule over one module's source text.

    The whole-program rules see the module as a one-module project;
    that pass is skipped when no selected rule is whole-program.
    """
    from repro.staticlint.callgraph import ProjectIndex
    from repro.staticlint.symbols import extract_module_summary

    config = config or LintConfig()
    ctx, parse_error = _parse_module(source, path, config)
    if parse_error is not None:
        return [parse_error]
    findings = _lexical_findings(ctx)
    if selected_project_rules(config):
        summary = extract_module_summary(
            ctx.tree, path, import_map=ctx.import_map
        )
        findings += _project_findings(ProjectContext(
            summaries={path: summary},
            index=ProjectIndex.build([summary]),
            config=config,
            lines={path: ctx.lines},
        ))
    return sorted(findings, key=lambda f: (f.line, f.col, f.rule_id))


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    found: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            found.extend(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py" and path.exists():
            found.append(path)
    return sorted(set(found))


# ---------------------------------------------------------------------------
# Whole-program analysis
# ---------------------------------------------------------------------------


@dataclass
class ProjectAnalysis:
    """One whole-project run: lexical + interprocedural findings."""

    findings: List[Finding]
    files: List[Path]
    #: the summaries and call-graph index (drive --call-graph)
    context: ProjectContext


def _project_findings(context: ProjectContext) -> List[Finding]:
    """Run the selected whole-program rules, finished
    (occurrence-numbered and suppression-marked)."""
    findings: List[Finding] = []
    for prule in selected_project_rules(context.config):
        findings.extend(prule.check(context))
    findings = _number_occurrences(findings)
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    out: List[Finding] = []
    for path in sorted(by_path):
        allowed = suppressed_lines(context.lines.get(path, []))
        out.extend(_apply_suppressions(by_path[path], allowed))
    return out


def analyze_project(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
) -> ProjectAnalysis:
    """Analyze ``paths`` as one project: the lexical rules per module
    plus the whole-program (interprocedural) rules over all of them.
    """
    from repro.staticlint.callgraph import ProjectIndex
    from repro.staticlint.symbols import (
        ModuleSummary,
        extract_module_summary,
    )

    config = config or LintConfig()
    selected_rules(config)  # fail fast on unknown --select ids
    files = iter_python_files(paths)
    roots = sorted(
        Path(entry).as_posix() for entry in paths if Path(entry).is_dir()
    )

    module_findings: List[Finding] = []
    summaries: Dict[str, ModuleSummary] = {}  # display path -> summary
    lines_by_path: Dict[str, List[str]] = {}
    for file in files:
        path = str(file)
        source = file.read_text(encoding="utf-8")
        ctx, parse_error = _parse_module(source, path, config)
        if parse_error is not None:
            module_findings.append(parse_error)
            lines_by_path[path] = source.splitlines()
            summaries[path] = ModuleSummary(path=path, module="<unparsed>")
        else:
            module_findings.extend(_lexical_findings(ctx))
            lines_by_path[path] = ctx.lines
            summaries[path] = extract_module_summary(
                ctx.tree, path, roots=roots, import_map=ctx.import_map,
            )

    context = ProjectContext(
        summaries=summaries,
        index=ProjectIndex.build(list(summaries.values())),
        config=config,
        lines=lines_by_path,
    )
    return ProjectAnalysis(
        findings=module_findings + _project_findings(context),
        files=files,
        context=context,
    )
