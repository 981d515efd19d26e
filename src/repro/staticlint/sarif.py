"""SARIF 2.1.0 reporter (GitHub code scanning ingests this format).

One run, one driver (``repro-lint``), one rule entry per registered
rule, one result per finding.  Suppressed findings are emitted with
an ``inSource`` ``suppressions`` entry instead of being dropped, so
code-scanning shows them as dismissed rather than re-opening them on
every push.  Interprocedural traces are carried as ``codeFlows`` so
the source->sink path renders step by step in the UI.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.staticlint.findings import Finding, Severity

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

_TRACE_LOC_RE = re.compile(r"^(?P<path>.+?):(?P<line>\d+):\s*(?P<msg>.*)$")


def _artifact_uri(path: str) -> str:
    """Repo-relative posix URI when possible, else the posix path."""
    posix = Path(path).as_posix()
    cwd = Path.cwd().as_posix().rstrip("/") + "/"
    if posix.startswith(cwd):
        return posix[len(cwd):]
    return posix.lstrip("/") if posix.startswith("/") else posix


def _level(severity: Severity) -> str:
    return "error" if severity is Severity.ERROR else "warning"


def _rule_entry(rule) -> Dict[str, Any]:
    return {
        "id": rule.id,
        "name": rule.id.replace("-", "_"),
        "shortDescription": {"text": rule.summary},
        "fullDescription": {"text": rule.rationale},
        "help": {"text": rule.hint},
        "defaultConfiguration": {"level": _level(rule.severity)},
        "properties": {
            "family": rule.family,
            "wholeProgram": bool(getattr(rule, "whole_program", False)),
        },
    }


def _location(finding: Finding) -> Dict[str, Any]:
    region: Dict[str, Any] = {
        "startLine": max(1, finding.line),
        "startColumn": max(1, finding.col),
    }
    if finding.line_text:
        region["snippet"] = {"text": finding.line_text}
    return {
        "physicalLocation": {
            "artifactLocation": {
                "uri": _artifact_uri(finding.path),
                "uriBaseId": "%SRCROOT%",
            },
            "region": region,
        }
    }


def _code_flow(finding: Finding) -> Optional[Dict[str, Any]]:
    """Render the interprocedural trace as one SARIF threadFlow."""
    if not finding.trace:
        return None
    locations: List[Dict[str, Any]] = []
    for step in finding.trace:
        match = _TRACE_LOC_RE.match(step)
        if match is None:
            continue
        locations.append({
            "location": {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": _artifact_uri(match.group("path")),
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": int(match.group("line")),
                    },
                },
                "message": {"text": match.group("msg") or step},
            }
        })
    if not locations:
        return None
    return {"threadFlows": [{"locations": locations}]}


def _result(finding: Finding) -> Dict[str, Any]:
    message = finding.message
    if finding.hint:
        message += f"\nhint: {finding.hint}"
    result: Dict[str, Any] = {
        "ruleId": finding.rule_id,
        "level": _level(finding.severity),
        "message": {"text": message},
        "locations": [_location(finding)],
        "partialFingerprints": {
            "reproLintFingerprint": finding.fingerprint(),
        },
    }
    flow = _code_flow(finding)
    if flow is not None:
        result["codeFlows"] = [flow]
    if finding.suppressed:
        result["suppressions"] = [{
            "kind": "inSource",
            "justification": "inline # repro: allow[...] comment",
        }]
    return result


def render_sarif(
    findings: Sequence[Finding], rules: Sequence
) -> str:
    """The full SARIF log for one lint run."""
    known = {rule.id for rule in rules}
    rule_entries = [_rule_entry(rule) for rule in rules]
    # findings can reference pseudo-rules (parse-error): synthesize
    for rule_id in sorted({f.rule_id for f in findings} - known):
        rule_entries.append({
            "id": rule_id,
            "name": rule_id.replace("-", "_"),
            "shortDescription": {"text": rule_id},
            "defaultConfiguration": {"level": "error"},
        })
    results = [
        _result(finding)
        for finding in sorted(
            findings,
            key=lambda f: (f.path, f.line, f.col, f.rule_id),
        )
    ]
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rule_entries,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)
