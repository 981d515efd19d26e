"""Text and JSON reporters plus the run verdict.

The exit-code policy lives here so the CLI and tests share it:

* exit 0 -- no live errors (suppressed findings are fine, warnings
  are fine unless ``--strict``);
* exit 1 -- at least one live error finding (or warning under strict);
* exit 2 -- usage/configuration problems (raised upstream).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.staticlint.engine import ProjectContext
from repro.staticlint.findings import Finding, Severity


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding]
    files_checked: int
    #: the whole-program view (summaries + call-graph index) -- drives
    #: --call-graph
    context: ProjectContext = field(compare=False)
    strict: bool = False

    # -- verdict --------------------------------------------------------

    @property
    def live(self) -> List[Finding]:
        """Findings that count: not suppressed."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def failed(self) -> bool:
        blocking = (
            (Severity.ERROR, Severity.WARNING)
            if self.strict
            else (Severity.ERROR,)
        )
        return any(f.severity in blocking for f in self.live)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def counts(self) -> Dict[str, int]:
        live = self.live
        return {
            "files": self.files_checked,
            "errors": sum(
                1 for f in live if f.severity is Severity.ERROR
            ),
            "warnings": sum(
                1 for f in live if f.severity is Severity.WARNING
            ),
            "suppressed": sum(1 for f in self.findings if f.suppressed),
        }

    # -- rendering ------------------------------------------------------

    def render_text(self) -> str:
        lines: List[str] = []
        for finding in sorted(
            self.findings, key=lambda f: (f.path, f.line, f.col, f.rule_id)
        ):
            if not finding.suppressed:
                lines.append(finding.render())
        counts = self.counts()
        lines.append(
            f"checked {counts['files']} file(s): "
            f"{counts['errors']} error(s), "
            f"{counts['warnings']} warning(s), "
            f"{counts['suppressed']} suppressed"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "counts": self.counts(),
                "exit_code": self.exit_code,
                "findings": [
                    f.to_dict()
                    for f in sorted(
                        self.findings,
                        key=lambda f: (f.path, f.line, f.col, f.rule_id),
                    )
                ],
            },
            indent=2,
            sort_keys=True,
        )

    def render_sarif(self) -> str:
        from repro.staticlint.registry import all_rules
        from repro.staticlint.sarif import render_sarif

        return render_sarif(self.findings, all_rules())

    def render(self, fmt: str = "text") -> str:
        if fmt == "json":
            return self.render_json()
        if fmt == "sarif":
            return self.render_sarif()
        return self.render_text()


def rule_catalogue(rules: Sequence) -> str:
    """The ``--list-rules`` table."""
    lines = []
    family = None
    for entry in rules:
        if entry.family != family:
            family = entry.family
            lines.append(f"{family} rules:")
        lines.append(
            f"  {entry.id:<22} {entry.severity}: {entry.summary}"
        )
    return "\n".join(lines)
