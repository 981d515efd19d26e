"""Finding and severity types shared by every lint rule.

A :class:`Finding` is one rule violation at one source location.  Its
:meth:`~Finding.fingerprint` is its stable identity (SARIF
``partialFingerprints``, ``--explain``): it hashes the rule id, the
file path, and the *text* of the offending line (plus an occurrence
index for duplicates on identical lines), so it survives unrelated
edits that only shift line numbers.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


class Severity(enum.Enum):
    """Per-rule severity: errors fail the build, warnings inform."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    severity: Severity = Severity.ERROR
    #: stripped text of the offending source line (fingerprint identity)
    line_text: str = ""
    #: occurrence index among findings of the same (rule, path, text)
    occurrence: int = 0
    #: True when an inline ``# repro: allow[...]`` covers this finding
    suppressed: bool = field(default=False, compare=False)
    #: interprocedural source->sink path (whole-program rules only);
    #: excluded from the fingerprint so it stays stable
    trace: Tuple[str, ...] = field(default=(), compare=False)

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def fingerprint(self) -> str:
        material = "\x1f".join(
            (self.rule_id, self.path, self.line_text, str(self.occurrence))
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint(),
            "suppressed": self.suppressed,
            "line_text": self.line_text,
            "occurrence": self.occurrence,
            "trace": list(self.trace),
        }

    def render(self) -> str:
        text = (
            f"{self.location}: [{self.rule_id}] "
            f"{self.severity}: {self.message}"
        )
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text
