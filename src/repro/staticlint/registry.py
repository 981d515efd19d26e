"""Rule registry: declarative metadata plus an AST check function.

Rules self-register at import time via :func:`rule`; the engine runs
every registered (and selected) rule over each parsed module.  Each
rule carries the severity, a one-line summary, the paper-derived
rationale (surfaced by ``repro lint --list-rules`` and the docs), and
the fix hint shown next to every finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.staticlint.findings import Finding, Severity

#: a lexical check takes one module context and yields findings; a
#: whole-program check takes the :class:`~repro.staticlint.engine.
#: ProjectContext` spanning every analyzed module
CheckFn = Callable[["ModuleContext"], Iterable[Finding]]


@dataclass(frozen=True)
class LintConfig:
    """Scoping knobs for the rule set.

    Paths are matched as substrings of the module's normalized posix
    path, so defaults like ``repro/sim/`` work from any checkout root.
    """

    #: the only modules allowed to read wall clocks (telemetry sources)
    telemetry_allowlist: Tuple[str, ...] = ("repro/fleet/clock.py",)
    #: packages whose components must take an explicit seeded RNG
    seeded_random_scope: Tuple[str, ...] = (
        "repro/sim/",
        "repro/ra/",
        "repro/malware/",
        "repro/apps/",
        "repro/swarm/",
    )
    #: event-scheduling paths where set iteration breaks trace parity
    scheduling_scope: Tuple[str, ...] = ("repro/sim/", "repro/ra/")
    #: the crypto package: DRBG only, never the random module
    crypto_scope: Tuple[str, ...] = ("repro/crypto/",)
    #: the only modules allowed to send ``att_*`` protocol messages
    #: directly -- everything else must go through the retry layer
    #: (``send_report`` / ``ExchangeDriver``)
    retry_layer_allowlist: Tuple[str, ...] = (
        "repro/ra/service.py",
        "repro/resilience/",
    )
    #: service/fleet hot paths where per-message accumulation must
    #: carry a visible capacity bound (admission control, ring trim)
    queue_scope: Tuple[str, ...] = (
        "repro/vserver/",
        "repro/fleet/",
    )
    #: subset of rule ids to run (None = all registered rules)
    select: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    #: "determinism" | "crypto" | "atomicity" | "observability"
    #: | "performance"
    family: str
    severity: Severity
    summary: str
    rationale: str
    hint: str
    check: CheckFn = field(compare=False)
    #: True for interprocedural rules run once over the whole project
    #: (their check receives a ProjectContext, not a ModuleContext)
    whole_program: bool = False

    def finding(
        self,
        ctx: "ModuleContext",
        node,
        message: str,
        hint: Optional[str] = None,
    ) -> Finding:
        """Build a finding for an AST node with this rule's metadata."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        text = ""
        if 1 <= line <= len(ctx.lines):
            text = ctx.lines[line - 1].strip()
        return Finding(
            rule_id=self.id,
            path=ctx.path,
            line=line,
            col=col,
            message=message,
            hint=self.hint if hint is None else hint,
            severity=self.severity,
            line_text=text,
        )


_REGISTRY: Dict[str, Rule] = {}


def rule(
    id: str,
    family: str,
    severity: Severity,
    summary: str,
    rationale: str,
    hint: str,
) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering ``check`` under the given metadata."""

    def decorate(check: CheckFn) -> CheckFn:
        if id in _REGISTRY:
            raise ConfigurationError(f"duplicate rule id {id!r}")
        _REGISTRY[id] = Rule(
            id=id,
            family=family,
            severity=severity,
            summary=summary,
            rationale=rationale,
            hint=hint,
            check=check,
        )
        return check

    return decorate


def project_rule(
    id: str,
    family: str,
    severity: Severity,
    summary: str,
    rationale: str,
    hint: str,
) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering a whole-program (interprocedural) rule.

    The decorated check receives the :class:`~repro.staticlint.engine.
    ProjectContext` built over every analyzed module and yields
    findings anywhere in the project.
    """

    def decorate(check: CheckFn) -> CheckFn:
        if id in _REGISTRY:
            raise ConfigurationError(f"duplicate rule id {id!r}")
        _REGISTRY[id] = Rule(
            id=id,
            family=family,
            severity=severity,
            summary=summary,
            rationale=rationale,
            hint=hint,
            check=check,
            whole_program=True,
        )
        return check

    return decorate


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by family then id."""
    _load_rule_modules()
    return sorted(_REGISTRY.values(), key=lambda r: (r.family, r.id))


def get_rule(rule_id: str) -> Rule:
    _load_rule_modules()
    found = _REGISTRY.get(rule_id)
    if found is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown rule id {rule_id!r}; known: {known}"
        )
    return found


def selected_rules(config: LintConfig) -> List[Rule]:
    """The lexical rules a per-module pass executes."""
    return [r for r in _selected(config) if not r.whole_program]


def selected_project_rules(config: LintConfig) -> List[Rule]:
    """The whole-program rules the project pass executes."""
    return [r for r in _selected(config) if r.whole_program]


def _selected(config: LintConfig) -> List[Rule]:
    rules = all_rules()
    if config.select is None:
        return rules
    chosen = {get_rule(rule_id).id for rule_id in config.select}
    return [r for r in rules if r.id in chosen]


def _load_rule_modules() -> None:
    """Import the rule modules so their decorators run (idempotent)."""
    from repro.staticlint import (  # noqa: F401
        atomicity,
        crypto_rules,
        determinism,
        obs_rules,
        perf_rules,
        taint_rules,
    )
