"""Performance rules.

The ``perf-unbounded-queue`` rule guards the wall-clock (and memory)
hazard the verifier service introduced: per-message accumulation on a
hot path.  Inside :data:`LintConfig.queue_scope`
(the service and fleet packages, where one code path runs once per
report across thousand-prover storms) a ``deque()`` without ``maxlen``
or a ``self.x.append()`` with no visible bound in the same function
grows without limit under load.  Deliberate accumulators -- the
verdict ledger itself, per-report latency samples -- carry a
``# repro: allow[perf-unbounded-queue]`` suppression at the growth
site.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.staticlint.engine import ModuleContext, walk_scope
from repro.staticlint.findings import Severity
from repro.staticlint.registry import get_rule, rule


def _called_name(call: ast.Call) -> str:
    """The terminal name of a call target (``f`` or ``obj.f``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


#: attribute mutators that grow a collection
_GROW_NAMES = {"append", "extend", "appendleft", "extendleft"}
#: attribute mutators that shrink/drain one -- evidence of a bound
_DRAIN_NAMES = {"pop", "popleft", "popitem", "clear"}


def _self_attr(node: ast.AST) -> str:
    """``"x"`` for a ``self.x`` expression, else ``""``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


def _bounded_attrs(func: ast.AST) -> Set[str]:
    """Attributes with bound evidence in this function scope: a
    ``len(self.x)`` capacity check, a drain call, or a slice-trim
    assignment (``self.x[:] = ...`` / ``del self.x[...]``)."""
    bounded: Set[str] = set()
    for node in walk_scope(func):
        if isinstance(node, ast.Call):
            name = _called_name(node)
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "len"
                and node.args
            ):
                attr = _self_attr(node.args[0])
                if attr:
                    bounded.add(attr)
            elif name in _DRAIN_NAMES and isinstance(
                node.func, ast.Attribute
            ):
                attr = _self_attr(node.func.value)
                if attr:
                    bounded.add(attr)
        elif isinstance(node, (ast.Delete, ast.Assign)):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr = _self_attr(target.value)
                    if attr:
                        bounded.add(attr)
    return bounded


def _deque_without_maxlen(ctx: ModuleContext, call: ast.Call) -> bool:
    if ctx.resolve(call.func) not in ("collections.deque", "deque"):
        return False
    for keyword in call.keywords:
        if keyword.arg == "maxlen" and not (
            isinstance(keyword.value, ast.Constant)
            and keyword.value.value is None
        ):
            return False
    # positional form deque(iterable, maxlen)
    return len(call.args) < 2


@rule(
    id="perf-unbounded-queue",
    family="performance",
    severity=Severity.WARNING,
    summary="hot-path accumulation without a capacity bound",
    rationale=(
        "The verifier service and the fleet layer run once per report "
        "or per run: a thousand-prover thundering herd pushes "
        "thousands of messages through a single code path in one sim "
        "second.  A deque() without maxlen, or an append onto a "
        "self-attribute with no visible bound, grows without limit "
        "under exactly the load the service exists to absorb -- the "
        "queueing analogue of the unbounded-buffer bugs the paper's "
        "admission-control discussion warns about.  Bounds belong "
        "where the growth happens: admission checks, maxlen "
        "backstops, ring trims."
    ),
    hint=(
        "bound the structure (deque(maxlen=...), a len() admission "
        "check, or a drain/trim in the same function), or suppress a "
        "deliberate accumulator with "
        "`# repro: allow[perf-unbounded-queue]` and the justification "
        "inline (run artifacts like the verdict ledger qualify; "
        "per-message scratch does not)"
    ),
)
def check_unbounded_queue(ctx: ModuleContext) -> Iterable:
    if not ctx.in_scope(ctx.config.queue_scope):
        return
    this = get_rule("perf-unbounded-queue")
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and _deque_without_maxlen(ctx, node):
            yield this.finding(
                ctx, node,
                "deque() constructed without a maxlen capacity bound",
            )
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bounded = _bounded_attrs(func)
        for node in walk_scope(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and _called_name(node) in _GROW_NAMES
            ):
                continue
            attr = _self_attr(node.func.value)
            if attr and attr not in bounded:
                yield this.finding(
                    ctx, node,
                    f"{func.name}() grows self.{attr} per call with no "
                    f"visible capacity bound in scope",
                )
