"""Observability rules.

The span tracker (:mod:`repro.obs.spans`) keeps a nesting stack:
``begin_span`` pushes, ``end_span`` pops.  A function body that begins
more spans than it ends leaks open spans -- every later span in the
same simulation nests under the leaked parent, and the Chrome trace
exporter has to clamp the leak to the end of the run with a
``truncated`` marker.  The converse (more ends than begins) closes a
span some *other* call site still considers open.  Spans whose
endpoints legitimately live in different callbacks (a network delivery,
a deferred lock release) must use the retrospective
``add_span(name, t_start, t_end)`` form instead, which never touches
the stack -- so inside any single function body the begin/end calls
are expected to balance.  A helper that *returns* its ``begin_span``
handle hands the open span to its caller, where the balance is then
checked.  ``obs-span-leak`` reads both from the symbol index and its
per-function dataflow, so it covers one body and every span-opening
helper it calls.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Set, Tuple

from repro.staticlint.engine import ModuleContext, ProjectContext, walk_scope
from repro.staticlint.findings import Finding, Severity
from repro.staticlint.registry import get_rule, project_rule, rule
from repro.staticlint.symbols import CallRecord, FunctionInfo

_BEGIN = "begin_span"
_END = "end_span"


def _direct_opener_call(func: FunctionInfo) -> Optional[CallRecord]:
    for call in func.calls:
        if call.terminal == _BEGIN:
            return call
    return None


def _compute_openers(index) -> Set[str]:
    """Functions whose return value is a begin_span handle -- i.e.
    they transfer span ownership to their caller."""
    openers: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for qual in sorted(index.functions):
            if qual in openers:
                continue
            func = index.functions[qual]
            for call in func.calls:
                is_open = call.terminal == _BEGIN
                if not is_open:
                    callee = index.resolve_call(func, call)
                    is_open = (
                        callee is not None and callee.qual in openers
                    )
                if not is_open:
                    continue
                if "ret" in func.reachable_from([call.node]):
                    openers.add(qual)
                    changed = True
                    break
    return openers


def _compute_enders(index) -> Set[str]:
    """Functions that (transitively, via plain calls) pop a span."""
    enders: Set[str] = set()
    for qual in sorted(index.functions):
        func = index.functions[qual]
        if any(call.terminal == _END for call in func.calls):
            enders.add(qual)
    changed = True
    while changed:
        changed = False
        for qual in sorted(index.functions):
            if qual in enders:
                continue
            func = index.functions[qual]
            for call in func.calls:
                callee = index.resolve_call(func, call)
                if callee is not None and callee.qual in enders:
                    enders.add(qual)
                    changed = True
                    break
    return enders


def _begin_site(index, opener_qual: str) -> Optional[Tuple[str, int]]:
    """(path, line) of the underlying begin_span call of an opener."""
    seen: Set[str] = set()
    qual = opener_qual
    while qual not in seen:
        seen.add(qual)
        func = index.functions[qual]
        direct = _direct_opener_call(func)
        if direct is not None:
            return func.path, direct.line
        for call in func.calls:
            callee = index.resolve_call(func, call)
            if callee is not None and callee.qual not in seen:
                qual = callee.qual
                break
        else:
            return None
    return None


@project_rule(
    id="obs-span-leak",
    family="observability",
    severity=Severity.WARNING,
    summary="a function body opens more spans than it ends (directly "
            "or via a span-opening helper), or ends more than it opens",
    rationale=(
        "begin_span() pushes onto the tracker's nesting stack and "
        "end_span() pops; a body that begins more spans than it ends "
        "leaks an open span that every later span erroneously nests "
        "under (the exporter clamps it with a 'truncated' marker), "
        "while surplus end_span() calls close a span another call "
        "site still holds.  A helper may return its begin_span() "
        "handle -- that transfers ownership of the open span to the "
        "caller, which must then end it, store it, or re-return it.  "
        "Cross-callback intervals belong to the retrospective "
        "add_span() form, which never touches the stack."
    ),
    hint=(
        "end every span opened in the same function body (or return "
        "the handle to pass ownership up), or switch to "
        "add_span(name, t_start, t_end) for intervals whose endpoints "
        "live in different callbacks"
    ),
)
def check_span_leak(ctx: ProjectContext) -> Iterable[Finding]:
    this = get_rule("obs-span-leak")
    index = ctx.index
    openers = _compute_openers(index)
    enders = _compute_enders(index)
    for qual in sorted(index.functions):
        func = index.functions[qual]
        # (call, opener callee or None for a direct begin_span, reach)
        opened = []
        ends = []
        for call in func.calls:
            if call.terminal == _END:
                ends.append(call)
                continue
            callee = None
            if call.terminal != _BEGIN:
                callee = index.resolve_call(func, call)
                if callee is None or callee.qual not in openers:
                    continue
            reach = func.reachable_from([call.node])
            if "ret" in reach:
                continue  # ownership moves to our caller
            opened.append((call, callee, reach))
        # anchor on the opens past the last matched end
        for call, callee, reach in opened[len(ends):]:
            if callee is None:
                yield ctx.finding(
                    this, func.path, call.line, call.col,
                    f"{func.name}() begins {len(opened)} span(s) but "
                    f"ends only {len(ends)} -- this span leaks open",
                )
                continue
            if qual in enders:
                continue  # a callee pops the span for us
            if any(node.startswith("attr:") for node in reach):
                continue  # handle stored for a later callback
            site = _begin_site(index, callee.qual)
            trace = [
                f"{func.path}:{call.line}: {func.display}(): calls "
                f"{callee.display}(), which returns an open span",
            ]
            if site is not None:
                trace.insert(0, (
                    f"{site[0]}:{site[1]}: the span is begun here "
                    f"and ownership is returned to the caller"
                ))
            trace.append(
                f"{func.path}:{func.line}: {func.display}() never "
                f"calls end_span() (directly or transitively), "
                f"stores, or re-returns the handle"
            )
            yield ctx.finding(
                this, func.path, call.line, call.col,
                f"{func.display}() receives an open span from "
                f"{callee.display}() and never ends it",
                trace=trace,
            )
        for call in ends[len(opened):]:
            yield ctx.finding(
                this, func.path, call.line, call.col,
                f"{func.name}() ends {len(ends)} span(s) but "
                f"begins only {len(opened)} -- this pop closes a "
                f"span owned elsewhere",
            )


# ---------------------------------------------------------------------------
# obs-ctx-drop: replies that lose the incoming TraceContext
# ---------------------------------------------------------------------------

#: parameter names that mark a function as a message handler
_MESSAGE_PARAMS = ("message", "msg")

#: positional-arg counts at which ``ctx`` would already be covered
#: (Endpoint.send(dst, kind, payload, ctx) / send_report(endpoint,
#: dst, report, kind, ctx))
_CTX_POSITION = {"send": 4, "send_report": 5}


def _handler_params(func: ast.AST) -> bool:
    args = getattr(func, "args", None)
    if args is None:
        return False
    names = [a.arg for a in args.args]
    names.extend(a.arg for a in args.kwonlyargs)
    names.extend(a.arg for a in args.posonlyargs)
    return any(name in _MESSAGE_PARAMS for name in names)


@rule(
    id="obs-ctx-drop",
    family="observability",
    severity=Severity.WARNING,
    summary="message handler sends a reply without forwarding ctx",
    rationale=(
        "a TraceContext rides out-of-band on every Message so one "
        "attestation exchange folds into one causal timeline; a "
        "handler that receives a message and replies (or forwards) "
        "without passing ctx= severs the trace at that hop -- the "
        "verifier-side spans land in a different (or no) trace and "
        "the exchange can no longer be followed end-to-end in the "
        "Perfetto export or resolved from a histogram exemplar"
    ),
    hint=(
        "thread the incoming context through the send: "
        "endpoint.send(dst, kind, payload, ctx=message.ctx) or "
        "send_report(..., ctx=message.ctx); initiating sends that "
        "genuinely start a fresh exchange should mint a new "
        "TraceContext instead (add '# repro: allow[obs-ctx-drop]' "
        "when the send is deliberately untraced)"
    ),
)
def check_ctx_drop(ctx: ModuleContext) -> Iterable:
    this = get_rule("obs-ctx-drop")
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _handler_params(func):
            continue
        for node in walk_scope(func):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            else:
                continue
            if name not in _CTX_POSITION:
                continue
            if any(kw.arg == "ctx" for kw in node.keywords):
                continue
            if len(node.args) >= _CTX_POSITION[name]:
                continue
            yield this.finding(
                ctx, node,
                f"{func.name}() handles a message but calls {name}() "
                "without ctx= -- the incoming TraceContext is dropped "
                "and the exchange's causal timeline breaks here",
            )
