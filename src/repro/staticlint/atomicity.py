"""Attestation-atomicity rules.

Section 2 of the paper is about exactly one hazard: a measurement that
claims atomicity (SMART's "disable interrupts first") while the code
between taking and releasing the memory locks can still cede the CPU
or enqueue interleaved work.  In the simulation, a measurement body
declares atomicity by yielding ``Atomic(True)`` and ends the section
with ``Atomic(False)``; inside that window the only legitimate yields
are ``Compute(...)`` (simulated instruction time, uninterruptible
while atomic) and the closing ``Atomic(False)`` itself.

``ra-atomic-gap`` reads the window, the calls and the preemptible
yields from the symbol index (:mod:`repro.staticlint.symbols` is the
only parser of windows), so one rule covers the window body and every
callee it reaches.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Tuple

from repro.staticlint.engine import ModuleContext, ProjectContext
from repro.staticlint.findings import Finding, Severity
from repro.staticlint.registry import get_rule, project_rule, rule
from repro.staticlint.symbols import CallRecord, FunctionInfo

#: scheduler entry points that enqueue interleaved events
_SCHEDULER_TERMINALS = ("schedule", "schedule_at")
#: yield payloads that keep the atomic claim honest
_YIELD_PAYLOADS = ("Atomic", "Compute")
#: message kinds that belong to the attestation protocol proper
_ATT_KIND_PREFIX = "att_"


def _schedules(func: FunctionInfo) -> Optional[CallRecord]:
    for call in func.calls:
        if call.terminal in _SCHEDULER_TERMINALS:
            return call
    return None


def _hazard_site(func: FunctionInfo) -> Optional[Tuple[int, str]]:
    """(line, description) of this function's own hazard, if any."""
    call = _schedules(func)
    if call is not None:
        return call.line, f"calls {call.terminal}()"
    if func.bad_yields:
        line, _col, desc = func.bad_yields[0]
        return line, f"yields {desc!r}"
    return None


@project_rule(
    id="ra-atomic-gap",
    family="atomicity",
    severity=Severity.ERROR,
    summary="scheduler call or preemptible yield inside a declared-"
            "atomic measurement section, directly or through a callee",
    rationale=(
        "A measurement that yields Atomic(True) is claiming SMART-style "
        "uninterruptibility between locking and unlocking the attested "
        "region.  Calling sim.schedule()/schedule_at() or yielding "
        "anything but Compute()/Atomic() inside that window reintroduces "
        "the interleaving the claim rules out -- the verifier would "
        "accept a digest whose consistency guarantee silently no longer "
        "holds (the Section 2 hazard).  The hazard does not stop at the "
        "function boundary: a helper called inside the window that "
        "reaches sim.schedule(), or a delegated (yield from) generator "
        "that yields anything but Compute()/Atomic(), counts too."
    ),
    hint=(
        "move the schedule()/yield -- or the call that reaches one -- "
        "outside the Atomic(True)...Atomic(False) window, or drop the "
        "atomic declaration and use a locking policy that tolerates "
        "interruption; run repro lint --explain ra-atomic-gap for the "
        "call chain"
    ),
)
def check_atomic_gap(ctx: ProjectContext) -> Iterable[Finding]:
    this = get_rule("ra-atomic-gap")
    index = ctx.index
    for qual in sorted(index.functions):
        func = index.functions[qual]
        if func.window is None:
            continue
        start, end = func.window
        for line, col, _desc in func.bad_yields:
            if start < line <= end:
                yield ctx.finding(
                    this, func.path, line, col,
                    f"yield inside the atomic section of "
                    f"{func.name}() cedes the CPU",
                )
        for call in func.calls:
            if not (start < call.line <= end):
                continue
            if call.terminal in _YIELD_PAYLOADS:
                continue
            if call.terminal in _SCHEDULER_TERMINALS:
                yield ctx.finding(
                    this, func.path, call.line, call.col,
                    f"{call.terminal}() enqueues interleaved work "
                    f"inside the atomic section of {func.name}()",
                )
                continue
            callee = index.resolve_call(func, call)
            if callee is None:
                continue
            if call.yield_from:
                # a delegated generator runs inside the window: its
                # own yields and anything its callees schedule count
                chain = index.transitively_calls(
                    callee,
                    lambda f: _hazard_site(f) is not None,
                    plain_only=False,
                )
            else:
                # a plain call runs the callee body (and its callees)
                # but never executes yields in generators it merely
                # instantiates -- only transitive scheduling counts
                chain = index.transitively_calls(
                    callee,
                    lambda f: _schedules(f) is not None,
                    plain_only=True,
                )
            if chain is None:
                continue
            guilty = index.functions[chain[-1]]
            hazard_line, hazard_desc = _hazard_site(guilty)
            trace = [
                f"{func.path}:{call.line}: {func.display}(): calls "
                f"{callee.display}() inside its "
                f"Atomic(True)...Atomic(False) window "
                f"(lines {start}..{end})"
            ]
            for step_qual in chain[1:]:
                step = index.functions[step_qual]
                trace.append(
                    f"{step.path}:{step.line}: reaches {step.display}()"
                )
            trace.append(
                f"{guilty.path}:{hazard_line}: {guilty.display}() "
                f"{hazard_desc} -- interleaving re-enters the window"
            )
            yield ctx.finding(
                this,
                func.path,
                call.line,
                call.col,
                f"{callee.display}() called inside the atomic "
                f"section of {func.display}() reaches "
                f"{guilty.display}(), which {hazard_desc}",
                trace=trace,
            )


@rule(
    id="ra-naked-send",
    family="atomicity",
    severity=Severity.ERROR,
    summary="att_* protocol message sent outside the retry layer",
    rationale=(
        "Attestation exchanges must survive the Section 3.3 "
        "communication adversary: a challenge or report sent with a "
        "bare endpoint.send() bypasses the retransmission/timeout "
        "machinery and the prover's nonce-dedup cache, so one lost "
        "datagram silently kills the exchange and a retransmitted one "
        "double-measures.  All att_* traffic goes through "
        "repro.ra.service (send_report / ExchangeDriver)."
    ),
    hint=(
        "route the message through repro.ra.service.send_report() or "
        "an ExchangeDriver configuration instead of a raw .send()"
    ),
)
def check_naked_send(ctx: ModuleContext) -> Iterable[Finding]:
    if ctx.in_scope(ctx.config.retry_layer_allowlist):
        return
    this = get_rule("ra-naked-send")
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "send"
        ):
            continue
        # kind is positional arg 2 on Endpoint.send(dst, kind, payload)
        # and arg 3 on Channel.send(src, dst, kind, payload); scan all
        # positional string constants so both spellings are caught
        for arg in node.args:
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.startswith(_ATT_KIND_PREFIX)
            ):
                yield this.finding(
                    ctx, node,
                    f"raw .send() of {arg.value!r} bypasses the "
                    "retry/dedup layer",
                )
                break
