"""Whole-program (interprocedural) rules.

These rules close the laundering gap the lexical families leave open:
a wall-clock read wrapped in a helper, a DRBG key threaded through two
calls into a log line, a ``sim.schedule`` buried in a callee of an
``Atomic(True)`` window, a span begun in a helper and never ended by
the caller.  Each runs once over the :class:`~repro.staticlint.engine.
ProjectContext` (summaries + call graph) instead of per module, and
each finding carries the source->sink ``trace`` that ``repro lint
--explain`` prints.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Optional, Set, Tuple

from repro.staticlint.dataflow import (
    TaintSpec,
    call_matcher,
    dotted_matches,
    run_taint,
)
from repro.staticlint.determinism import WALL_CLOCK_CALLS
from repro.staticlint.engine import ProjectContext
from repro.staticlint.findings import Finding, Severity
from repro.staticlint.registry import get_rule, project_rule
from repro.staticlint.symbols import CallRecord, FunctionInfo

_TOKEN_RE = re.compile(r"[^a-z0-9]+")


def _tokens(name: str) -> Set[str]:
    return {t for t in _TOKEN_RE.split(name.lower()) if t}


def _display(func: FunctionInfo) -> str:
    return f"{func.cls}.{func.name}" if func.cls else func.name


# ---------------------------------------------------------------------------
# det-taint-flow
# ---------------------------------------------------------------------------

#: wall-clock reads (the repro.fleet.clock allowlist's own sources)
#: plus unseeded/os-entropy randomness
_NONDET_SOURCES: Tuple[str, ...] = WALL_CLOCK_CALLS + (
    "random.random",
    "random.uniform",
    "random.randint",
    "random.randrange",
    "random.getrandbits",
    "random.shuffle",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbits",
)

#: deterministic artifacts: the event queue, content digests, and the
#: canonical JSONL line serializer
_DET_SINK_TERMINALS: Tuple[str, ...] = (
    "schedule",
    "schedule_at",
    "audit_hash",
    "hmac_digest",
    "content_fingerprint",
    "to_json_line",
)

#: the sanctioned telemetry envelope: RunResult separates volatile
#: wall-clock fields from the canonical artifact in its serializers,
#: so values entering it stop being hazardous to determinism
_DET_SANITIZER_TERMINALS: Tuple[str, ...] = ("RunResult",)

_DET_SPEC = TaintSpec(
    rule_id="det-taint-flow",
    call_sources=call_matcher(
        dotted=_NONDET_SOURCES,
        describe="{name}() is a wall-clock/unseeded-random read",
    ),
    sinks=call_matcher(
        terminals=_DET_SINK_TERMINALS,
        describe="{name}() (deterministic artifact)",
    ),
    sanitizers=call_matcher(terminals=_DET_SANITIZER_TERMINALS),
)


@project_rule(
    id="det-taint-flow",
    family="determinism",
    severity=Severity.ERROR,
    summary="wall-clock/unseeded-random value flows into a "
            "deterministic artifact across function boundaries",
    rationale=(
        "The lexical det-wall-clock rule blesses reads inside the "
        "repro.fleet.clock allowlist because telemetry needs them -- "
        "but a value *returned* by those helpers is still wall-clock "
        "time.  If it reaches sim.schedule(), a content digest, or a "
        "canonical JSONL line through any chain of calls, two runs of "
        "the same seed diverge and the byte-identical-trace property "
        "every golden test pins is gone.  The taint engine follows "
        "the value through assignments, returns and calls, so "
        "laundering through a helper no longer hides the flow."
    ),
    hint=(
        "keep wall-clock values in telemetry-only fields (RunResult's "
        "volatile columns) or derive sim inputs from the seeded DRBG; "
        "run repro lint --explain det-taint-flow for the full path"
    ),
)
def check_det_taint_flow(ctx: ProjectContext) -> Iterable[Finding]:
    this = get_rule("det-taint-flow")
    for hit in run_taint(ctx.index, _DET_SPEC):
        yield ctx.finding(
            this,
            hit.function.path,
            hit.line,
            hit.col,
            f"wall-clock/unseeded-random value reaches "
            f"{hit.sink_desc} in {_display(hit.function)}()",
            trace=hit.trace,
        )


# ---------------------------------------------------------------------------
# crypto-secret-leak
# ---------------------------------------------------------------------------

#: name tokens that mark key material on function entry
_SECRET_TOKENS = {"key", "keys", "secret", "secrets"}
#: extra tokens that are secret inside the crypto package itself
_CRYPTO_ONLY_SECRET_TOKENS = {"seed", "d"}  # d: ECDSA private scalar
#: tokens that mark a name as *about* a secret, not the secret itself
_SECRET_METADATA_TOKENS = {
    "fingerprint", "fp", "id", "index", "size", "len", "length",
    "count", "name", "names", "scheme", "algorithm", "algo", "type",
    "kind", "time", "times", "public", "pub", "path", "file", "error",
    "request", "cache",
}
#: packages whose key-named parameters are treated as key material
#: (vserver deliberately excluded: its ``key=value`` config-DSL and
#: token-bucket lookup keys are strings, not crypto material -- key
#: material entering vserver still taints via the ra/ attr namespace)
_SECRET_NAME_SCOPES = ("repro/crypto/", "repro/ra/")
_CRYPTO_SCOPE = ("repro/crypto/",)

#: observable surfaces secret material must never reach
_LEAK_SINK_TERMINALS: Tuple[str, ...] = (
    "print", "repr",
    "debug", "info", "warning", "warn", "error", "exception",
    "critical",
    "record", "observe", "inc",
)

#: one-way derivations: their output is safe to expose.  The DRBG
#: integer draws and ECDSA signatures are here because they are
#: one-way functions of the seed/key by construction -- exposing a
#: jitter draw or an (r, s) pair does not expose the material
_LEAK_SANITIZER_TERMINALS: Tuple[str, ...] = (
    "len", "audit_hash", "content_fingerprint", "fingerprint",
    "key_fingerprint", "hmac_digest",
    "randrange", "randbelow", "randint_bits", "uniform",
    "ecdsa_sign", "traversal_order",
)

#: modules whose key-named call results are key material; a resolved
#: prefix requirement keeps ``mapping.keys()``/``cache.project_key()``
#: style helpers elsewhere from masquerading as key factories
_SECRET_CALL_SCOPES = ("repro.crypto.", "repro.ra.", "repro.vserver.")


def _secret_name_sources(
    func: FunctionInfo,
) -> List[Tuple[str, str]]:
    norm = func.path.replace("\\", "/")
    if not any(scope in norm for scope in _SECRET_NAME_SCOPES):
        return []
    secret_tokens = set(_SECRET_TOKENS)
    if any(scope in norm for scope in _CRYPTO_SCOPE):
        secret_tokens |= _CRYPTO_ONLY_SECRET_TOKENS
    out: List[Tuple[str, str]] = []
    for param in func.params:
        tokens = _tokens(param)
        if tokens & secret_tokens and not (
            tokens & _SECRET_METADATA_TOKENS
        ):
            out.append((
                f"param:{param}",
                f"parameter {param!r} carries key material",
            ))
    return out


def _secret_call_sources(
    func: FunctionInfo, call: CallRecord
) -> Optional[str]:
    norm = func.path.replace("\\", "/")
    receiver = call.resolved.rsplit(".", 1)[0] if "." in call.resolved else ""
    if (
        call.terminal == "generate"
        and "drbg" in receiver.lower()
        and any(scope in norm for scope in _CRYPTO_SCOPE)
    ):
        # raw keystream is secret inside the crypto package; the
        # fleet/vserver layers draw from seeded DRBGs for public
        # artifacts (jitter, simulated firmware images)
        return f"{call.resolved or call.terminal}() emits DRBG output"
    if not call.resolved.startswith(_SECRET_CALL_SCOPES):
        return None
    tokens = _tokens(call.terminal)
    if tokens & _SECRET_TOKENS and not (
        tokens & _SECRET_METADATA_TOKENS
    ):
        return (
            f"{call.resolved or call.terminal}() returns key material"
        )
    return None


def _secret_projection(attr: str) -> bool:
    """Does key taint flow through a ``.<attr>`` read?

    Only through secret-named fields: a SimProver/DeviceProfile
    holding a key must not taint ``prover.history`` or
    ``profile.region_map`` -- only ``prover.key`` and friends.
    """
    tokens = _tokens(attr)
    if tokens & _SECRET_METADATA_TOKENS:
        return False
    return bool(
        tokens & (_SECRET_TOKENS | _CRYPTO_ONLY_SECRET_TOKENS)
    )


_LEAK_SPEC = TaintSpec(
    rule_id="crypto-secret-leak",
    call_sources=_secret_call_sources,
    name_sources=_secret_name_sources,
    sinks=call_matcher(
        terminals=_LEAK_SINK_TERMINALS,
        describe="{name}() (observable surface)",
    ),
    sanitizers=call_matcher(terminals=_LEAK_SANITIZER_TERMINALS),
    fstring_sink="an f-string interpolation",
    projection=_secret_projection,
)


@project_rule(
    id="crypto-secret-leak",
    family="crypto",
    severity=Severity.ERROR,
    summary="DRBG/key material reaches a log, metric, trace, repr or "
            "f-string",
    rationale=(
        "The attestation keys and the DRBG internals are the only "
        "secrets in the system: everything else (nonces, digests, "
        "verdicts) is protocol-public.  A key that reaches print(), a "
        "logging call, a metrics/trace exporter or an f-string ends "
        "up in artifacts that leave the trust boundary (CI logs, "
        "JSONL uploads), and the paper's adversary reads every "
        "channel.  One-way derivations (audit_hash, hmac_digest, "
        "key_fingerprint, len) are the sanctioned way to name a key "
        "in diagnostics."
    ),
    hint=(
        "log a fingerprint (key_fingerprint/audit_hash) or length "
        "instead of the material itself; run repro lint --explain "
        "crypto-secret-leak for the full path"
    ),
)
def check_crypto_secret_leak(ctx: ProjectContext) -> Iterable[Finding]:
    this = get_rule("crypto-secret-leak")
    for hit in run_taint(ctx.index, _LEAK_SPEC):
        yield ctx.finding(
            this,
            hit.function.path,
            hit.line,
            hit.col,
            f"key/DRBG material reaches {hit.sink_desc} in "
            f"{_display(hit.function)}()",
            trace=hit.trace,
        )


# ---------------------------------------------------------------------------
# ra-atomic-gap-interproc
# ---------------------------------------------------------------------------

_SCHEDULER_TERMINALS = ("schedule", "schedule_at")
_YIELD_PAYLOADS = ("Atomic", "Compute")


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
        line, desc = func.bad_yields[0]
        return line, f"yields {desc!r}"
    return None


@project_rule(
    id="ra-atomic-gap-interproc",
    family="atomicity",
    severity=Severity.ERROR,
    summary="callee of a declared-atomic window transitively "
            "schedules work or cedes the CPU",
    rationale=(
        "ra-atomic-gap checks the measurement body itself, but the "
        "Section 2 hazard does not stop at the function boundary: a "
        "helper called between Atomic(True) and Atomic(False) that "
        "reaches sim.schedule(), or a delegated (yield from) "
        "generator that yields anything but Compute()/Atomic(), "
        "reintroduces exactly the interleaving the atomic claim rules "
        "out -- the verifier would accept a digest whose consistency "
        "guarantee no longer holds."
    ),
    hint=(
        "hoist the scheduling/yielding work out of the "
        "Atomic(True)...Atomic(False) window, or pass results out and "
        "schedule after Atomic(False); run repro lint --explain "
        "ra-atomic-gap-interproc for the call chain"
    ),
)
def check_atomic_gap_interproc(
    ctx: ProjectContext,
) -> Iterable[Finding]:
    this = get_rule("ra-atomic-gap-interproc")
    index = ctx.index
    for qual in sorted(index.functions):
        func = index.functions[qual]
        if func.window is None:
            continue
        start, end = func.window
        for call in func.calls:
            if not (start < call.line <= end):
                continue
            if call.terminal in _YIELD_PAYLOADS:
                continue
            if call.terminal in _SCHEDULER_TERMINALS:
                continue  # the lexical ra-atomic-gap already flags it
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
            site = _hazard_site(guilty)
            if site is None:  # pragma: no cover -- predicate said yes
                continue
            hazard_line, hazard_desc = site
            trace = [
                f"{func.path}:{call.line}: {_display(func)}(): calls "
                f"{_display(callee)}() inside its "
                f"Atomic(True)...Atomic(False) window "
                f"(lines {start}..{end})"
            ]
            for step_qual in chain[1:]:
                step = index.functions[step_qual]
                trace.append(
                    f"{step.path}:{step.line}: reaches "
                    f"{_display(step)}()"
                )
            trace.append(
                f"{guilty.path}:{hazard_line}: {_display(guilty)}() "
                f"{hazard_desc} -- interleaving re-enters the window"
            )
            yield ctx.finding(
                this,
                func.path,
                call.line,
                call.col,
                f"{_display(callee)}() called inside the atomic "
                f"section of {_display(func)}() reaches "
                f"{_display(guilty)}(), which {hazard_desc}",
                trace=trace,
            )


# ---------------------------------------------------------------------------
# obs-span-leak-interproc
# ---------------------------------------------------------------------------

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
    id="obs-span-leak-interproc",
    family="observability",
    severity=Severity.WARNING,
    summary="caller obtains an open span from a helper and never "
            "ends it",
    rationale=(
        "A helper may legitimately return its begin_span() handle -- "
        "that transfers ownership of the open span to the caller "
        "(the lexical obs-span-leak rule exempts exactly that shape). "
        "But ownership is an obligation: a caller that invokes such "
        "an opener and neither ends a span, stores the handle, nor "
        "re-returns it leaks an open span across the call boundary, "
        "and every later span in the run erroneously nests under it."
    ),
    hint=(
        "call end_span() after the opener returns, re-return the "
        "handle to pass ownership further up, or use add_span() for "
        "retrospective intervals"
    ),
)
def check_span_leak_interproc(
    ctx: ProjectContext,
) -> Iterable[Finding]:
    this = get_rule("obs-span-leak-interproc")
    index = ctx.index
    openers = _compute_openers(index)
    enders = _compute_enders(index)
    for qual in sorted(index.functions):
        func = index.functions[qual]
        if qual in enders:
            continue  # this body (transitively) pops a span: balanced
        for call in func.calls:
            if call.terminal == _BEGIN:
                continue  # direct begins belong to the lexical rule
            callee = index.resolve_call(func, call)
            if callee is None or callee.qual not in openers:
                continue
            reach = func.reachable_from([call.node])
            if "ret" in reach:
                continue  # ownership re-transferred to our caller
            if any(node.startswith("attr:") for node in reach):
                continue  # handle stored for a later callback
            site = _begin_site(index, callee.qual)
            trace = [
                f"{func.path}:{call.line}: {_display(func)}(): calls "
                f"{_display(callee)}(), which returns an open span",
            ]
            if site is not None:
                trace.insert(0, (
                    f"{site[0]}:{site[1]}: the span is begun here "
                    f"and ownership is returned to the caller"
                ))
            trace.append(
                f"{func.path}:{func.line}: {_display(func)}() never "
                f"calls end_span() (directly or transitively), "
                f"stores, or re-returns the handle"
            )
            yield ctx.finding(
                this,
                func.path,
                call.line,
                call.col,
                f"{_display(func)}() receives an open span from "
                f"{_display(callee)}() and never ends it",
                trace=trace,
            )
