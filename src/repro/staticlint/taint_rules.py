"""Whole-program (interprocedural) rules.

These rules close the laundering gap the lexical families leave open:
a wall-clock read wrapped in a helper, a DRBG key threaded through two
calls into a log line.  Each runs the taint engine once over the
:class:`~repro.staticlint.engine.ProjectContext` (summaries + call
graph) instead of per module, and each finding carries the
source->sink ``trace`` that ``repro lint --explain`` prints.  The
atomicity and span-ownership hazards are whole-program rules too, but
live with their families (:mod:`repro.staticlint.atomicity`,
:mod:`repro.staticlint.obs_rules`).
"""

from __future__ import annotations

import re
from typing import Iterable, List, Optional, Set, Tuple

from repro.staticlint.dataflow import (
    TaintSpec,
    call_matcher,
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
            f"{hit.sink_desc} in {hit.function.display}()",
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
#: prefix requirement keeps ``mapping.keys()``-style helpers elsewhere
#: from masquerading as key factories
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
            f"{hit.function.display}()",
            trace=hit.trace,
        )
