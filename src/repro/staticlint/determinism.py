"""Determinism rules.

The DES engine's contract (``repro.sim.engine``) is that two runs with
the same inputs produce identical traces, and the fleet layer's
resume/parity guarantees require canonical JSONL free of volatile
fields.  These rules machine-check the coding conventions that contract
rests on: no ambient wall clocks, no ambient randomness, no
hash-order-dependent iteration in scheduling paths, no mutable default
arguments.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.staticlint.engine import ModuleContext, walk_scope
from repro.staticlint.findings import Finding, Severity
from repro.staticlint.registry import get_rule, rule

#: dotted suffixes that read a wall/CPU clock
WALL_CLOCK_CALLS = (
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.thread_time",
    "time.localtime",
    "time.gmtime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: module-level ``random`` functions that mutate the hidden global RNG
_RANDOM_CONSTRUCTORS = ("Random", "SystemRandom")


def _dotted_matches(name: str, suffixes) -> str:
    """The matching suffix when ``name`` ends with one of them."""
    for suffix in suffixes:
        if name == suffix or name.endswith("." + suffix):
            return suffix
    return ""


@rule(
    id="det-wall-clock",
    family="determinism",
    severity=Severity.ERROR,
    summary="wall-clock read outside the telemetry allowlist",
    rationale=(
        "Simulation components must consume repro.sim.engine.Simulator's "
        "clock; an ambient time.time()/datetime.now() read makes traces "
        "and canonical JSONL differ across runs and machines, breaking "
        "the fleet layer's serial/parallel parity and resume guarantees."
    ),
    hint=(
        "use sim.now inside the simulation, or route telemetry through "
        "repro.fleet.clock (the allowlisted wall-clock module)"
    ),
)
def check_wall_clock(ctx: ModuleContext) -> Iterable[Finding]:
    if ctx.is_telemetry_module():
        return
    this = get_rule("det-wall-clock")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        matched = _dotted_matches(resolved, WALL_CLOCK_CALLS)
        if matched:
            yield this.finding(
                ctx, node, f"call to {matched}() reads the wall clock"
            )


@rule(
    id="det-wall-clock-assert",
    family="determinism",
    severity=Severity.ERROR,
    summary="assertion or comparison on a wall/CPU clock reading",
    rationale=(
        "A correctness test that asserts on elapsed host time passes or "
        "fails with the host's load, not with the code: it flakes on a "
        "busy 1-2 core box and lets a fast host hide a regression.  "
        "Tier-1 must give the same answer on every run; wall time "
        "belongs to repro bench and perfbench."
    ),
    hint=(
        "assert on a deterministic proxy instead (a call or event "
        "count, sim.now), and time the path in repro bench or perfbench"
    ),
)
def check_wall_clock_assert(ctx: ModuleContext) -> Iterable[Finding]:
    if ctx.is_telemetry_module():
        return
    this = get_rule("det-wall-clock-assert")
    scopes = [ctx.tree] + [
        node for node in ast.walk(ctx.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda))
    ]
    for scope in scopes:
        yield from _clock_assertions(ctx, this, list(walk_scope(scope)))


def _clock_assertions(ctx: ModuleContext, this, nodes) -> Iterable[Finding]:
    """Asserts, ``assert*`` calls and comparisons in one scope's
    ``nodes`` that read a clock, directly or through a local assigned
    (transitively) from a clock read."""
    clocked: Set[str] = set()

    def clock_read(expr: ast.AST) -> str:
        """The clock ``expr`` reads (a suffix or a local's name)."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                matched = _dotted_matches(
                    ctx.resolve(node.func), WALL_CLOCK_CALLS
                )
                if matched:
                    return f"{matched}()"
            elif isinstance(node, ast.Name) and node.id in clocked:
                return node.id
        return ""

    bindings = []
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                             ast.NamedExpr)) and node.value is not None:
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            names = [
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
            bindings.append((names, node.value))
    grown = True
    while grown:  # to a fixpoint: ``dt = t1 - t0`` reads a clock too
        grown = False
        for names, value in bindings:
            if not set(names) <= clocked and clock_read(value):
                clocked.update(names)
                grown = True

    asserted: Set[int] = set()
    for node in nodes:
        if isinstance(node, ast.Assert):
            checked = [node.test]
        elif isinstance(node, ast.Call) and (
            ctx.resolve(node.func).rpartition(".")[2].startswith("assert")
        ):
            checked = list(node.args) + [kw.value for kw in node.keywords]
        else:
            continue
        asserted.update(id(inner) for expr in checked
                        for inner in ast.walk(expr))
        for expr in checked:
            read = clock_read(expr)
            if read:
                yield this.finding(
                    ctx, node, f"assertion reads the wall clock ({read})"
                )
                break
    for node in nodes:
        if isinstance(node, ast.Compare) and id(node) not in asserted:
            read = clock_read(node)
            if read:
                yield this.finding(
                    ctx, node, f"comparison reads the wall clock ({read})"
                )


@rule(
    id="det-module-random",
    family="determinism",
    severity=Severity.ERROR,
    summary="module-level random.* call (hidden global RNG)",
    rationale=(
        "Components in sim/, ra/, malware/, apps/ and swarm/ must take "
        "an explicit random.Random or HMAC-DRBG so experiments replay "
        "from a seed; random.random()/random.choice() consume the "
        "process-global generator, whose state depends on import order "
        "and whatever ran before."
    ),
    hint=(
        "accept an explicit random.Random(seed) (or "
        "repro.crypto.drbg.HmacDrbg) parameter and call methods on it"
    ),
)
def check_module_random(ctx: ModuleContext) -> Iterable[Finding]:
    if not ctx.in_scope(ctx.config.seeded_random_scope):
        return
    this = get_rule("det-module-random")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if not resolved.startswith("random."):
            continue
        tail = resolved.split(".", 1)[1]
        if tail in _RANDOM_CONSTRUCTORS:
            continue  # constructors are det-unseeded-random's business
        yield this.finding(
            ctx, node,
            f"module-level {resolved}() uses the hidden global RNG",
        )


@rule(
    id="det-unseeded-random",
    family="determinism",
    severity=Severity.ERROR,
    summary="unseeded random.Random() / any random.SystemRandom()",
    rationale=(
        "random.Random() with no seed initializes from OS entropy, and "
        "SystemRandom always does -- either one makes a simulation "
        "component unreplayable, defeating the engine's identical-trace "
        "guarantee."
    ),
    hint=(
        "pass an explicit seed: random.Random(seed); derive per-object "
        "seeds from stable inputs (names, block indices)"
    ),
)
def check_unseeded_random(ctx: ModuleContext) -> Iterable[Finding]:
    if not ctx.in_scope(ctx.config.seeded_random_scope):
        return
    this = get_rule("det-unseeded-random")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved == "random.SystemRandom":
            yield this.finding(
                ctx, node,
                "random.SystemRandom draws OS entropy on every call",
            )
        elif resolved == "random.Random" and not (
            node.args or node.keywords
        ):
            yield this.finding(
                ctx, node,
                "random.Random() without a seed draws OS entropy",
            )


@rule(
    id="det-set-iteration",
    family="determinism",
    severity=Severity.WARNING,
    summary="iteration over a bare set in an event-scheduling path",
    rationale=(
        "Set iteration order follows hash seeding and insertion "
        "history; iterating a bare set while scheduling events makes "
        "the event sequence -- and therefore the trace -- depend on "
        "interpreter state rather than on the inputs."
    ),
    hint="iterate sorted(the_set) (or a list/tuple) for a stable order",
)
def check_set_iteration(ctx: ModuleContext) -> Iterable[Finding]:
    if not ctx.in_scope(ctx.config.scheduling_scope):
        return
    this = get_rule("det-set-iteration")
    for node in ast.walk(ctx.tree):
        iterables: List[ast.expr] = []
        if isinstance(node, ast.For):
            iterables = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iterables = [gen.iter for gen in node.generators]
        for it in iterables:
            if isinstance(it, ast.Set) or (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset")
            ):
                yield this.finding(
                    ctx, it,
                    "iterating a bare set has no stable order",
                )


@rule(
    id="det-mutable-default",
    family="determinism",
    severity=Severity.ERROR,
    summary="mutable default argument",
    rationale=(
        "A mutable default is shared across every call, so one run's "
        "state leaks into the next -- cross-run contamination that "
        "shows up as trace divergence between a fresh process and a "
        "warm one (exactly what fleet shard workers are)."
    ),
    hint="default to None and create the list/dict/set inside the body",
)
def check_mutable_default(ctx: ModuleContext) -> Iterable[Finding]:
    this = get_rule("det-mutable-default")
    mutable_calls: Set[str] = {"list", "dict", "set", "bytearray"}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set,
                 ast.ListComp, ast.DictComp, ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in mutable_calls
            )
            if bad:
                yield this.finding(
                    ctx, default,
                    f"mutable default argument in {node.name}() is "
                    "shared across calls",
                )
