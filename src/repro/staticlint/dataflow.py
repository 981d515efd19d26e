"""Worklist-based interprocedural taint/dataflow engine.

A :class:`TaintSpec` declares a rule family's *sources* (calls whose
results carry the hazardous value, or names that are hazardous on
entry), *sinks* (calls/f-strings the value must not reach), and
*sanitizers* (calls that launder the value -- their result is clean
and nothing propagates through them).

The engine runs a classic context-insensitive worklist to fixpoint
over the project call graph:

* inside a function, taint follows the value-flow edges of the
  :class:`~repro.staticlint.symbols.FunctionInfo` summary;
* a call to a *project* function maps tainted arguments onto the
  callee's parameters (positionally) and maps the callee's tainted
  return value back onto the call result;
* a call to an *unknown* (external) function conservatively taints its
  result when any argument is tainted ("taint-through");
* attribute slots (``attr:name`` nodes) are a single project-global
  namespace, so ``self._key = material`` in one method taints
  ``self._key`` reads everywhere -- coarse, but errs toward reporting.

Every tainted node carries a *trace*: the chain of source / call /
return steps that first reached it.  Traces are what ``repro lint
--explain`` prints, and they are kept minimal (first discovery wins;
intra-function hops add no step) so the path stays readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.staticlint.callgraph import ProjectIndex
from repro.staticlint.symbols import CallRecord, FunctionInfo

#: (function, call) -> description of why it matches, or None
CallMatcher = Callable[[FunctionInfo, CallRecord], Optional[str]]
#: function -> [(node, description), ...] of entry taint
NameSourceFn = Callable[[FunctionInfo], List[Tuple[str, str]]]


def _no_call_match(
    func: FunctionInfo, call: CallRecord
) -> Optional[str]:
    return None


def _no_name_sources(func: FunctionInfo) -> List[Tuple[str, str]]:
    return []


def _project_all(attr: str) -> bool:
    return True


def _proj_parts(node: str) -> Tuple[List[str], str]:
    """Split a ``proj:`` chain into its attr names and terminal base."""
    attrs: List[str] = []
    while node.startswith("proj:"):
        attr, node = node[len("proj:"):].split(":", 1)
        attrs.append(attr)
    return attrs, node


def dotted_matches(name: str, suffixes: Sequence[str]) -> bool:
    """True when ``name`` equals or dotted-suffix-matches a suffix."""
    return any(
        name == suffix or name.endswith("." + suffix)
        for suffix in suffixes
    )


def call_matcher(
    dotted: Sequence[str] = (),
    terminals: Sequence[str] = (),
    describe: str = "{name}()",
) -> CallMatcher:
    """Build a :data:`CallMatcher` from dotted/terminal name lists."""

    def match(func: FunctionInfo, call: CallRecord) -> Optional[str]:
        name = call.resolved or call.terminal
        if (dotted and dotted_matches(call.resolved, dotted)) or (
            terminals and call.terminal in terminals
        ):
            return describe.format(name=name)
        return None

    return match


@dataclass
class TaintSpec:
    """Sources, sinks and sanitizers for one interprocedural rule."""

    rule_id: str
    call_sources: CallMatcher = _no_call_match
    name_sources: NameSourceFn = field(default=_no_name_sources)
    sinks: CallMatcher = _no_call_match
    sanitizers: CallMatcher = _no_call_match
    #: when set, tainted f-string interpolations are sinks too,
    #: reported with this description
    fstring_sink: Optional[str] = None
    #: does taint flow through a ``.<attr>`` read off a tainted base?
    #: The default says yes (conservative); the crypto rule narrows it
    #: to secret-named fields so ``prover.history`` stays clean while
    #: ``prover.key`` does not
    projection: Callable[[str], bool] = _project_all


@dataclass(frozen=True)
class TaintHit:
    """One tainted value reaching one sink."""

    function: FunctionInfo
    line: int
    col: int
    sink_desc: str
    trace: Tuple[str, ...]


class TaintEngine:
    """Runs one :class:`TaintSpec` over a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex, spec: TaintSpec) -> None:
        self.index = index
        self.spec = spec
        #: qual -> node -> first-discovered trace
        self.taint: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        #: attribute name -> trace (project-global namespace)
        self.attr_taint: Dict[str, Tuple[str, ...]] = {}
        #: attribute name -> quals mentioning it (for re-enqueueing)
        self._attr_users: Dict[str, Set[str]] = {}
        #: qual -> nodes its body mentions (memoized)
        self._mentioned: Dict[str, Set[str]] = {}
        self._queue: List[str] = []
        self._queued: Set[str] = set()
        self._callers: Dict[str, List[str]] = {}

    # -- bookkeeping ---------------------------------------------------

    def _enqueue(self, qual: str) -> None:
        if qual not in self._queued:
            self._queued.add(qual)
            self._queue.append(qual)

    def _mark(
        self, qual: str, node: str, trace: Tuple[str, ...]
    ) -> bool:
        """Taint ``node`` in ``qual``; True when newly tainted."""
        per_func = self.taint.setdefault(qual, {})
        if node in per_func:
            return False
        per_func[node] = trace
        if node.startswith("attr:"):
            attr = node[len("attr:"):]
            if attr not in self.attr_taint:
                self.attr_taint[attr] = trace
                for user in sorted(self._attr_users.get(attr, ())):
                    self._enqueue(user)
        return True

    def _mentioned_nodes(self, func: FunctionInfo) -> Set[str]:
        cached = self._mentioned.get(func.qual)
        if cached is not None:
            return cached
        nodes: Set[str] = set()
        for src, dst in func.edges:
            nodes.add(src)
            nodes.add(dst)
        for call in func.calls:
            for deps in call.args:
                nodes.update(deps)
            nodes.update(call.recv)
        for _line, _col, deps in func.fstrings:
            nodes.update(deps)
        self._mentioned[func.qual] = nodes
        return nodes

    def _effective(self, func: FunctionInfo) -> Dict[str, Tuple[str, ...]]:
        """Local taint plus globally-tainted attrs this body mentions."""
        per_func = dict(self.taint.get(func.qual, {}))
        for node in self._mentioned_nodes(func):
            if node.startswith("attr:") and node not in per_func:
                attr = node[len("attr:"):]
                if attr in self.attr_taint:
                    per_func[node] = self.attr_taint[attr]
        return per_func

    def _eval_proj(
        self, node: str, tainted: Dict[str, Tuple[str, ...]]
    ) -> Optional[Tuple[str, ...]]:
        """Trace for a ``proj:<attr>:<base>`` read, or None if clean."""
        attr, rest = node[len("proj:"):].split(":", 1)
        slot = self.attr_taint.get(attr)
        if slot is not None:
            return slot  # someone stored tainted material in .<attr>
        if not self.spec.projection(attr):
            return None
        if rest.startswith("proj:"):
            return self._eval_proj(rest, tainted)
        if rest.startswith("attr:"):
            return self.attr_taint.get(rest[len("attr:"):])
        return tainted.get(rest)

    def _closure(
        self, func: FunctionInfo, tainted: Dict[str, Tuple[str, ...]]
    ) -> Dict[str, Tuple[str, ...]]:
        """Propagate along intra-function value-flow edges.

        Interleaves edge propagation with lazy evaluation of the
        projection reads the body mentions, until neither makes
        progress.
        """
        adjacency = func.successors()
        proj_nodes = [
            node for node in self._mentioned_nodes(func)
            if node.startswith("proj:")
        ]
        queue = sorted(tainted)
        while True:
            while queue:
                node = queue.pop(0)
                trace = tainted[node]
                for nxt in sorted(adjacency.get(node, ())):
                    if nxt not in tainted:
                        tainted[nxt] = trace
                        queue.append(nxt)
            progressed = False
            for node in proj_nodes:
                if node in tainted:
                    continue
                trace = self._eval_proj(node, tainted)
                if trace is not None:
                    tainted[node] = trace
                    queue.append(node)
                    progressed = True
            if not progressed:
                return tainted

    @staticmethod
    def _step(func: FunctionInfo, line: int, text: str) -> str:
        return f"{func.path}:{line}: {func.display}(): {text}"

    # -- the worklist --------------------------------------------------

    def run(self) -> List[TaintHit]:
        functions = [
            self.index.functions[qual]
            for qual in sorted(self.index.functions)
        ]
        self._callers = self.index.callers_of()
        for func in functions:
            for node in self._mentioned_nodes(func):
                if node.startswith("attr:"):
                    self._attr_users.setdefault(
                        node[len("attr:"):], set()
                    ).add(func.qual)
                elif node.startswith("proj:"):
                    # a projection read re-evaluates when its attr
                    # slot (or the scoped slot at its base) taints
                    attrs, base = _proj_parts(node)
                    for attr in attrs:
                        self._attr_users.setdefault(attr, set()).add(
                            func.qual
                        )
                    if base.startswith("attr:"):
                        self._attr_users.setdefault(
                            base[len("attr:"):], set()
                        ).add(func.qual)
        # seed
        for func in functions:
            for call in func.calls:
                desc = self.spec.call_sources(func, call)
                if desc is not None:
                    trace = (self._step(
                        func, call.line, f"source: {desc}"
                    ),)
                    if self._mark(func.qual, call.node, trace):
                        self._enqueue(func.qual)
            for node, desc in self.spec.name_sources(func):
                trace = (self._step(
                    func, func.line, f"source: {desc}"
                ),)
                if self._mark(func.qual, node, trace):
                    self._enqueue(func.qual)
        # fixpoint
        steps = 0
        limit = 50 * max(1, len(functions))
        while self._queue and steps < limit:
            steps += 1
            qual = self._queue.pop(0)
            self._queued.discard(qual)
            self._process(self.index.functions[qual])
        return self._collect(functions)

    def _process(self, func: FunctionInfo) -> None:
        tainted = self._closure(func, self._effective(func))
        # persist closure results (incl. attr writes) + detect new ret
        ret_was_tainted = "ret" in self.taint.get(func.qual, {})
        for node, trace in sorted(tainted.items()):
            self._mark(func.qual, node, trace)
        if "ret" in tainted and not ret_was_tainted:
            for caller in self._callers.get(func.qual, ()):
                self._enqueue(caller)
        for call in func.calls:
            if self.spec.sanitizers(func, call) is not None:
                continue
            callee = self.index.resolve_call(func, call)
            arg_trace: Optional[Tuple[str, ...]] = None
            tainted_params: List[Tuple[str, Tuple[str, ...]]] = []
            for position, deps in enumerate(call.args):
                hit = next(
                    (d for d in sorted(deps) if d in tainted), None
                )
                if hit is None:
                    continue
                if arg_trace is None:
                    arg_trace = tainted[hit]
                if callee is not None and position < len(callee.params):
                    tainted_params.append(
                        (callee.params[position], tainted[hit])
                    )
            if arg_trace is None:
                # a tainted receiver taints an unknown call's result
                # too (``secret.hex()``); known callees are governed
                # by their own summaries instead
                recv_hit = next(
                    (d for d in sorted(call.recv) if d in tainted),
                    None,
                )
                if recv_hit is not None:
                    arg_trace = tainted[recv_hit]
            if callee is not None:
                for param, trace in tainted_params:
                    step = self._step(
                        func, call.line,
                        f"passes tainted value into {callee.display}()",
                    )
                    if self._mark(
                        callee.qual, f"param:{param}", trace + (step,)
                    ):
                        self._enqueue(callee.qual)
                ret_trace = self.taint.get(callee.qual, {}).get("ret")
                if ret_trace is not None:
                    step = self._step(
                        func, call.line,
                        f"receives tainted return value from "
                        f"{callee.display}()",
                    )
                    if self._mark(
                        func.qual, call.node, ret_trace + (step,)
                    ):
                        self._enqueue(func.qual)
            elif arg_trace is not None:
                # unknown callee: taint flows through to the result
                if self._mark(func.qual, call.node, arg_trace):
                    self._enqueue(func.qual)

    # -- sinks ---------------------------------------------------------

    def _collect(
        self, functions: Sequence[FunctionInfo]
    ) -> List[TaintHit]:
        hits: List[TaintHit] = []
        for func in functions:
            tainted = self._closure(func, self._effective(func))
            if not tainted:
                continue
            for call in func.calls:
                desc = self.spec.sinks(func, call)
                if desc is None:
                    continue
                if self.spec.sanitizers(func, call) is not None:
                    continue
                hit = None
                for deps in call.args:
                    hit = next(
                        (d for d in sorted(deps) if d in tainted), None
                    )
                    if hit is not None:
                        break
                if hit is None:
                    continue
                trace = tainted[hit] + (self._step(
                    func, call.line, f"reaches sink {desc}"
                ),)
                hits.append(TaintHit(
                    function=func, line=call.line, col=call.col,
                    sink_desc=desc, trace=trace,
                ))
            if self.spec.fstring_sink is not None:
                for line, col, deps in func.fstrings:
                    hit = next(
                        (d for d in sorted(deps) if d in tainted), None
                    )
                    if hit is None:
                        continue
                    trace = tainted[hit] + (self._step(
                        func, line,
                        f"reaches sink {self.spec.fstring_sink}",
                    ),)
                    hits.append(TaintHit(
                        function=func, line=line, col=col,
                        sink_desc=self.spec.fstring_sink, trace=trace,
                    ))
        hits.sort(key=lambda h: (h.function.path, h.line, h.col))
        return hits


def run_taint(index: ProjectIndex, spec: TaintSpec) -> List[TaintHit]:
    """Convenience wrapper: build, run, collect."""
    return TaintEngine(index, spec).run()
