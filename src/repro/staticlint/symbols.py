"""Project symbol table: per-module, per-function analysis summaries.

The lexical rules see one module at a time; the whole-program rules
(:mod:`repro.staticlint.taint_rules`) need a *project* view: which
functions exist, what each one calls, and how values move through each
body.  This module extracts that view as a deliberately abstract
:class:`ModuleSummary` per file, which
:meth:`~repro.staticlint.callgraph.ProjectIndex.build` indexes.

Every function is summarized -- top-level, method, or nested ``def``
(qualified ``<outer>.<locals>.<name>``, like ``__qualname__``).  Each
body excludes the nested ``def``/``lambda`` bodies inside it, matching
``walk_scope``: they run at some other time.  A summary is a small
dataflow graph over abstract *nodes*:

``param:<name>``
    a formal parameter;
``local:<name>``
    a local variable;
``attr:<name>``
    an attribute slot.  ``self.<name>`` accesses are namespaced by the
    owning class (``attr:<module>.<Cls>.<name>``) so one class's
    secret field cannot poison every other class's same-named field
    project-wide; attribute access through any other receiver keeps
    the coarse project-global key (``attr:<name>``), which errs toward
    finding leaks rather than missing them;
``call:<i>``
    the value returned by the i-th call in the body;
``proj:<attr>:<base>``
    an attribute *read* off a named base (``profile.key`` ->
    ``proj:key:local:profile``).  The taint engine evaluates it
    lazily: tainted if the ``attr`` slot is tainted anywhere, or if
    the base is tainted *and* the active rule says taint flows
    through a ``.<attr>`` projection -- a container holding one
    secret field must not poison its metadata fields;
``ret``
    the function's return value.

Edges record value flow (assignments, returns, loop targets); call
records carry the resolved callee name plus the nodes feeding each
argument; f-strings are recorded separately because interpolating
secret material is itself a sink for ``crypto-secret-leak``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.staticlint.engine import build_import_map, walk_scope

def module_name(path: str, roots: Sequence[str] = ()) -> str:
    """Dotted module name for ``path``, best-effort.

    Preference order: the path relative to one of the scanned
    ``roots`` (so ``src/repro/fleet/clock.py`` scanned via ``src``
    becomes ``repro.fleet.clock`` and test fixtures under a tmp dir
    get names matching their in-fixture imports); else the part of the
    path from a ``repro`` component onward; else the bare stem.
    """
    posix = Path(path).as_posix()
    parts: Optional[Tuple[str, ...]] = None
    for root in roots:
        root_posix = Path(root).as_posix().rstrip("/")
        if posix.startswith(root_posix + "/"):
            parts = tuple(posix[len(root_posix) + 1:].split("/"))
            break
        if posix == root_posix:
            parts = (Path(posix).name,)
            break
    if parts is None:
        pieces = tuple(posix.split("/"))
        for anchor in ("repro", "src"):
            if anchor in pieces[:-1]:
                index = pieces.index(anchor)
                if anchor == "src":
                    index += 1
                parts = pieces[index:]
                break
        else:
            parts = (pieces[-1],)
    parts = tuple(p for p in parts if p)
    if parts and parts[-1].endswith(".py"):
        parts = parts[:-1] + (parts[-1][:-3],)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<module>"


@dataclass
class CallRecord:
    """One call site inside a function body."""

    index: int
    resolved: str  # import-dealiased dotted name ("" if unresolvable)
    terminal: str  # last component of the call target
    recv_self: bool  # True for ``self.method(...)``
    line: int
    col: int
    args: List[List[str]]  # dep nodes per argument (incl. keywords)
    recv: List[str] = field(default_factory=list)  # receiver deps
    yield_from: bool = False

    @property
    def node(self) -> str:
        return f"call:{self.index}"


@dataclass
class FunctionInfo:
    """Summary of one function/method body."""

    qual: str  # "<module>.<Class>.<name>" or "<module>.<name>"
    name: str
    cls: str  # owning class name, "" for module-level functions
    module: str
    path: str
    line: int
    params: List[str] = field(default_factory=list)
    edges: List[Tuple[str, str]] = field(default_factory=list)
    calls: List[CallRecord] = field(default_factory=list)
    #: f-string interpolations: (line, col, dep nodes)
    fstrings: List[Tuple[int, int, List[str]]] = field(default_factory=list)
    #: Atomic(True)..Atomic(False) window, (start, end) lines
    window: Optional[Tuple[int, int]] = None
    #: non-Atomic/Compute yields: (line, col, description)
    bad_yields: List[Tuple[int, int, str]] = field(default_factory=list)

    @property
    def display(self) -> str:
        """``Class.name`` for methods, ``name`` otherwise."""
        return f"{self.cls}.{self.name}" if self.cls else self.name

    # -- flow helpers (used by the whole-program rules) ----------------

    def successors(self) -> Dict[str, Set[str]]:
        adjacency: Dict[str, Set[str]] = {}
        for src, dst in self.edges:
            adjacency.setdefault(src, set()).add(dst)
        return adjacency

    def reachable_from(self, starts: Sequence[str]) -> Set[str]:
        """Nodes reachable from ``starts`` along the value-flow edges."""
        adjacency = self.successors()
        seen: Set[str] = set()
        stack = list(starts)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
        return seen


@dataclass
class ModuleSummary:
    """Everything the whole-program phase keeps about one module."""

    path: str
    module: str
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _atomic_marker(node: ast.AST) -> Optional[bool]:
    """True/False for a ``yield Atomic(True/False)``, else None."""
    value = node.value if isinstance(node, ast.Expr) else node
    if not isinstance(value, ast.Yield):
        return None
    call = value.value
    if (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "Atomic"
        and len(call.args) == 1
        and isinstance(call.args[0], ast.Constant)
        and isinstance(call.args[0].value, bool)
    ):
        return call.args[0].value
    return None


def _allowed_yield(value: Optional[ast.expr]) -> bool:
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("Atomic", "Compute")
    )


class _FunctionExtractor:
    """Builds one :class:`FunctionInfo` from a function's AST."""

    def __init__(
        self,
        func: ast.AST,
        info: FunctionInfo,
        resolve,
    ) -> None:
        self.func = func
        self.info = info
        self.resolve = resolve
        self.params = set(info.params)
        self.call_index: Dict[int, int] = {}  # id(node) -> call index
        self._edges: Set[Tuple[str, str]] = set()

    def run(self) -> None:
        self._collect_calls()
        self._collect_flow()
        self._collect_atomicity()
        self.info.edges = sorted(self._edges)

    # -- nodes ---------------------------------------------------------

    def _name_node(self, name: str) -> str:
        if name in self.params:
            return f"param:{name}"
        return f"local:{name}"

    def _attr_node(self, node: ast.Attribute) -> str:
        # ``self.x`` is private to the class: key it by the owning
        # class so Verifier's ``self.state`` and an app's unrelated
        # ``self.state`` do not share one project-global taint slot
        if (
            self.info.cls
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return f"attr:{self.info.module}.{self.info.cls}.{node.attr}"
        return f"attr:{node.attr}"

    def _attr_dep(self, node: ast.Attribute) -> Optional[str]:
        """Dep node for an attribute *read*, projection-aware.

        ``profile.key`` becomes ``proj:key:local:profile``: the engine
        decides per rule whether the base object's taint flows through
        a ``.key`` projection, so a container holding one secret field
        does not poison every metadata field read off it.
        """
        base = node.value
        if isinstance(base, ast.Name):
            if base.id == "self" and self.info.cls:
                return self._attr_node(node)  # the class-scoped slot
            return f"proj:{node.attr}:{self._name_node(base.id)}"
        if isinstance(base, ast.Attribute):
            inner = self._attr_dep(base)
            if inner is not None:
                return f"proj:{node.attr}:{inner}"
            return None
        if isinstance(base, ast.Call):
            index = self.call_index.get(id(base))
            if index is not None:
                return f"proj:{node.attr}:call:{index}"
        return None

    def _expr_deps(self, expr: Optional[ast.AST]) -> List[str]:
        """Abstract nodes whose values feed ``expr``.

        Calls are *mediated*: an inner call contributes only its
        ``call:<i>`` node, never the nodes feeding its arguments or
        receiver.  Those flows belong to the taint engine (parameter
        injection, taint-through, sanitizers) -- a blind walk would
        let ``return hmac_digest(key, msg)`` add a direct
        ``param:key -> ret`` edge that bypasses the sanitizer.
        Comparisons yield truth values, which carry no reproducible
        content or secret material, so their operands are skipped too.
        """
        deps: Set[str] = set()
        if expr is None:
            return []

        def visit(node: ast.AST) -> None:
            if isinstance(node, ast.Call):
                index = self.call_index.get(id(node))
                if index is not None:
                    deps.add(f"call:{index}")
                return
            if isinstance(node, ast.Compare):
                return
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                deps.add(self._name_node(node.id))
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                dep = self._attr_dep(node)
                if dep is not None:
                    deps.add(dep)
                    return
                deps.add(f"attr:{node.attr}")
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(expr)
        return sorted(deps)

    # -- calls ---------------------------------------------------------

    def _collect_calls(self) -> None:
        delegated: Set[int] = set()
        for node in walk_scope(self.func):
            if isinstance(node, ast.YieldFrom) and isinstance(
                node.value, ast.Call
            ):
                delegated.add(id(node.value))
        records: List[ast.Call] = [
            node for node in walk_scope(self.func)
            if isinstance(node, ast.Call)
        ]
        records.sort(key=lambda call: (call.lineno, call.col_offset))
        for index, call in enumerate(records):
            line, col = call.lineno, call.col_offset
            yield_from = id(call) in delegated
            self.call_index[id(call)] = index
            func = call.func
            recv_self = (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            )
            terminal = (
                func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", "")
            )
            self.info.calls.append(CallRecord(
                index=index,
                resolved=self.resolve(func),
                terminal=terminal,
                recv_self=recv_self,
                line=line,
                col=col + 1,
                args=[],
                yield_from=yield_from,
            ))

    def _fill_call_args(self) -> None:
        calls_by_index = {record.index: record for record in self.info.calls}
        for node in walk_scope(self.func):
            if not isinstance(node, ast.Call):
                continue
            index = self.call_index.get(id(node))
            if index is None:
                continue
            record = calls_by_index[index]
            record.args = [
                self._expr_deps(arg) for arg in node.args
            ] + [
                self._expr_deps(keyword.value) for keyword in node.keywords
            ]
            if isinstance(node.func, ast.Attribute):
                record.recv = self._expr_deps(node.func.value)

    # -- flow ----------------------------------------------------------

    def _assign_target_nodes(self, target: ast.AST) -> List[str]:
        nodes: List[str] = []
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                nodes.append(self._name_node(node.id))
            elif isinstance(node, ast.Attribute):
                nodes.append(self._attr_node(node))
        return nodes

    def _add_flow(self, sources: Sequence[str], targets: Sequence[str]) -> None:
        for src in sources:
            for dst in targets:
                if src != dst:
                    self._edges.add((src, dst))

    def _collect_flow(self) -> None:
        self._fill_call_args()
        for node in walk_scope(self.func):
            if isinstance(node, ast.Assign):
                deps = self._expr_deps(node.value)
                for target in node.targets:
                    self._add_flow(deps, self._assign_target_nodes(target))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._add_flow(
                    self._expr_deps(node.value),
                    self._assign_target_nodes(node.target),
                )
            elif isinstance(node, ast.AugAssign):
                self._add_flow(
                    self._expr_deps(node.value),
                    self._assign_target_nodes(node.target),
                )
            elif isinstance(node, ast.Return):
                self._add_flow(self._expr_deps(node.value), ["ret"])
            elif isinstance(node, ast.For):
                self._add_flow(
                    self._expr_deps(node.iter),
                    self._assign_target_nodes(node.target),
                )
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    self._add_flow(
                        self._expr_deps(node.context_expr),
                        self._assign_target_nodes(node.optional_vars),
                    )
            elif isinstance(node, ast.JoinedStr):
                deps = []
                for part in node.values:
                    if isinstance(part, ast.FormattedValue):
                        deps.extend(self._expr_deps(part.value))
                if deps:
                    self.info.fstrings.append(
                        (node.lineno, node.col_offset + 1, sorted(set(deps)))
                    )

    # -- atomicity -----------------------------------------------------

    def _collect_atomicity(self) -> None:
        opens: List[int] = []
        closes: List[int] = []
        for node in walk_scope(self.func):
            if isinstance(node, (ast.Expr, ast.Yield)):
                marker = _atomic_marker(node)
                if marker is True:
                    opens.append(node.lineno)
                    continue
                if marker is False:
                    closes.append(node.lineno)
                    continue
            if isinstance(node, ast.Yield):
                if not _allowed_yield(node.value):
                    desc = ast.unparse(node.value) if node.value else "yield"
                    self.info.bad_yields.append(
                        (node.lineno, node.col_offset + 1, desc)
                    )
        if opens:
            end = max(closes) if closes else getattr(
                self.func, "end_lineno", opens[0]
            )
            self.info.window = (min(opens), end)


def extract_module_summary(
    tree: ast.AST,
    path: str,
    roots: Sequence[str] = (),
    import_map: Optional[Dict[str, str]] = None,
) -> ModuleSummary:
    """Summarize every function in ``tree``, nested ones included."""
    mod = module_name(path, roots)
    summary = ModuleSummary(path=path, module=mod)
    import_map = (
        build_import_map(tree) if import_map is None else import_map
    )

    def resolve(node: ast.AST) -> str:
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return ""
        root = import_map.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def add_function(
        func: ast.AST, scope: Tuple[str, ...], cls: str
    ) -> None:
        qual = ".".join((mod,) + scope + (func.name,))
        if qual in summary.functions:  # a conditional redefinition
            qual = f"{qual}@{func.lineno}"
        # drop the implicit receiver (``self``/``cls``) so positional
        # argument -> parameter mapping lines up at call sites
        params = [
            arg.arg
            for arg in (
                list(func.args.posonlyargs) + list(func.args.args)
                + list(func.args.kwonlyargs)
            )
            if arg.arg not in ("self", "cls")
        ]
        info = FunctionInfo(
            qual=qual, name=func.name, cls=cls, module=mod,
            path=path, line=func.lineno, params=params,
        )
        _FunctionExtractor(func, info, resolve).run()
        summary.functions[qual] = info

    def visit(node: ast.AST, scope: Tuple[str, ...], cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_function(child, scope, cls)
                # a nested def belongs to no class: it is a closure,
                # never a method the call graph may resolve by name
                visit(child, scope + (child.name, "<locals>"), "")
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), child.name)
            else:
                visit(child, scope, cls)

    visit(tree, (), "")
    return summary
