"""Every module under ``src/repro`` is reached from what the project runs.

The entry points are the paper commands and tools (``ARTIFACTS``,
``TOOLS``), the scenario tables' builders (``MECHANISMS``, ``MALWARE``,
``WORKLOADS``), the canned campaigns and the imports of the paper
claims in ``tests/paper``.  From them a static walk follows every
``import`` statement (function-level ones too), every ``"module:function"``
target string, and, for ``from package import name``, the package's
lazy export table.  A module it never reaches serves no paper claim
and no command; only :data:`ALLOWED` may stay out, each for a reason.
Nothing here is timed or run: the walk parses source files.
"""

import ast
import functools
import re
from pathlib import Path

import repro
from repro.cli import TOOLS
from repro.experiments import ARTIFACTS
from repro.fleet.campaign import CANNED_CAMPAIGNS
from repro.scenario import MALWARE, MECHANISMS, WORKLOADS

PACKAGE = Path(repro.__file__).resolve().parent
PAPER = Path(__file__).resolve().parent / "paper"

#: modules no entry point reaches, and why each stays
ALLOWED = {
    "repro.__main__": "what ``python -m repro`` runs; it calls cli.main",
    "repro.perf.digest_cache": (
        "a stub the frozen benchmark's tracer still imports and wraps"
    ),
}

#: a ``"module:function"`` target, as ARTIFACTS and TOOLS name them
TARGET = re.compile(r"(repro(?:\.\w+)*):\w+")


def source_modules():
    """``{dotted name: path}`` of every module under ``src/repro``."""
    found = {}
    for path in PACKAGE.rglob("*.py"):
        parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


MODULES = source_modules()


@functools.lru_cache(maxsize=None)
def lazy_exports(package):
    """``{name: defining module}`` of a package's ``export_lazily``
    table (empty for a plain module)."""
    if MODULES[package].name != "__init__.py":
        return {}
    for node in ast.walk(ast.parse(MODULES[package].read_text())):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "export_lazily"):
            table = node.args[1]
            return {
                name.value: module.value
                for module, names in zip(table.keys, table.values)
                for name in names.elts
            }
    return {}


def resolve(module, names=()):
    """The modules ``from module import names`` (or ``import module``)
    loads: the module and its packages, and each name that is a
    submodule or a lazy export."""
    reached = set()
    parts = module.split(".")
    for end in range(1, len(parts) + 1):
        prefix = ".".join(parts[:end])
        if prefix in MODULES:
            reached.add(prefix)
    if module in MODULES:
        exports = lazy_exports(module)
        for name in names:
            if name in exports:
                reached.add(exports[name])
            elif f"{module}.{name}" in MODULES:
                reached.add(f"{module}.{name}")
    return reached


@functools.lru_cache(maxsize=None)
def references(path):
    """The ``repro`` modules a source file imports or names as a
    ``"module:function"`` target, anywhere in its body."""
    reached = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    reached |= resolve(alias.name)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] == "repro":
                reached |= resolve(module, [a.name for a in node.names])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = TARGET.fullmatch(node.value)
            if match:
                reached |= resolve(match.group(1))
    return reached


def reach(starts):
    seen, todo = set(), list(starts)
    while todo:
        module = todo.pop()
        if module in seen or module not in MODULES:
            continue
        seen.add(module)
        todo.extend(references(MODULES[module]) - seen)
    return seen


def entry_points():
    starts = set()
    for artifact in ARTIFACTS:
        starts.add(artifact.run.partition(":")[0])
    for tool in TOOLS:
        starts.add(tool.arguments.partition(":")[0])
        starts.add(tool.run.partition(":")[0])
    for mechanism in MECHANISMS.values():
        starts.add(mechanism.build.__module__)
    for builder in [*MALWARE.values(), *WORKLOADS.values(),
                    *CANNED_CAMPAIGNS.values()]:
        starts.add(builder.__module__)
    for claim in PAPER.glob("*.py"):
        starts |= references(claim)
    return starts


def test_every_module_is_reached():
    unreached = set(MODULES) - reach(entry_points())
    assert unreached - set(ALLOWED) == set()
    # an allowance for a module that is reached, or gone, is stale
    assert unreached == set(ALLOWED)
    assert len(ALLOWED) <= 5


def test_the_walk_follows_lazy_exports_and_targets():
    """``from repro.ra import TytanAttestation`` reaches the defining
    module, not every module of the package; a ``"module:function"``
    string reaches its module."""
    assert resolve("repro.ra", ["TytanAttestation"]) == {
        "repro", "repro.ra", "repro.ra.tytan",
    }
    assert "repro.staticlint.cli" in reach({"repro.cli"})
    assert "repro.ra.tytan" in reach(entry_points())
