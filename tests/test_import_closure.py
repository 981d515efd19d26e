"""What a fresh process loads: every package exports lazily (PEP 562).

Each closure check starts a new interpreter, so nothing an earlier
test imported can hide a module; it compares ``sys.modules`` sets and
involves no clock.
"""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

LINT_RULES = [
    "crypto-digest-eq", "crypto-random-module", "crypto-secret-leak",
    "det-module-random", "det-mutable-default", "det-set-iteration",
    "det-taint-flow", "det-unseeded-random", "det-wall-clock",
    "det-wall-clock-assert", "obs-ctx-drop", "obs-span-leak",
    "perf-unbounded-queue", "ra-atomic-gap", "ra-naked-send",
]


def loaded_after(code):
    """The ``sys.modules`` names a fresh interpreter holds after
    running ``code``."""
    script = (
        code
        + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True,
    )
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def repro_modules(modules):
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def under(modules, *packages):
    return sorted(
        m for m in modules
        for package in packages
        if m == package or m.startswith(package + ".")
    )


def run_command(argv):
    """``python -m repro <argv>`` as a ``-c`` snippet."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['repro', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
    )


class TestClosures:
    def test_import_repro_loads_no_subpackage(self):
        loaded = repro_modules(loaded_after("import repro"))
        assert loaded <= {"repro", "repro.errors"}

    def test_the_smarm_game_loads_only_the_drbg(self):
        loaded = repro_modules(loaded_after("import repro.ra.smarm"))
        assert len(loaded) <= 8, sorted(loaded)
        assert under(loaded, "repro.sim", "repro.obs", "repro.ra.service") == []

    @pytest.mark.parametrize("command", ["fig2", "fig3"])
    def test_model_commands_load_no_simulator_or_tool(self, command):
        loaded = loaded_after(run_command([command]))
        assert "repro.cli" in loaded
        assert under(
            loaded, "repro.sim", "repro.staticlint", "repro.vserver",
            "repro.fleet",
        ) == []

    def test_the_serial_backend_loads_no_multiprocessing(self):
        loaded = loaded_after("import repro.fleet.backends")
        assert under(loaded, "multiprocessing", "concurrent") == []

    def test_lint_cli_alone_registers_every_rule(self):
        """``registry`` loads the rule modules through the package's
        submodule fallback, which needs ``__getattr__`` to refuse
        unknown names."""
        code = (
            "import repro.staticlint.cli\n"
            "from repro.staticlint.registry import all_rules\n"
            "print(json.dumps([rule.id for rule in all_rules()]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", "import json\n" + code], env=env,
            capture_output=True, text=True, check=True,
        )
        assert sorted(json.loads(proc.stdout)) == LINT_RULES


def packages():
    """Every ``repro`` package, imported."""
    found = [repro]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            found.append(importlib.import_module(info.name))
    return found


def defining_modules(name, value):
    """The non-package ``repro`` modules that bind ``name`` to ``value``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg or info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        if vars(module).get(name) is value:
            yield info.name


class TestLazyExports:
    @pytest.mark.parametrize(
        "package", packages(), ids=lambda package: package.__name__
    )
    def test_every_export_is_its_defining_modules_object(self, package):
        listed = dir(package)
        for name in getattr(package, "__all__", ()):
            if name == "__version__":
                continue
            value = getattr(package, name)
            assert name in listed, (package.__name__, name)
            assert list(defining_modules(name, value)), (
                package.__name__, name,
            )

    @pytest.mark.parametrize(
        "package", packages(), ids=lambda package: package.__name__
    )
    def test_a_misspelt_name_names_the_package(self, package):
        with pytest.raises(AttributeError, match=re.escape(
            f"module {package.__name__!r} has no attribute 'Simulatr'"
        )):
            package.Simulatr  # noqa: B018

    def test_smarm_attestation_is_one_class_at_three_paths(self):
        from repro.ra import SmarmAttestation, smarm, smarm_service

        assert smarm.SmarmAttestation is SmarmAttestation
        assert smarm_service.SmarmAttestation is SmarmAttestation
        assert repro.SmarmAttestation is SmarmAttestation
        assert "SmarmAttestation" in dir(smarm)
