"""Self-hosting: the analyzer must pass over its own repository.

The acceptance contract from the linter's introduction: ``repro lint
src/ --strict`` (the CI step) exits 0, and deliberately
injecting a wall-clock call into the DES engine or a ``==`` digest
comparison into the report layer makes it exit non-zero with a rule
id, location and fix hint.  Ruff conformance is checked here too when
ruff is installed (CI always installs it; the local environment may
not have it).
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.staticlint import analyze_source, build_report

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


def live(findings):
    return [f for f in findings if not f.suppressed]


@pytest.fixture(scope="module")
def self_scan():
    """One strict scan of ``src/``, shared by the self-scan tests."""
    return build_report([str(SRC_DIR)], strict=True)


class TestSelfScan:
    def test_src_tree_is_clean(self, self_scan):
        offending = [f.render() for f in self_scan.live]
        assert self_scan.exit_code == 0, "\n".join(offending)

    def test_scan_covers_the_whole_tree(self, self_scan):
        assert self_scan.files_checked >= 75

    def test_known_suppressions_are_intentional(self, self_scan):
        """Every inline allow[] in src/ is accounted for here.

        Grows only deliberately: add the justification to this list
        when adding a suppression.
        """
        suppressed = sorted(
            (Path(f.path).name, f.rule_id)
            for f in self_scan.findings
            if f.suppressed
        )
        assert suppressed == [
            # cohort list on CampaignSpec: grows with the declared
            # spec (a handful of cohorts), never per-run.
            ("campaign.py", "perf-unbounded-queue"),
            # t_r release timer: the extended locking policies hold the
            # lock past the atomic section by design (Section 3.1).
            ("measurement.py", "ra-atomic-gap"),
            # the verdict ledger (one line per submitted report -- it IS
            # the run artifact) and the exact-quantile latency list are
            # the two sanctioned unbounded accumulators in the served
            # verifier; growth is bounded by generated traffic.
            ("server.py", "perf-unbounded-queue"),
            ("server.py", "perf-unbounded-queue"),
            ("server.py", "perf-unbounded-queue"),
            # the exchange sketch's top-K slow list: both growth sites
            # are immediately followed by _trim(), which caps the list
            # at SKETCH_TOP_K entries.
            ("telemetry.py", "perf-unbounded-queue"),
            ("telemetry.py", "perf-unbounded-queue"),
        ]


class TestInjectedViolations:
    def test_wall_clock_in_engine_fails(self):
        engine_path = SRC_DIR / "repro" / "sim" / "engine.py"
        source = engine_path.read_text(encoding="utf-8") + (
            "\n\ndef _injected_stamp():\n"
            "    import time\n"
            "    return time.time()\n"
        )
        found = live(
            analyze_source(source, path=str(engine_path))
        )
        assert any(f.rule_id == "det-wall-clock" for f in found)
        finding = next(
            f for f in found if f.rule_id == "det-wall-clock"
        )
        rendered = finding.render()
        assert "engine.py" in rendered and ":" in finding.location
        assert finding.hint  # the fix hint the acceptance demands

    def test_digest_eq_in_report_fails(self):
        report_path = SRC_DIR / "repro" / "ra" / "report.py"
        source = report_path.read_text(encoding="utf-8") + (
            "\n\ndef _injected_check(report, key, algorithm):\n"
            "    expected = hmac_digest(\n"
            "        key, report.signing_input(), algorithm\n"
            "    )\n"
            "    return expected == report.auth_tag\n"
        )
        found = live(
            analyze_source(source, path=str(report_path))
        )
        assert any(f.rule_id == "crypto-digest-eq" for f in found)

    def test_injection_via_cli_exit_code(self, tmp_path, capsys):
        """End to end: the CLI exits non-zero on an injected violation."""
        from repro.cli import main

        victim = tmp_path / "repro" / "sim" / "engine_copy.py"
        victim.parent.mkdir(parents=True)
        victim.write_text(
            "import time\n\n\ndef now():\n    return time.time()\n",
            encoding="utf-8",
        )
        code = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[det-wall-clock]" in out
        assert "engine_copy.py:5" in out
        assert "hint:" in out


@pytest.mark.skipif(
    shutil.which("ruff") is None, reason="ruff not installed"
)
class TestRuffConformance:
    def test_ruff_check_clean(self):
        proc = subprocess.run(
            ["ruff", "check", "src", "tests"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestLintCliSmoke:
    def test_module_entry_point(self):
        """``python -m repro lint --list-rules`` works as a process."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--list-rules"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "det-wall-clock" in proc.stdout
        assert "crypto-digest-eq" in proc.stdout
        assert "ra-atomic-gap" in proc.stdout
