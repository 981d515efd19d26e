"""The `repro fleet` subcommand."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError


class TestPlan:
    def test_plan_lists_runs(self, capsys):
        assert main(["fleet", "plan", "--campaign", "matrix",
                     "--seeds", "1", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "matrix-fleet" in out
        assert "smart-none-s0000-" in out
        lines = [l for l in out.splitlines() if "-s0000-" in l]
        assert len(lines) == 5

    def test_plan_from_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "campaign.json"
        spec_file.write_text(json.dumps({
            "name": "from-file",
            "base": {"block_count": 8},
            "axes": {"mechanism": ["smart", "erasmus"]},
            "seeds": [0, 1],
        }))
        assert main(["fleet", "plan", "--spec", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "from-file" in out and "4 runs" in out

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["fleet"])

    @pytest.mark.parametrize("command", ["plan", "run"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_spec_file_non_json_number_rejected(
        self, tmp_path, command, literal
    ):
        # json.load accepts these literals; a campaign file must not
        spec_file = tmp_path / "campaign.json"
        spec_file.write_text(
            '{"name": "bad", "base": {"horizon": %s}}' % literal
        )
        argv = ["fleet", command, "--spec", str(spec_file)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(ConfigurationError,
                           match=f"{literal} is not JSON"):
            main(argv)
        assert not (tmp_path / "out").exists()


class TestRunAndSummarize:
    def run_small(self, tmp_path, capsys, extra=()):
        code = main([
            "fleet", "run", "--campaign", "locking", "--seeds", "1",
            "--limit", "4", "--out", str(tmp_path), *extra,
        ])
        assert code == 0
        return capsys.readouterr().out

    def test_run_writes_artifacts_and_summary(self, tmp_path, capsys):
        out = self.run_small(tmp_path, capsys)
        assert "4 runs" in out
        assert "ok=4" in out
        assert "mechanism" in out  # the summary table
        root = tmp_path / "locking-availability"
        assert (root / "runs.jsonl").exists()
        assert (root / "manifest.json").exists()
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["run_count"] == 4

    def test_resume_skips_finished_runs(self, tmp_path, capsys):
        self.run_small(tmp_path, capsys)
        out = self.run_small(tmp_path, capsys, extra=["--resume"])
        assert "0 runs" in out  # nothing left to execute
        manifest = json.loads(
            (tmp_path / "locking-availability" / "manifest.json").read_text()
        )
        assert manifest["run_count"] == 4  # artifacts keep all results

    def test_summarize_reads_artifacts(self, tmp_path, capsys):
        self.run_small(tmp_path, capsys)
        assert main(["fleet", "summarize", "--campaign",
                     "locking-availability", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "locking-availability" in out and "no-lock" in out

    def test_summarize_without_artifacts_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fleet", "summarize", "--campaign", "ghost",
                  "--out", str(tmp_path)])


class TestSummarizeCannedKey:
    """`summarize --campaign <key>` finds what `run --campaign <key>` wrote."""

    def test_default_campaign_finds_canned_artifacts(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "summarize", "--out", str(tmp_path)])
        # the error names every path it checked
        assert str(tmp_path / "qoa" / "runs.jsonl") in str(excinfo.value)
        assert str(tmp_path / "qoa-fleet" / "runs.jsonl") in str(excinfo.value)
        assert main(["fleet", "run", "--campaign", "qoa", "--seeds", "1",
                     "--limit", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["fleet", "summarize", "--out", str(tmp_path)]) == 0
        assert "qoa-fleet: 2 runs" in capsys.readouterr().out

    def test_spec_campaign_named_like_a_key_is_found(self, tmp_path, capsys):
        spec_file = tmp_path / "campaign.json"
        spec_file.write_text(json.dumps({
            "name": "qoa",
            "base": {"block_count": 8},
            "axes": {"mechanism": ["smart"]},
            "seeds": [0],
        }))
        out = tmp_path / "out"
        assert main(["fleet", "run", "--spec", str(spec_file),
                     "--out", str(out)]) == 0
        assert (out / "qoa" / "runs.jsonl").exists()
        capsys.readouterr()
        assert main(["fleet", "summarize", "--out", str(out)]) == 0
        assert "qoa: 1 runs" in capsys.readouterr().out
