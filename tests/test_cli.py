"""The command-line experiment driver."""

from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.experiments import ARTIFACTS

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_path(command: str) -> Path:
    # smarm's golden is checked by the sec32 fixture in tests/paper, so
    # the 4000-trial game is played once
    name = "smarm_cli" if command == "smarm" else command
    return GOLDEN_DIR / f"{name}.txt"


@pytest.mark.parametrize(
    "command",
    [artifact.name for artifact in ARTIFACTS if artifact.name != "smarm"],
)
def test_stdout_matches_golden(command, capsys):
    """Each command's default stdout is pinned byte for byte."""
    assert main([command]) == 0
    golden = golden_path(command)
    assert capsys.readouterr().out == golden.read_bytes().decode(), (
        f"`repro {command}` stdout differs from tests/golden/{golden.name}"
    )


class TestArtifactTable:
    """ARTIFACTS is the one list of paper commands; nothing is built."""

    def test_every_artifact_has_a_subparser(self):
        parser = _build_parser()
        for artifact in ARTIFACTS:
            assert parser.parse_args([artifact.name]).run is artifact.run

    def test_every_artifact_has_a_golden(self):
        missing = [
            artifact.name for artifact in ARTIFACTS
            if not golden_path(artifact.name).is_file()
        ]
        assert missing == []

    def test_all_sections_in_paper_order(self):
        titles = [artifact.title for artifact in ARTIFACTS if artifact.title]
        assert titles == [
            "FIG1", "FIG2", "FIG3", "FIG4", "FIG5", "TABLE1", "SEC25",
            "SEC32",
        ]


class TestCommands:
    def test_fig1(self, capsys):
        assert main(["fig1", "--memory", "8MiB"]) == 0
        out = capsys.readouterr().out
        assert "t_s" in out and "verdict" in out

    def test_fig5(self, capsys):
        assert main(["fig5", "--tm", "4", "--tc", "16"]) == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out and "undetected" in out

    def test_faults(self, capsys):
        assert main([
            "faults", "--exchanges", "6", "--mechanisms", "smart",
            "--plan", "loss=0.3@0:20;reset@4",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault plan:" in out
        assert "smart:" in out and "completion" in out
        assert "WARNING" not in out  # no false compromised verdicts

    def test_faults_rejects_bad_plan(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["faults", "--plan", "loss=banana"])

    def test_smarm(self, capsys):
        assert main(["smarm", "--blocks", "32", "--trials", "400"]) == 0
        out = capsys.readouterr().out
        assert "e^-1" in out

    def test_firealarm_small_memory(self, capsys):
        assert main(["firealarm", "--memory", "64MiB"]) == 0
        out = capsys.readouterr().out
        assert "alarm latency" in out


class TestArgHandling:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0


class TestExtensionCommands:
    def test_swarm(self, capsys):
        from repro.cli import main

        assert main(["swarm", "--count", "7", "--infect", "3"]) == 0
        out = capsys.readouterr().out
        assert "healthy         : 6/7" in out
        assert "node3" in out

    def test_swarm_clean(self, capsys):
        from repro.cli import main

        assert main(["swarm", "--count", "5", "--shape", "star",
                     "--infect"]) == 0
        out = capsys.readouterr().out
        assert "5/5" in out
