"""Bench harness: comparison logic, artifact shape and CLI exit codes.

The expensive macro benches never run in tier-1 -- ``run_bench`` is
exercised with a monkeypatched suite.  The two cheap micro benches run
for real to pin the artifact contract (primary metric present, sane
values), since that is what the comparison and CI lean on.
"""

import json

import pytest

from repro.perf import bench
from repro.perf.bench import (
    BENCH_VERSION,
    bench_crypto_drbg_draw,
    bench_crypto_drbg_generate,
    bench_crypto_hmac_setup,
    bench_digest_cache,
    bench_engine_dispatch,
    bench_memory_fill,
    bench_trace_serialize,
    compare,
    git_revision,
    load_history,
    render_comparison,
    render_history,
    run_bench,
    timing_stats,
)


def artifact(benches, quick=True, revision="r1"):
    return {
        "version": BENCH_VERSION,
        "revision": revision,
        "quick": quick,
        "created_at": 0.0,
        "benches": benches,
    }


def one_bench(value, direction="higher", metric="speed"):
    return {metric: value, "primary": metric, "direction": direction}


class TestCompare:
    def test_higher_is_better_regression(self):
        rows = compare(
            artifact({"b": one_bench(70.0)}),
            artifact({"b": one_bench(100.0)}),
            threshold=0.20,
        )
        assert rows[0]["regressed"]
        assert rows[0]["ratio"] == pytest.approx(0.7)

    def test_higher_within_threshold_ok(self):
        rows = compare(
            artifact({"b": one_bench(90.0)}),
            artifact({"b": one_bench(100.0)}),
            threshold=0.20,
        )
        # 0.9 >= 1/1.2: inside the allowed band
        assert not rows[0]["regressed"]

    def test_lower_is_better_regression(self):
        rows = compare(
            artifact({"b": one_bench(130.0, direction="lower")}),
            artifact({"b": one_bench(100.0, direction="lower")}),
            threshold=0.20,
        )
        assert rows[0]["regressed"]

    def test_lower_within_threshold_ok(self):
        rows = compare(
            artifact({"b": one_bench(115.0, direction="lower")}),
            artifact({"b": one_bench(100.0, direction="lower")}),
            threshold=0.20,
        )
        assert not rows[0]["regressed"]

    def test_improvement_never_regresses(self):
        rows = compare(
            artifact({"hi": one_bench(500.0),
                      "lo": one_bench(10.0, direction="lower")}),
            artifact({"hi": one_bench(100.0),
                      "lo": one_bench(100.0, direction="lower")}),
        )
        assert not any(row["regressed"] for row in rows)

    def test_missing_bench_skipped(self):
        rows = compare(
            artifact({"new": one_bench(1.0)}),
            artifact({"old": one_bench(1.0)}),
        )
        assert rows == []

    def test_zero_baseline_skipped(self):
        rows = compare(
            artifact({"b": one_bench(1.0)}),
            artifact({"b": one_bench(0.0)}),
        )
        assert rows == []

    def test_render_lists_every_row(self):
        rows = compare(
            artifact({"a": one_bench(50.0), "b": one_bench(100.0)}),
            artifact({"a": one_bench(100.0), "b": one_bench(100.0)}),
        )
        text = render_comparison(rows)
        assert "REGRESSED" in text and " ok" in text
        assert "a" in text and "b" in text


class TestGateThresholds:
    """Noise-aware per-bench thresholds: the effective threshold is
    the widest of the CLI value and the bench's declared gate."""

    def wide_bench(self, value, gate=1.0):
        payload = one_bench(value)
        payload["gate_threshold"] = gate
        return payload

    def test_declared_gate_widens_the_cli_threshold(self):
        # 0.6x would regress at the CLI's 20%, but the bench declares
        # an absolute-throughput gate that only fails on a collapse
        rows = compare(
            artifact({"b": self.wide_bench(60.0)}),
            artifact({"b": self.wide_bench(100.0)}),
            threshold=0.20,
        )
        assert rows[0]["threshold"] == 1.0
        assert not rows[0]["regressed"]

    def test_collapse_fails_even_the_wide_gate(self):
        rows = compare(
            artifact({"b": self.wide_bench(40.0)}),
            artifact({"b": self.wide_bench(100.0)}),
            threshold=0.20,
        )
        assert rows[0]["regressed"]

    def test_cli_threshold_wins_when_wider(self):
        rows = compare(
            artifact({"b": self.wide_bench(60.0, gate=0.1)}),
            artifact({"b": self.wide_bench(100.0, gate=0.1)}),
            threshold=0.20,
        )
        assert rows[0]["threshold"] == pytest.approx(0.20)
        assert rows[0]["regressed"]

    def test_gate_falls_back_to_baseline_declaration(self):
        # older current artifacts may predate a bench's gate; the
        # baseline's declaration still applies
        rows = compare(
            artifact({"b": one_bench(60.0)}),
            artifact({"b": self.wide_bench(100.0)}),
            threshold=0.20,
        )
        assert rows[0]["threshold"] == 1.0
        assert not rows[0]["regressed"]

    def test_render_shows_gate_column(self):
        rows = compare(
            artifact({"b": self.wide_bench(60.0)}),
            artifact({"b": self.wide_bench(100.0)}),
        )
        assert "100%" in render_comparison(rows)


class TestTimingStats:
    def test_median_odd(self):
        stats = timing_stats([0.003, 0.001, 0.002])
        assert stats["median_ms"] == pytest.approx(2.0)
        assert stats["repeats"] == 3

    def test_median_even_and_spread(self):
        stats = timing_stats([0.001, 0.002, 0.004, 0.003])
        assert stats["median_ms"] == pytest.approx(2.5)
        # (max - min) / median = 0.003 / 0.0025
        assert stats["spread_pct"] == pytest.approx(120.0)

    def test_single_sample(self):
        stats = timing_stats([0.005])
        assert stats["median_ms"] == pytest.approx(5.0)
        assert stats["spread_pct"] == 0.0


class TestMicroBenches:
    def test_digest_cache_bench_shape(self):
        result = bench_digest_cache(quick=True)
        (name, payload), = result.items()
        assert payload["primary"] in payload
        assert payload[payload["primary"]] > 0

    def test_trace_serialize_bench_shape(self, tmp_path):
        result = bench_trace_serialize(True, tmp_path)
        (name, payload), = result.items()
        assert payload["direction"] == "higher"
        assert payload[payload["primary"]] > 0

    def test_engine_dispatch_bench_shape(self):
        result = bench_engine_dispatch(quick=True)
        (name, payload), = result.items()
        assert name == "engine.dispatch_noobs"
        assert payload[payload["primary"]] > 0
        assert payload["spread_pct"] >= 0.0
        assert payload["gate_threshold"] == bench.GATE_ABSOLUTE

    def test_memory_fill_bench_shape(self):
        result = bench_memory_fill(quick=True)
        (name, payload), = result.items()
        assert name == "memory.fill"
        # the speedup itself is gated by the memory.fill row of
        # benchmarks/baseline/BENCH_gate.json, not by a wall-clock
        # bound here
        assert payload["primary"] == "speedup"
        assert isinstance(payload["speedup"], float)
        assert payload["speedup"] > 0.0
        assert payload["median_ms"] > 0.0
        assert payload["gate_threshold"] == bench.GATE_RATIO

    def test_crypto_bench_shapes(self):
        # shape only: no speed assertion (the rows stay out of the gate
        # baseline until one is recorded on a quiet host)
        result = {**bench_crypto_hmac_setup(quick=True),
                  **bench_crypto_drbg_draw(quick=True),
                  **bench_crypto_drbg_generate(quick=True)}
        assert set(result) == {
            "crypto.hmac_setup", "crypto.drbg_draw", "crypto.drbg_generate"
        }
        for payload in result.values():
            value = payload[payload["primary"]]
            assert isinstance(value, float) and value > 0.0
            assert payload["direction"] == "lower"

    def test_git_revision_is_short_string(self):
        revision = git_revision()
        assert isinstance(revision, str) and revision
        assert len(revision) <= 16


class TestHistory:
    def write(self, path, benches, created_at, revision, quick=False):
        payload = artifact(benches, quick=quick, revision=revision)
        payload["created_at"] = created_at
        path.write_text(json.dumps(payload))

    def test_loads_oldest_first_including_baseline(self, tmp_path):
        (tmp_path / "baseline").mkdir()
        self.write(tmp_path / "baseline" / "BENCH_seed.json",
                   {"b": one_bench(1.0)}, 1.0, "seed")
        self.write(tmp_path / "BENCH_r2.json",
                   {"b": one_bench(2.0)}, 2.0, "r2")
        history = load_history(tmp_path)
        assert [a["revision"] for a in history] == ["seed", "r2"]

    def test_unreadable_artifact_becomes_marker(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        self.write(tmp_path / "BENCH_ok.json",
                   {"b": one_bench(1.0)}, 1.0, "ok")
        history = load_history(tmp_path)
        assert any(a.get("unreadable") for a in history)
        text = render_history(history)
        assert "skipped unreadable artifact" in text
        assert "ok" in text

    def test_render_tabulates_per_revision(self, tmp_path):
        self.write(tmp_path / "BENCH_r1.json",
                   {"old": one_bench(1.0)}, 1.0, "r1")
        self.write(tmp_path / "BENCH_r2.json",
                   {"old": one_bench(2.0), "new": one_bench(3.0)},
                   2.0, "r2", quick=True)
        text = render_history(load_history(tmp_path))
        # quick artifacts are starred; benches missing from an older
        # revision render as '-'
        assert "r2*" in text and "r1" in text
        assert "old (speed)" in text and "new (speed)" in text
        assert " -" in text
        assert "2 artifact(s)" in text

    def test_empty_directory(self, tmp_path):
        assert render_history(load_history(tmp_path)) == \
            "no bench artifacts found"

    def test_history_action_skips_suite(self, tmp_path, capsys,
                                        monkeypatch):
        def boom(**_kw):  # pragma: no cover - must not run
            raise AssertionError("suite ran under the history action")

        monkeypatch.setattr(bench, "run_suite", boom)
        self.write(tmp_path / "BENCH_r1.json",
                   {"b": one_bench(1.0)}, 1.0, "r1")
        assert run_bench(Args(action="history", dir=str(tmp_path))) == 0
        assert "r1" in capsys.readouterr().out


class Args:
    def __init__(self, **kw):
        self.quick = kw.get("quick", True)
        self.out = kw.get("out")
        self.against = kw.get("against")
        self.threshold = kw.get("threshold", 0.20)
        self.action = kw.get("action", "run")
        self.dir = kw.get("dir", "benchmarks")


class TestRunBenchCli:
    @pytest.fixture
    def fake_suite(self, monkeypatch):
        def suite(quick=False, workdir=None):
            return artifact({"b": one_bench(100.0)}, quick=quick)

        monkeypatch.setattr(bench, "run_suite", suite)

    def test_writes_artifact_and_exits_zero(self, fake_suite, tmp_path,
                                            capsys):
        out = tmp_path / "bench.json"
        assert run_bench(Args(out=str(out))) == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == BENCH_VERSION
        assert payload["benches"]["b"]["speed"] == 100.0
        assert "bench suite" in capsys.readouterr().out

    def test_clean_comparison_exits_zero(self, fake_suite, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(artifact({"b": one_bench(99.0)})))
        code = run_bench(Args(out=str(tmp_path / "c.json"),
                              against=str(base)))
        assert code == 0

    def test_regression_exits_one(self, fake_suite, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(artifact({"b": one_bench(1000.0)})))
        code = run_bench(Args(out=str(tmp_path / "c.json"),
                              against=str(base)))
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_quick_full_mismatch_noted(self, fake_suite, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(
            json.dumps(artifact({"b": one_bench(100.0)}, quick=False))
        )
        run_bench(Args(out=str(tmp_path / "c.json"), against=str(base)))
        assert "mismatch" in capsys.readouterr().out
