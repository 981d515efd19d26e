"""Unit tests for the determinism & crypto-safety analyzer.

Each rule gets a fixture-snippet trio: a true positive, the same
positive suppressed inline, and a near-miss that must NOT fire (the
false-positive guard).  On top of that: suppression semantics,
fingerprint stability, reporter output, and CLI exit codes.
"""

import json

import pytest

from repro.staticlint import (
    LintConfig,
    Severity,
    all_rules,
    analyze_source,
    build_report,
)
from repro.staticlint.engine import suppressed_lines

SIM_PATH = "src/repro/sim/fake_module.py"
CRYPTO_PATH = "src/repro/crypto/fake_module.py"
FLEET_PATH = "src/repro/fleet/fake_module.py"


def findings_for(source, path=SIM_PATH, rule=None, config=None):
    config = config or LintConfig(select=(rule,) if rule else None)
    return analyze_source(source, path=path, config=config)


def live(findings):
    return [f for f in findings if not f.suppressed]


class TestWallClockRule:
    RULE = "det-wall-clock"

    def test_time_time_flagged(self):
        src = "import time\n\nstamp = time.time()\n"
        found = live(findings_for(src, rule=self.RULE))
        assert [f.rule_id for f in found] == [self.RULE]
        assert found[0].line == 3
        assert "time.time" in found[0].message
        assert found[0].hint

    def test_aliased_import_still_resolves(self):
        src = "from time import perf_counter as pc\n\nx = pc()\n"
        found = live(findings_for(src, rule=self.RULE))
        assert len(found) == 1
        assert "perf_counter" in found[0].message

    def test_datetime_now_flagged(self):
        src = (
            "from datetime import datetime\n"
            "when = datetime.now()\n"
        )
        assert len(live(findings_for(src, rule=self.RULE))) == 1

    def test_suppressed_inline(self):
        src = (
            "import time\n"
            "stamp = time.time()  # repro: allow[det-wall-clock]\n"
        )
        found = findings_for(src, rule=self.RULE)
        assert len(found) == 1 and found[0].suppressed

    def test_telemetry_module_allowlisted(self):
        src = "import time\n\nstamp = time.time()\n"
        found = findings_for(
            src, path="src/repro/fleet/clock.py", rule=self.RULE
        )
        assert found == []

    def test_sim_now_not_flagged(self):
        src = (
            "def handler(sim, timing):\n"
            "    t = sim.now\n"
            "    cost = timing.hash_time('sha256', 1024)\n"
            "    return t + cost\n"
        )
        assert findings_for(src, rule=self.RULE) == []


TEST_PATH = "tests/test_fake_module.py"


class TestWallClockAssertRule:
    RULE = "det-wall-clock-assert"

    def found(self, src, path=TEST_PATH):
        return live(findings_for(src, path=path, rule=self.RULE))

    def test_assert_on_elapsed_local_flagged(self):
        src = (
            "import time\n"
            "def test_fast():\n"
            "    start = time.perf_counter()\n"
            "    work()\n"
            "    elapsed = time.perf_counter() - start\n"
            "    assert elapsed < 1.0\n"
        )
        found = self.found(src)
        assert [(f.rule_id, f.line) for f in found] == [(self.RULE, 6)]
        assert "elapsed" in found[0].message
        assert found[0].hint

    def test_direct_read_in_assert_flagged(self):
        src = (
            "from time import monotonic as mono\n"
            "def test_clock(deadline):\n"
            "    assert mono() < deadline\n"
        )
        found = self.found(src)
        assert [f.line for f in found] == [3]
        assert "time.monotonic()" in found[0].message

    def test_local_derived_from_clock_locals_flagged(self):
        src = (
            "import time\n"
            "def test_span():\n"
            "    t0 = time.time()\n"
            "    t1 = time.time()\n"
            "    dt = t1 - t0\n"
            "    if dt > 5:\n"
            "        fail()\n"
        )
        found = self.found(src)
        assert [f.line for f in found] == [6]
        assert "comparison" in found[0].message

    def test_unittest_assert_method_flagged(self):
        src = (
            "import datetime\n"
            "class T:\n"
            "    def test_today(self):\n"
            "        day = datetime.date.today()\n"
            "        self.assertEqual(day.year, 2026)\n"
        )
        assert [f.line for f in self.found(src)] == [5]

    def test_suppressed_inline(self):
        src = (
            "import time\n"
            "ok = time.time() > 0  # repro: allow[det-wall-clock-assert]\n"
        )
        found = findings_for(src, path=TEST_PATH, rule=self.RULE)
        assert len(found) == 1 and found[0].suppressed

    def test_sim_time_assertion_not_flagged(self):
        src = (
            "import time\n"
            "def test_deadline(sim):\n"
            "    start = sim.now\n"
            "    sim.run()\n"
            "    assert sim.now - start < 1.0\n"
            "    stamp = time.time()\n"
            "    log(stamp)\n"
        )
        assert self.found(src) == []

    def test_clock_local_of_another_scope_not_flagged(self):
        src = (
            "import time\n"
            "def stamp():\n"
            "    now = time.time()\n"
            "    return now\n"
            "def test_now(now):\n"
            "    assert now > 0\n"
        )
        assert self.found(src) == []

    def test_telemetry_module_allowlisted(self):
        src = "import time\n\nlate = time.time() > 1.0\n"
        assert self.found(src, path="src/repro/fleet/clock.py") == []


class TestModuleRandomRule:
    RULE = "det-module-random"

    def test_global_rng_call_flagged(self):
        src = "import random\n\njitter = random.random()\n"
        found = live(findings_for(src, rule=self.RULE))
        assert [f.rule_id for f in found] == [self.RULE]

    def test_from_import_flagged(self):
        src = "from random import choice\n\npick = choice([1, 2])\n"
        assert len(live(findings_for(src, rule=self.RULE))) == 1

    def test_suppressed(self):
        src = (
            "import random\n"
            "# repro: allow[det-module-random]\n"
            "jitter = random.random()\n"
        )
        found = findings_for(src, rule=self.RULE)
        assert len(found) == 1 and found[0].suppressed

    def test_seeded_instance_not_flagged(self):
        src = (
            "import random\n\n"
            "rng = random.Random(42)\n"
            "value = rng.random()\n"
        )
        assert findings_for(src, rule=self.RULE) == []

    def test_out_of_scope_not_flagged(self):
        src = "import random\n\njitter = random.random()\n"
        found = findings_for(
            src, path="src/repro/analysis/fake.py", rule=self.RULE
        )
        assert found == []


class TestUnseededRandomRule:
    RULE = "det-unseeded-random"

    def test_unseeded_flagged(self):
        src = "import random\n\nrng = random.Random()\n"
        found = live(findings_for(src, rule=self.RULE))
        assert len(found) == 1
        assert "seed" in found[0].message

    def test_system_random_flagged(self):
        src = "import random\n\nrng = random.SystemRandom()\n"
        assert len(live(findings_for(src, rule=self.RULE))) == 1

    def test_seeded_not_flagged(self):
        src = "import random\n\nrng = random.Random(0xA77E57)\n"
        assert findings_for(src, rule=self.RULE) == []


class TestSetIterationRule:
    RULE = "det-set-iteration"

    def test_set_literal_iteration_flagged(self):
        src = (
            "def fire(sim, devices):\n"
            "    for name in {'a', 'b'}:\n"
            "        sim.schedule(0.0, print, name)\n"
        )
        found = live(findings_for(src, rule=self.RULE))
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_set_call_in_comprehension_flagged(self):
        src = "names = [n for n in set(['a', 'b'])]\n"
        assert len(live(findings_for(src, rule=self.RULE))) == 1

    def test_sorted_set_not_flagged(self):
        src = (
            "def fire(sim, pending):\n"
            "    for name in sorted(pending):\n"
            "        sim.schedule(0.0, print, name)\n"
        )
        assert findings_for(src, rule=self.RULE) == []


class TestMutableDefaultRule:
    RULE = "det-mutable-default"

    def test_list_default_flagged(self):
        src = "def record(events=[]):\n    return events\n"
        found = live(findings_for(src, rule=self.RULE))
        assert len(found) == 1
        assert "record" in found[0].message

    def test_dict_call_default_flagged(self):
        src = "def record(index=dict()):\n    return index\n"
        assert len(live(findings_for(src, rule=self.RULE))) == 1

    def test_none_default_not_flagged(self):
        src = (
            "def record(events=None):\n"
            "    return [] if events is None else events\n"
        )
        assert findings_for(src, rule=self.RULE) == []

    def test_tuple_default_not_flagged(self):
        src = "def record(events=()):\n    return events\n"
        assert findings_for(src, rule=self.RULE) == []


class TestDigestEqRule:
    RULE = "crypto-digest-eq"

    def test_digest_attribute_comparison_flagged(self):
        src = (
            "def verify(expected, record):\n"
            "    return expected == record.digest\n"
        )
        found = live(findings_for(src, rule=self.RULE))
        assert len(found) == 1
        assert "constant_time_equal" in found[0].hint

    def test_digest_call_comparison_flagged(self):
        src = (
            "def verify(mac, tag):\n"
            "    return mac.digest() != tag\n"
        )
        assert len(live(findings_for(src, rule=self.RULE))) == 1

    def test_suppressed(self):
        src = (
            "def audit(a, b):\n"
            "    return a.digest == b.digest  # repro: allow[crypto-digest-eq]\n"
        )
        found = findings_for(src, rule=self.RULE)
        assert len(found) == 1 and found[0].suppressed

    def test_metadata_names_not_flagged(self):
        src = (
            "def check(mac, algorithm):\n"
            "    ok = mac.digest_size == 32\n"
            "    named = algorithm == 'sha256'\n"
            "    return ok and named\n"
        )
        assert findings_for(src, rule=self.RULE) == []

    def test_empty_bytes_emptiness_test_not_flagged(self):
        src = (
            "def has_sig(report):\n"
            "    return report.signature != b''\n"
        )
        assert findings_for(src, rule=self.RULE) == []

    def test_constant_time_helper_not_flagged(self):
        src = (
            "def constant_time_equal(a, b):\n"
            "    if len(a) != len(b):\n"
            "        return False\n"
            "    acc = 0\n"
            "    for x, y in zip(a, b):\n"
            "        acc |= x ^ y\n"
            "    return acc == 0\n"
        )
        assert findings_for(src, rule=self.RULE) == []


class TestCryptoRandomRule:
    RULE = "crypto-random-module"

    def test_import_in_crypto_flagged(self):
        src = "import random\n"
        found = live(
            findings_for(src, path=CRYPTO_PATH, rule=self.RULE)
        )
        assert len(found) == 1
        assert "HmacDrbg" in found[0].hint

    def test_from_import_flagged(self):
        src = "from random import randint\n"
        assert len(
            live(findings_for(src, path=CRYPTO_PATH, rule=self.RULE))
        ) == 1

    def test_outside_crypto_not_flagged(self):
        src = "import random\n"
        assert findings_for(src, path=SIM_PATH, rule=self.RULE) == []


ATOMIC_BAD = """\
def run(self, proc):
    yield Atomic(True)
    self.policy.on_start()
    proc.sim.schedule(0.0, self.notify)
    yield Compute(0.5)
    yield Atomic(False)
"""

ATOMIC_BAD_YIELD = """\
def run(self, proc):
    yield Atomic(True)
    yield Compute(0.5)
    yield Sleep(1.0)
    yield Atomic(False)
"""

ATOMIC_GOOD = """\
def run(self, proc):
    yield Atomic(True)
    yield Compute(0.5)
    yield Atomic(False)
    proc.sim.schedule(0.0, self.notify)
"""


class TestAtomicGapRule:
    RULE = "ra-atomic-gap"

    def test_schedule_inside_window_flagged(self):
        found = live(
            findings_for(
                ATOMIC_BAD, path="src/repro/ra/fake.py", rule=self.RULE
            )
        )
        assert len(found) == 1
        assert "schedule()" in found[0].message

    def test_preemptible_yield_flagged(self):
        found = live(
            findings_for(
                ATOMIC_BAD_YIELD, path="src/repro/ra/fake.py",
                rule=self.RULE,
            )
        )
        assert len(found) == 1
        assert "cedes the CPU" in found[0].message

    def test_schedule_after_window_not_flagged(self):
        found = findings_for(
            ATOMIC_GOOD, path="src/repro/ra/fake.py", rule=self.RULE
        )
        assert found == []

    def test_non_atomic_function_not_flagged(self):
        src = (
            "def run(self, proc):\n"
            "    proc.sim.schedule(0.0, self.notify)\n"
            "    yield Compute(0.5)\n"
        )
        found = findings_for(
            src, path="src/repro/ra/fake.py", rule=self.RULE
        )
        assert found == []

    def test_nested_def_window_flagged(self):
        src = (
            "def arm(self):\n"
            "    def inner(proc):\n"
            "        yield Atomic(True)\n"
            "        proc.sim.schedule(0.0, self.notify)\n"
            "        yield Atomic(False)\n"
            "    return inner\n"
        )
        found = live(
            findings_for(src, path="src/repro/ra/fake.py", rule=self.RULE)
        )
        assert [(f.line, f.col) for f in found] == [(4, 9)]
        assert "atomic section of inner()" in found[0].message

    @pytest.mark.parametrize("src", [
        # a local whose every binding is a Compute(...) call
        "def run(self, proc):\n"
        "    step = Compute(0.5)\n"
        "    yield Atomic(True)\n"
        "    for _ in range(3):\n"
        "        yield step\n"
        "    yield Atomic(False)\n",
        "def run(self, proc):\n"
        "    step: Compute = Compute(0.5)\n"
        "    yield Atomic(True)\n"
        "    yield step\n"
        "    step = Compute(0.25)\n"
        "    yield step\n"
        "    yield Atomic(False)\n",
    ], ids=["bound-once", "rebound-to-compute"])
    def test_compute_bound_local_yield_not_flagged(self, src):
        found = findings_for(
            src, path="src/repro/ra/fake.py", rule=self.RULE
        )
        assert found == []

    @pytest.mark.parametrize("src, line", [
        ("def run(self, proc):\n"
         "    pause = Sleep(1.0)\n"
         "    yield Atomic(True)\n"
         "    yield pause\n"
         "    yield Atomic(False)\n", 4),
        ("def run(self, proc, wait):\n"
         "    step = Compute(0.5)\n"
         "    step = wait\n"
         "    yield Atomic(True)\n"
         "    yield step\n"
         "    yield Atomic(False)\n", 5),
        ("def run(self, proc):\n"
         "    step = Compute(0.5)\n"
         "    yield Atomic(True)\n"
         "    for step in self.commands:\n"
         "        yield step\n"
         "    yield Atomic(False)\n", 5),
        ("def run(self, proc, step):\n"
         "    yield Atomic(True)\n"
         "    yield step\n"
         "    yield Atomic(False)\n", 3),
        ("def run(self, proc, step=Compute(0.5)):\n"
         "    yield Atomic(True)\n"
         "    yield step\n"
         "    yield Atomic(False)\n", 3),
    ], ids=["bound-to-sleep", "rebound-to-other", "loop-target",
            "parameter", "parameter-with-compute-default"])
    def test_non_compute_local_yield_flagged(self, src, line):
        found = live(
            findings_for(src, path="src/repro/ra/fake.py", rule=self.RULE)
        )
        assert [f.line for f in found] == [line]
        assert "cedes the CPU" in found[0].message

    def test_method_preemptible_yield_flagged(self):
        src = (
            "class Measure:\n"
            "    def run(self, proc):\n"
            "        yield Atomic(True)\n"
            "        yield Sleep(1.0)\n"
            "        yield Atomic(False)\n"
        )
        found = live(
            findings_for(src, path="src/repro/ra/fake.py", rule=self.RULE)
        )
        assert [f.line for f in found] == [4]
        assert "cedes the CPU" in found[0].message


SPAN_LEAK_BAD = """\
def handle(self, request):
    span = self.obs.spans.begin_span("ra.round", category="ra")
    self.reply(request)
"""

SPAN_LEAK_SUPPRESSED = """\
def handle(self, request):
    span = self.obs.spans.begin_span("ra.round")  # repro: allow[obs-span-leak]
    self.reply(request)
"""

SPAN_LEAK_GOOD = """\
def handle(self, request):
    spans = self.obs.spans
    span = spans.begin_span("ra.round", category="ra")
    self.reply(request)
    spans.end_span(span, records=1)
    spans.add_span("net.rtt", request.sent_at, self.sim.now)
"""


class TestObsSpanLeakRule:
    RULE = "obs-span-leak"

    def test_unended_begin_flagged(self):
        found = live(
            findings_for(
                SPAN_LEAK_BAD, path="src/repro/ra/fake.py", rule=self.RULE
            )
        )
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING
        assert "leaks open" in found[0].message
        assert found[0].line == 2

    def test_suppressed_inline(self):
        found = findings_for(
            SPAN_LEAK_SUPPRESSED, path="src/repro/ra/fake.py",
            rule=self.RULE,
        )
        assert len(found) == 1 and found[0].suppressed

    def test_balanced_body_not_flagged(self):
        found = findings_for(
            SPAN_LEAK_GOOD, path="src/repro/ra/fake.py", rule=self.RULE
        )
        assert found == []

    def test_add_span_alone_not_flagged(self):
        src = (
            "def deliver(self, message):\n"
            "    self.obs.spans.add_span(\n"
            "        'net.delivery', message.sent_at, self.sim.now\n"
            "    )\n"
        )
        found = findings_for(
            src, path="src/repro/sim/fake.py", rule=self.RULE
        )
        assert found == []

    def test_surplus_end_flagged(self):
        src = (
            "def finish(self):\n"
            "    self.obs.spans.end_span(self._round_span)\n"
        )
        found = live(
            findings_for(src, path="src/repro/ra/fake.py", rule=self.RULE)
        )
        assert len(found) == 1
        assert "owned elsewhere" in found[0].message

    def test_nested_def_not_attributed_to_outer(self):
        # the closure runs in a later callback; its begin_span must not
        # be charged to the enclosing function's body
        src = (
            "def arm(self):\n"
            "    def fire():\n"
            "        span = self.obs.spans.begin_span('x')\n"
            "        self.obs.spans.end_span(span)\n"
            "    self.sim.schedule(1.0, fire)\n"
        )
        found = findings_for(
            src, path="src/repro/ra/fake.py", rule=self.RULE
        )
        assert found == []

    def test_nested_def_leak_flagged(self):
        src = (
            "def arm(self):\n"
            "    def fire():\n"
            "        span = self.obs.spans.begin_span('x')\n"
            "        self.reply(span)\n"
            "    self.sim.schedule(1.0, fire)\n"
        )
        found = live(
            findings_for(src, path="src/repro/ra/fake.py", rule=self.RULE)
        )
        assert [f.line for f in found] == [3]
        assert "leaks open" in found[0].message

    def test_loop_balanced_begin_end_not_flagged(self):
        src = (
            "def run(self):\n"
            "    for block in self.order:\n"
            "        span = self.obs.spans.begin_span('ra.block')\n"
            "        self.measure(block)\n"
            "        self.obs.spans.end_span(span)\n"
        )
        found = findings_for(
            src, path="src/repro/ra/fake.py", rule=self.RULE
        )
        assert found == []


class TestSuppressionSemantics:
    def test_standalone_comment_covers_next_line(self):
        allowed = suppressed_lines(
            [
                "# repro: allow[det-wall-clock]",
                "stamp = time.time()",
            ]
        )
        assert allowed == {2: {"det-wall-clock"}}

    def test_multiple_rules_and_wildcard(self):
        allowed = suppressed_lines(
            ["x = f()  # repro: allow[rule-a, rule-b]",
             "y = g()  # repro: allow[*]"]
        )
        assert allowed[1] == {"rule-a", "rule-b"}
        assert allowed[2] == {"*"}

    def test_wildcard_suppresses_any_rule(self):
        src = "import time\nstamp = time.time()  # repro: allow[*]\n"
        found = findings_for(src, rule="det-wall-clock")
        assert len(found) == 1 and found[0].suppressed

    def test_unrelated_rule_id_does_not_suppress(self):
        src = (
            "import time\n"
            "stamp = time.time()  # repro: allow[crypto-digest-eq]\n"
        )
        found = findings_for(src, rule="det-wall-clock")
        assert len(found) == 1 and not found[0].suppressed


class TestParseError:
    def test_syntax_error_is_reported_not_raised(self):
        found = analyze_source("def broken(:\n", path=SIM_PATH)
        assert [f.rule_id for f in found] == ["parse-error"]
        assert found[0].severity is Severity.ERROR


class TestFingerprint:
    SRC = "import time\n\nstamp = time.time()\n"

    def test_fingerprint_survives_line_moves(self):
        shifted = "import time\n\n\n\nstamp = time.time()\n"
        first = findings_for(self.SRC, rule="det-wall-clock")[0]
        second = findings_for(shifted, rule="det-wall-clock")[0]
        assert first.fingerprint() == second.fingerprint()
        assert first.line != second.line


class TestReportAndExitCodes:
    def test_clean_report_exits_zero(self, tmp_path):
        module = tmp_path / "repro" / "sim" / "clean.py"
        module.parent.mkdir(parents=True)
        module.write_text("VALUE = 1\n", encoding="utf-8")
        report = build_report([str(tmp_path)])
        assert report.exit_code == 0
        assert "0 error(s)" in report.render_text()

    def test_error_report_exits_one(self, tmp_path):
        module = tmp_path / "repro" / "sim" / "dirty.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "import time\nstamp = time.time()\n", encoding="utf-8"
        )
        report = build_report([str(tmp_path)])
        assert report.exit_code == 1
        text = report.render_text()
        assert "[det-wall-clock]" in text
        assert "dirty.py:2" in text
        assert "hint:" in text

    def test_warnings_only_fail_under_strict(self, tmp_path):
        module = tmp_path / "repro" / "sim" / "warny.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "def go(sim):\n"
            "    for name in {'a', 'b'}:\n"
            "        sim.schedule(0.0, print, name)\n",
            encoding="utf-8",
        )
        relaxed = build_report([str(tmp_path)])
        strict = build_report([str(tmp_path)], strict=True)
        assert relaxed.exit_code == 0
        assert strict.exit_code == 1

    def test_json_report_shape(self, tmp_path):
        module = tmp_path / "repro" / "sim" / "dirty.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "import time\nstamp = time.time()\n", encoding="utf-8"
        )
        report = build_report([str(tmp_path)])
        payload = json.loads(report.render_json())
        assert payload["exit_code"] == 1
        assert payload["counts"]["errors"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "det-wall-clock"
        assert finding["fingerprint"]


class TestCliIntegration:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_lint_dirty_file_fails_with_details(self, tmp_path, capsys):
        module = tmp_path / "repro" / "sim" / "dirty.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "import time\nstamp = time.time()\n", encoding="utf-8"
        )
        code, out = self.run_cli(
            ["lint", str(tmp_path)], capsys
        )
        assert code == 1
        assert "[det-wall-clock]" in out
        assert "dirty.py:2" in out
        assert "hint:" in out

    def test_lint_clean_file_passes(self, tmp_path, capsys):
        module = tmp_path / "module.py"
        module.write_text("VALUE = 1\n", encoding="utf-8")
        code, out = self.run_cli(
            ["lint", str(module)], capsys
        )
        assert code == 0
        assert "0 error(s)" in out

    def test_list_rules(self, capsys):
        code, out = self.run_cli(["lint", "--list-rules"], capsys)
        assert code == 0
        for rule in all_rules():
            assert rule.id in out

    def test_unknown_select_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        module = tmp_path / "module.py"
        module.write_text("VALUE = 1\n", encoding="utf-8")
        code = main(
            ["lint", str(module), "--select", "no-such-rule"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "no-such-rule" in captured.err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["lint", str(tmp_path / "absent")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no such path" in captured.err

    def test_select_subset(self, tmp_path, capsys):
        module = tmp_path / "repro" / "sim" / "dirty.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "import time\nstamp = time.time()\n", encoding="utf-8"
        )
        code, out = self.run_cli(
            ["lint", str(tmp_path), "--select", "det-mutable-default"],
            capsys,
        )
        assert code == 0

    def test_json_format(self, tmp_path, capsys):
        module = tmp_path / "module.py"
        module.write_text("VALUE = 1\n", encoding="utf-8")
        code, out = self.run_cli(
            ["lint", str(module), "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["counts"]["files"] == 1

    @pytest.mark.parametrize(
        "option",
        [
            ["--cache"],
            ["--baseline", "x"],
            ["--no-baseline"],
            ["--write-baseline"],
            ["--changed"],
        ],
        ids=lambda option: option[0],
    )
    def test_removed_option_is_usage_error(
        self, option, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        module = tmp_path / "module.py"
        module.write_text("VALUE = 1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(module)] + option)
        assert exc.value.code == 2
        assert option[0] in capsys.readouterr().err


VSERVER_PATH = "src/repro/vserver/fake_module.py"


class TestPerfUnboundedQueueRule:
    RULE = "perf-unbounded-queue"

    def test_deque_without_maxlen_flagged(self):
        src = (
            "from collections import deque\n"
            "class Srv:\n"
            "    def __init__(self):\n"
            "        self.inbox = deque()\n"
        )
        found = live(findings_for(src, path=VSERVER_PATH, rule=self.RULE))
        assert [f.rule_id for f in found] == [self.RULE]
        assert found[0].line == 4
        assert "maxlen" in found[0].message

    def test_deque_with_maxlen_not_flagged(self):
        src = (
            "from collections import deque\n"
            "class Srv:\n"
            "    def __init__(self, cap):\n"
            "        self.inbox = deque(maxlen=cap)\n"
        )
        assert not live(
            findings_for(src, path=VSERVER_PATH, rule=self.RULE)
        )

    def test_deque_maxlen_none_still_flagged(self):
        src = (
            "from collections import deque\n"
            "q = deque(maxlen=None)\n"
        )
        assert len(live(
            findings_for(src, path=VSERVER_PATH, rule=self.RULE)
        )) == 1

    def test_unbounded_self_append_flagged_in_fleet_scope(self):
        src = (
            "class Collector:\n"
            "    def on_result(self, result):\n"
            "        self.results.append(result)\n"
        )
        found = live(findings_for(src, path=FLEET_PATH, rule=self.RULE))
        assert len(found) == 1
        assert found[0].line == 3
        assert "self.results" in found[0].message

    def test_len_admission_check_not_flagged(self):
        src = (
            "class Srv:\n"
            "    def submit(self, item):\n"
            "        if len(self.queue) >= self.capacity:\n"
            "            return None\n"
            "        self.queue.append(item)\n"
        )
        assert not live(
            findings_for(src, path=VSERVER_PATH, rule=self.RULE)
        )

    def test_ring_trim_via_pop_not_flagged(self):
        src = (
            "class Prover:\n"
            "    def measure(self, record):\n"
            "        self.history.append(record)\n"
            "        if len(self.history) > self.size:\n"
            "            self.history.pop(0)\n"
        )
        assert not live(
            findings_for(src, path=VSERVER_PATH, rule=self.RULE)
        )

    def test_slice_trim_not_flagged(self):
        src = (
            "class Srv:\n"
            "    def push(self, item):\n"
            "        self.window.append(item)\n"
            "        self.window[:] = self.window[-8:]\n"
        )
        assert not live(
            findings_for(src, path=VSERVER_PATH, rule=self.RULE)
        )

    def test_bound_in_other_function_still_flagged(self):
        src = (
            "class Srv:\n"
            "    def on_msg(self, item):\n"
            "        self.log.append(item)\n"
            "    def trim(self):\n"
            "        self.log.pop(0)\n"
        )
        assert len(live(
            findings_for(src, path=VSERVER_PATH, rule=self.RULE)
        )) == 1

    def test_local_list_append_not_flagged(self):
        src = (
            "def drain(queue):\n"
            "    out = []\n"
            "    for item in queue:\n"
            "        out.append(item)\n"
            "    return out\n"
        )
        assert not live(
            findings_for(src, path=VSERVER_PATH, rule=self.RULE)
        )

    def test_out_of_scope_module_not_flagged(self):
        src = (
            "from collections import deque\n"
            "class Srv:\n"
            "    def on_msg(self, item):\n"
            "        self.log.append(item)\n"
        )
        assert findings_for(src, path=SIM_PATH, rule=self.RULE) == []

    def test_suppressed_inline(self):
        src = (
            "class Srv:\n"
            "    def conclude(self, entry):\n"
            "        self.ledger.append(entry)"
            "  # repro: allow[perf-unbounded-queue]\n"
        )
        findings = findings_for(src, path=VSERVER_PATH, rule=self.RULE)
        assert len(findings) == 1 and findings[0].suppressed
        assert not live(findings)


class TestRegistry:
    def test_catalogue_covers_five_families(self):
        families = {rule.family for rule in all_rules()}
        assert families == {
            "determinism", "crypto", "atomicity", "observability",
            "performance",
        }

    def test_every_rule_has_rationale_and_hint(self):
        for rule in all_rules():
            assert rule.rationale, rule.id
            assert rule.hint, rule.id
            assert rule.summary, rule.id

    def test_unknown_select_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            build_report(
                [], config=LintConfig(select=("no-such-rule",))
            )


CTX_DROP_BAD = (
    "def _on_message(self, message):\n"
    "    self.device.nic.send(\n"
    "        self.parent, 'lisa_report', message.payload\n"
    "    )\n"
)

CTX_DROP_SUPPRESSED = (
    "def _on_message(self, message):\n"
    "    # the probe reply starts no exchange of its own\n"
    "    self.endpoint.send(  # repro: allow[obs-ctx-drop] -- untraced\n"
    "        message.src, 'probe_ack', {}\n"
    "    )\n"
)

CTX_DROP_GOOD = (
    "def _on_message(self, message):\n"
    "    self.device.nic.send(\n"
    "        self.parent, 'lisa_report', message.payload,\n"
    "        ctx=message.ctx,\n"
    "    )\n"
)


class TestObsCtxDropRule:
    RULE = "obs-ctx-drop"

    def test_forward_without_ctx_flagged(self):
        found = live(
            findings_for(
                CTX_DROP_BAD, path="src/repro/swarm/fake.py",
                rule=self.RULE,
            )
        )
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING
        assert "TraceContext is dropped" in found[0].message

    def test_suppressed_inline(self):
        found = findings_for(
            CTX_DROP_SUPPRESSED, path="src/repro/swarm/fake.py",
            rule=self.RULE,
        )
        assert len(found) == 1 and found[0].suppressed

    def test_ctx_keyword_not_flagged(self):
        found = findings_for(
            CTX_DROP_GOOD, path="src/repro/swarm/fake.py", rule=self.RULE
        )
        assert found == []

    def test_positional_ctx_not_flagged(self):
        src = (
            "def _on_message(self, msg):\n"
            "    self.endpoint.send(msg.src, 'ack', {}, msg.ctx)\n"
        )
        found = findings_for(
            src, path="src/repro/swarm/fake.py", rule=self.RULE
        )
        assert found == []

    def test_send_report_helper_covered(self):
        src = (
            "def _on_request(self, message):\n"
            "    send_report(self.endpoint, message.src, report)\n"
        )
        found = live(
            findings_for(src, path="src/repro/ra/fake.py", rule=self.RULE)
        )
        assert len(found) == 1 and "send_report" in found[0].message

    def test_non_handler_sends_ignored(self):
        # minting sites (no message/msg param) start fresh exchanges;
        # the rule only polices handlers that *received* a context
        src = (
            "def attest(self):\n"
            "    self.endpoint.send(self.root, 'swarm_attest', {})\n"
        )
        found = findings_for(
            src, path="src/repro/swarm/fake.py", rule=self.RULE
        )
        assert found == []
