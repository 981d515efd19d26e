"""Engine event counters read at sample time.

``sim.events.{scheduled,fired,cancelled}`` are :class:`ReadCounter`
instruments: the engine keeps plain ints and the registry reads them
when sampled.  This file pins

* the read-time counter kind itself (summing over sources, ``inc``
  refusal, the ``updated_at`` contract, the null registry);
* exporter agreement on one canned ``faults`` run;
* a generated differential over random engine programs: firing order
  is identical with no observability, with metrics and under the
  profiler, and the metrics-on counts equal a tally kept by the test.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.fleet import execute_run
from repro.fleet.campaign import canned_campaign
from repro.obs.core import NULL_OBS, Observability
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    ReadCounter,
    prom_name,
    to_prometheus_text,
)
from repro.sim.engine import Simulator

from tests.conftest import pending_count

ENGINE_COUNTERS = (
    "sim.events.scheduled", "sim.events.fired", "sim.events.cancelled",
)


def metrics_obs():
    return Observability(metrics=MetricsRegistry())


class TestReadCounter:
    def test_value_sums_sources(self):
        reg = MetricsRegistry()
        counts = {"a": 2, "b": 5}
        first = reg.read_counter("c", lambda: counts["a"], "help")
        second = reg.read_counter("c", lambda: counts["b"])
        assert first is second
        assert isinstance(first, ReadCounter)
        assert first.kind == "counter"
        assert reg.snapshot_flat() == {"c": 7.0}
        counts["a"] = 10
        assert reg.snapshot_flat() == {"c": 15.0}
        assert reg.help_for("c") == "help"

    def test_two_simulators_on_one_bundle_sum(self):
        obs = metrics_obs()
        first, second = Simulator(obs=obs), Simulator(obs=obs)
        for index in range(3):
            first.schedule(float(index), lambda: None)
        doomed = [second.schedule(1.0, lambda: None) for _ in range(2)]
        doomed[0].cancel()
        first.run()
        second.run()
        flat = obs.metrics.snapshot_flat()
        assert flat["sim.events.scheduled"] == 5.0
        assert flat["sim.events.fired"] == 4.0
        assert flat["sim.events.cancelled"] == 1.0

    def test_inc_raises(self):
        obs = metrics_obs()
        Simulator(obs=obs)
        fired = obs.metrics.read_counter("sim.events.fired", lambda: 0)
        with pytest.raises(ConfigurationError, match="read from"):
            fired.inc()

    def test_kind_clash_with_stored_counter(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.read_counter("c", lambda: 1)

    def test_updated_at_is_registry_clock_at_sample_time(self):
        obs = metrics_obs()
        sim = Simulator(obs=obs)
        stored = obs.metrics.counter("probe")
        sim.schedule(2.5, stored.inc)
        sim.schedule(4.0, lambda: None)
        sim.run(until=7.5)
        snap = obs.metrics.snapshot()
        # a stored counter keeps the time of its last increment; a
        # read-time counter reports the clock when it is sampled
        assert snap["probe"]["updated_at"] == 2.5
        for name in ENGINE_COUNTERS:
            assert snap[name]["updated_at"] == 7.5
        sim.run(until=9.0)
        assert obs.metrics.snapshot()["sim.events.fired"] == {
            "kind": "counter", "labels": {},
            "value": 2.0, "updated_at": 9.0,
        }

    @pytest.mark.parametrize("profiled", [False, True])
    def test_run_until_discards_cancelled_heads(self, profiled):
        """Both loops discard (and count) a cancelled head before they
        test the ``until`` bound, as the instrumented loop always has."""
        obs = Observability.enabled(spans=False, profile_events=profiled)
        sim = Simulator(obs=obs)
        sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None).cancel()
        sim.schedule(6.0, lambda: None)
        assert sim.run(until=2.0) == 2.0
        flat = obs.metrics.snapshot_flat()
        assert flat["sim.events.fired"] == 1.0
        assert flat["sim.events.cancelled"] == 1.0

    def test_null_registry_hands_out_no_op(self):
        counter = NULL_REGISTRY.read_counter("c", lambda: 3)
        counter.inc()  # the shared no-op accepts and ignores it
        assert counter.value == 0.0
        assert NULL_REGISTRY.snapshot_flat() == {}


class TestExporterAgreement:
    def test_faults_run_engine_counters_agree(self, tmp_path):
        spec = canned_campaign("faults").plan()[0]
        obs = metrics_obs()
        result = execute_run(spec, obs=obs)
        flat = obs.metrics.snapshot_flat()
        assert flat["sim.events.fired"] > 0
        out = tmp_path / "metrics.jsonl"
        obs.metrics.to_jsonl(out)
        rows = {
            row["metric"]: row
            for row in map(json.loads, out.read_text().splitlines())
        }
        prom = dict(
            line.rsplit(" ", 1)
            for line in to_prometheus_text(obs.metrics).splitlines()
            if not line.startswith("#")
        )
        for name in ENGINE_COUNTERS:
            assert rows[name]["kind"] == "counter"
            assert rows[name]["value"] == flat[name]
            assert float(prom[prom_name(name)]) == flat[name]
            assert result.telemetry[name] == flat[name]
        assert f"# TYPE {prom_name(ENGINE_COUNTERS[1])} counter" in \
            to_prometheus_text(obs.metrics)


# -- generated engine differential ---------------------------------------------

#: binary fractions, so ``now + delay`` and repeated ``now += delay``
#: round identically; few of them, so ties and exact ``until`` hits
#: are common
DELAYS = (0.0, 0.5, 1.0)
#: cap on events per program, so spawning scripts stay bounded
MAX_EVENTS = 60

ACTION = st.one_of(
    st.tuples(st.just("sched"), st.sampled_from(DELAYS), st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("stop")),
)
#: a callback's actions, optionally ending in a compute step (a
#: completion that may be coalesced, exactly as a process does it)
SCRIPT = st.tuples(
    st.lists(ACTION, max_size=3),
    st.one_of(st.none(), st.sampled_from(DELAYS)),
)
TOP = st.one_of(
    st.tuples(st.just("sched"), st.sampled_from(DELAYS), st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), st.sampled_from(DELAYS[1:])),
    st.tuples(st.just("run")),
)


class EngineProgram:
    """Runs one drawn program on one engine, logging the logical event
    order and (with metrics) checking the counters against a tally."""

    def __init__(self, obs, scripts):
        self.obs = obs
        self.sim = Simulator(obs=obs)
        self.scripts = scripts
        self.log = []
        self.handles = []  # explicit schedules only: cancel targets
        self.started = set()
        self.next_id = 0
        self.scheduled = 0  # schedules plus coalesced steps
        self.fired = 0  # callbacks returned plus coalesced steps
        self.cancelled = set()  # cancelled before they started
        self.coalesced = 0

    def new_id(self):
        if self.next_id >= MAX_EVENTS:
            return None
        self.next_id += 1
        return self.next_id - 1

    def schedule(self, delay, absolute):
        eid = self.new_id()
        if eid is None:
            return
        if absolute:
            handle = self.sim.schedule_at(self.sim.now + delay, self.fire, eid)
        else:
            handle = self.sim.schedule(delay, self.fire, eid)
        self.scheduled += 1
        self.handles.append((eid, handle))

    def cancel(self, index):
        if not self.handles:
            return
        eid, handle = self.handles[index % len(self.handles)]
        handle.cancel()
        if eid not in self.started:
            self.cancelled.add(eid)

    def fire(self, eid):
        self.body(eid)
        self.fired += 1  # the engine counts it right after we return

    def body(self, eid):
        self.started.add(eid)
        self.log.append((eid, self.sim.now))
        self.check_counts(in_flight=1)
        actions, compute = self.scripts[eid % len(self.scripts)]
        for action in actions:
            if action[0] == "sched":
                self.schedule(action[1], action[2])
            elif action[0] == "cancel":
                self.cancel(action[1])
            else:
                self.log.append(("stop", eid))
                self.sim.stop()
        if compute is None:
            return
        cont = self.new_id()
        if cont is None:
            return
        if self.sim.try_coalesce(compute):
            self.scheduled += 1
            self.fired += 1
            self.coalesced += 1
            self.body(cont)
        else:
            self.sim.schedule(compute, self.fire, cont)
            self.scheduled += 1

    def check_counts(self, in_flight):
        if not self.obs.metrics.enabled:
            return
        flat = self.obs.metrics.snapshot_flat()
        assert flat["sim.events.scheduled"] == self.scheduled
        assert flat["sim.events.fired"] == self.fired
        # every schedule is fired, live in the queue, cancelled
        # (discarded or not yet), or the callback now running
        assert self.scheduled == (
            self.fired + pending_count(self.sim) + len(self.cancelled)
            + in_flight
        )
        assert 0 <= flat["sim.events.cancelled"] <= len(self.cancelled)

    def execute(self, program):
        for op in program:
            if op[0] == "sched":
                self.schedule(op[1], op[2])
            elif op[0] == "cancel":
                self.cancel(op[1])
            elif op[0] == "step":
                self.log.append(("step", self.sim.step()))
            elif op[0] == "run_until":
                self.log.append(("until", self.sim.run(self.sim.now + op[1])))
            else:
                self.log.append(("run", self.sim.run()))
            self.check_counts(in_flight=0)
        while pending_count(self.sim):  # a callback may stop run()
            self.log.append(("drain", self.sim.run()))
        self.sim.run()  # only cancelled entries remain: discard them
        self.check_counts(in_flight=0)
        if self.obs.metrics.enabled:
            flat = self.obs.metrics.snapshot_flat()
            assert flat["sim.events.cancelled"] == len(self.cancelled)
        return self.log


ENGINES = {
    "null": lambda: NULL_OBS,
    "metrics": metrics_obs,
    "profiler": lambda: Observability.enabled(
        spans=False, metrics=False, profile_events=True
    ),
}


class TestGeneratedEngineDifferential:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        scripts=st.lists(SCRIPT, min_size=1, max_size=8),
        program=st.lists(TOP, min_size=1, max_size=12),
    )
    def test_order_identical_and_counts_exact(self, scripts, program):
        logs = {
            name: EngineProgram(make(), scripts).execute(program)
            for name, make in ENGINES.items()
        }
        assert logs["metrics"] == logs["null"]
        assert logs["profiler"] == logs["null"]

    def test_programs_exercise_every_path(self):
        """A fixed program that coalesces, cancels, stops and steps."""
        scripts = [
            ([("sched", 1.0, False)], 0.5),
            ([("cancel", 0), ("stop",)], None),
            ([("sched", 2.0, True), ("cancel", 1)], None),
        ]
        program = [
            ("sched", 0.0, False), ("run_until", 2.0), ("step",),
            ("cancel", 2), ("run",),
        ]
        runs = {
            name: EngineProgram(make(), scripts) for name, make in
            ENGINES.items()
        }
        logs = {name: run.execute(program) for name, run in runs.items()}
        assert logs["metrics"] == logs["null"] == logs["profiler"]
        assert runs["metrics"].coalesced > 0
        assert runs["profiler"].coalesced == 0
        assert runs["metrics"].cancelled
        kinds = {entry[0] for entry in logs["null"]}
        assert {"until", "step", "stop", "run"} <= kinds
