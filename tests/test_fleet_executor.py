"""Per-run execution and every failure path, alone and through the
pipeline's serial and process-pool backends."""

import dataclasses
import gc
import os
import signal
import time

import pytest

from repro.fleet import (
    CampaignSpec,
    PipelineConfig,
    ProcessPoolBackend,
    RunResult,
    RunSpec,
    SerialBackend,
    execute_run,
    read_results_jsonl,
    run_one,
    run_pipeline,
)
from repro.core.tradeoff import ScenarioConfig
from repro.fleet.campaign import canned_campaign
from repro.fleet.executor import SHARED_FIELDS, UNSHARED_FIELDS
from repro.scenario import Scenario
from repro.units import MiB

#: captured at import so forked pool workers see a different pid
_MAIN_PID = os.getpid()


def fast_spec(**overrides) -> RunSpec:
    fields = dict(
        mechanism="smart",
        adversary="none",
        block_count=8,
        sim_block_size=MiB,
        horizon=10.0,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def parity_specs():
    """A small mixed plan exercising every executor-relevant shape."""
    specs = []
    for mechanism, adversary in [
        ("smart", "none"),
        ("smart", "transient"),
        ("erasmus", "transient"),
        ("seed", "none"),
        ("inc-lock", "none"),
        ("no-lock", "transient"),
    ]:
        specs.append(
            fast_spec(
                mechanism=mechanism,
                adversary=adversary,
                dwell=4.0 if adversary == "transient" else 0.0,
                horizon=20.0,
            )
        )
    return specs


def run_campaign(specs, out_dir, backend=None, runner=execute_run,
                 **config):
    """``specs`` through :func:`run_pipeline` as one ad-hoc campaign."""
    return run_pipeline(
        CampaignSpec(name="executor-test"), specs,
        out_dir=out_dir, backend=backend, runner=runner,
        config=PipelineConfig(**config),
    )


def die_in_pool_worker(spec: RunSpec):
    """Kills the hosting process -- but only inside a pool worker, so
    the degraded in-process rerun (same runner) survives."""
    if os.getpid() != _MAIN_PID:
        os._exit(1)
    return execute_run(spec)


class InjectedFailure(RuntimeError):
    """Raised by the failing runners below."""


def crash(*args, **kwargs):
    """A runner (or a ``Scenario.build``) that always raises."""
    raise InjectedFailure("injected failure")


def sleep_for_horizon(spec: RunSpec):
    """Burns *wall-clock* time equal to the simulated horizon; only a
    shorter timeout ends it."""
    time.sleep(spec.horizon)
    return RunResult(run_id=spec.run_id, spec=spec.to_dict(),
                     sim_time=spec.horizon)


#: the run seed ``crash_one_seed`` fails on
CRASH_SEED = 99


def crash_one_seed(spec: RunSpec):
    """Raises for the run seeded ``CRASH_SEED``; runs every other."""
    if spec.seed == CRASH_SEED:
        crash()
    return execute_run(spec)


class TestSingleRun:
    def test_healthy_run(self):
        result = run_one(fast_spec())
        assert result.ok
        assert result.verdict_counts == {"healthy": 1}
        assert result.measurements == 1
        assert result.availability is not None
        assert result.availability["jobs_released"] > 0
        assert result.trace_events > 0
        assert result.hash_ops == 8
        assert result.hash_bytes == 8 * MiB
        assert result.sim_time == pytest.approx(10.0)
        assert result.wall_clock > 0

    def test_transient_detection_with_latency(self):
        result = run_one(
            fast_spec(
                mechanism="erasmus", adversary="transient",
                dwell=6.0, horizon=24.0, t_m=2.0, t_c=8.0,
            )
        )
        assert result.ok
        assert result.detected
        assert result.detection_latency > 0
        assert result.qoa["detection_probability"] == 1.0

    def test_workload_none_has_no_availability(self):
        result = run_one(fast_spec(workload="none"))
        assert result.ok
        assert result.availability is None

    def test_writer_workload_availability(self):
        result = run_one(
            fast_spec(
                mechanism="all-lock", workload="writers",
                block_count=16, writer_tasks=2,
            )
        )
        assert result.ok
        assert len(result.availability["per_task"]) == 2

    def test_trace_ring_buffer_bounds_memory(self):
        result = run_one(fast_spec(trace_limit=50, horizon=20.0))
        assert result.ok
        assert result.trace_events == 50
        assert result.trace_dropped > 0


#: a value for every shared field that differs from both the
#: ``RunSpec`` and the ``ScenarioConfig`` default
NON_DEFAULT = {
    "block_count": 12, "block_size": 64, "sim_block_size": 3 * MiB,
    "algorithm": "sha256", "request_at": 1.5, "horizon": 22.0,
    "rounds": 3, "t_m": 3.0, "t_c": 9.0, "task_period": 0.2,
    "task_wcet": 0.003, "task_priority": 90, "mp_priority": 40,
    "malware_block": 3, "infect_at": 1.25, "dwell": 2.0,
    "writer_tasks": 3, "probe_count": 2,
}


class Captured(Exception):
    """Raised in place of building the scenario, once its config is
    captured."""


def built_config(spec, monkeypatch):
    """The ``ScenarioConfig`` that ``execute_run(spec)`` builds."""
    seen = []

    def capture(*args, config, **kwargs):
        seen.append(config)
        raise Captured

    monkeypatch.setattr(Scenario, "build", capture)
    with pytest.raises(Captured):
        execute_run(spec)
    (config,) = seen
    return config


class TestOneMapping:
    """A ``RunSpec`` reaches its ``ScenarioConfig`` by field name."""

    def test_every_scenario_config_field_is_placed(self):
        # a new ScenarioConfig field is a RunSpec field of the same
        # name or listed in UNSHARED_FIELDS, never silently neither
        config_fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        spec_fields = {f.name for f in dataclasses.fields(RunSpec)}
        assert set(SHARED_FIELDS) == config_fields & spec_fields
        assert set(UNSHARED_FIELDS) == config_fields - spec_fields
        assert len(set(UNSHARED_FIELDS)) == len(UNSHARED_FIELDS)
        assert set(NON_DEFAULT) == set(SHARED_FIELDS)

    @pytest.mark.parametrize("name", SHARED_FIELDS)
    def test_shared_field_reaches_the_scenario_config(
        self, name, monkeypatch
    ):
        value = NON_DEFAULT[name]
        assert value != getattr(RunSpec(), name)
        assert value != getattr(ScenarioConfig(), name)
        config = built_config(fast_spec(**{name: value}), monkeypatch)
        assert getattr(config, name) == value

    def test_derived_fields(self, monkeypatch):
        spec = fast_spec(seed=11, infect_at=1.0, infect_jitter=2.0)
        config = built_config(spec, monkeypatch)
        assert config.relocation_seed == 11
        assert 1.0 < config.infect_at < 3.0
        assert len(config.seed_shared) == 16
        other = built_config(spec.with_overrides(seed=12), monkeypatch)
        assert other.seed_shared != config.seed_shared
        default = ScenarioConfig()
        for name in UNSHARED_FIELDS:
            if name not in ("relocation_seed", "seed_shared"):
                assert getattr(config, name) == getattr(default, name)

    def test_no_probes_leave_no_probe_key(self):
        spec = fast_spec()
        assert "probe_count" not in spec.to_dict()
        assert spec.run_id == fast_spec(probe_count=0).run_id
        result = execute_run(spec)
        assert result.probes == {}
        assert "probe" not in result.to_json_line()

    def test_probes_ride_in_the_result(self):
        # atomic SMART holds the CPU through most probes; no-lock lets
        # every write commit at once
        atomic = execute_run(fast_spec(probe_count=4))
        unlocked = execute_run(fast_spec(mechanism="no-lock", probe_count=4))
        assert atomic.probes["attempted"] == 4
        assert atomic.probes["succeeded"] < 4
        assert unlocked.probes == {"attempted": 4, "succeeded": 4}
        line = RunResult.from_json_line(atomic.to_json_line())
        assert line.probes == atomic.probes
        assert line.spec["probe_count"] == 4


class TestFailurePaths:
    def test_worker_raising_becomes_error_result(self):
        result = run_one(fast_spec(), retries=0, runner=crash)
        assert result.status == "error"
        assert "InjectedFailure" in result.error
        assert result.attempts == 1

    def test_retry_then_give_up(self):
        result = run_one(fast_spec(), retries=2, runner=crash)
        assert result.status == "error"
        assert result.attempts == 3  # 1 try + 2 retries

    def test_retry_then_success(self):
        failures = {"left": 2}

        def flaky(spec: RunSpec):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("transient worker failure")
            return execute_run(spec)

        result = run_one(fast_spec(), retries=2, runner=flaky)
        assert result.ok
        assert result.attempts == 3
        assert result.verdict_counts == {"healthy": 1}

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_per_run_timeout(self):
        result = run_one(
            fast_spec(horizon=30.0, timeout=0.2), runner=sleep_for_horizon
        )
        assert result.status == "timeout"
        assert "0.2" in result.error
        # the 30 s sleep was cut: its result was never returned
        assert result.sim_time == 0.0

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_timeout_not_retried(self):
        result = run_one(
            fast_spec(horizon=30.0, timeout=0.2),
            retries=3,
            runner=sleep_for_horizon,
        )
        assert result.status == "timeout"
        assert result.attempts == 1

    def test_deadline_degrades_off_main_thread(self):
        # backends may run shards from worker threads, where SIGALRM
        # cannot be armed; the run must complete without a budget
        # instead of crashing
        import threading

        holder = {}

        def worker():
            holder["result"] = run_one(fast_spec(timeout=30.0))

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert holder["result"].ok

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_deadline_degrades_when_handler_refused(self, monkeypatch):
        # embedded interpreters can refuse signal handlers even on the
        # main thread; the deadline must degrade to a no-op
        def refuse(signum, handler):
            raise ValueError("signal only works in main thread")

        monkeypatch.setattr(signal, "signal", refuse)
        result = run_one(fast_spec(timeout=30.0))
        assert result.ok

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_deadline_degrades_when_timer_refused(self, monkeypatch):
        def refuse(which, seconds):
            raise OSError("no interval timers here")

        monkeypatch.setattr(signal, "setitimer", refuse)
        result = run_one(fast_spec(timeout=30.0))
        assert result.ok

    def test_campaign_isolates_bad_runs(self, tmp_path):
        specs = [
            fast_spec(),
            fast_spec(seed=CRASH_SEED),
            fast_spec(seed=8),
        ]
        report = run_campaign(
            specs, tmp_path, runner=crash_one_seed, retries=0
        )
        assert report.status_counts == {"ok": 2, "error": 1}
        results = read_results_jsonl(report.paths.runs)
        assert sorted(r.run_id for r in results) == sorted(
            s.run_id for s in specs
        )
        assert [r.status for r in results].count("error") == 1


class TestParallel:
    def test_serial_parallel_parity_byte_identical(self, tmp_path):
        specs = parity_specs()
        serial = run_campaign(
            specs, tmp_path / "serial", SerialBackend(), shard_size=2
        )
        parallel = run_campaign(
            specs, tmp_path / "pool", ProcessPoolBackend(workers=2),
            shard_size=2,
        )
        assert serial.mode == "serial"
        assert parallel.mode == "parallel"
        for name in ("runs", "summary_json"):
            assert getattr(parallel.paths, name).read_bytes() == getattr(
                serial.paths, name
            ).read_bytes()

    def test_worker_crash_degrades_shard_in_process(self, tmp_path):
        specs = [fast_spec(seed=i) for i in range(4)]
        report = run_campaign(
            specs, tmp_path, ProcessPoolBackend(workers=2),
            runner=die_in_pool_worker, shard_size=2,
        )
        assert report.mode == "parallel"
        assert report.degraded_shards >= 1
        assert report.status_counts == {"ok": 4}
        assert sorted(
            r.run_id for r in read_results_jsonl(report.paths.runs)
        ) == sorted(s.run_id for s in specs)


def qoa_spec() -> RunSpec:
    """The first run of the canned ``qoa`` campaign (cyclic scenario
    graph, thousands of trace/write/job records)."""
    return canned_campaign("qoa").plan()[0]


def collections_during(call):
    """``call()``'s value and the generation of every collection that
    started while it ran, counted from an empty young generation."""
    seen = []

    def on_collect(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.collect()
    gc.callbacks.append(on_collect)
    try:
        return call(), seen
    finally:
        gc.callbacks.remove(on_collect)


class TestRunGeneration:
    """``execute_run`` treats one run as one young generation: no
    automatic collection while it runs, one ``collect(0)`` on the way
    out, and the collector's state restored on every exit path."""

    def test_ok_run_is_one_young_collection(self):
        spec = qoa_spec()
        result, seen = collections_during(lambda: execute_run(spec))
        assert result.ok
        assert seen == [0]
        assert gc.isenabled()

    def test_enabled_after_raise(self, monkeypatch):
        spec = fast_spec()
        monkeypatch.setattr(Scenario, "build", crash)

        def raising_run():
            with pytest.raises(InjectedFailure):
                execute_run(spec)

        _, seen = collections_during(raising_run)
        assert seen == [0]
        assert gc.isenabled()

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_enabled_after_timeout(self, monkeypatch):
        # the sleep runs inside execute_run, with the collector off
        monkeypatch.setattr(
            Scenario, "build", lambda *args, **kwargs: time.sleep(30.0)
        )
        result = run_one(fast_spec(horizon=30.0, timeout=0.2))
        assert result.status == "timeout"
        assert gc.isenabled()

    def test_caller_disabled_gc_is_left_alone(self):
        spec = qoa_spec()
        gc.disable()
        try:
            result, seen = collections_during(lambda: execute_run(spec))
            assert result.ok
            assert seen == []
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_run_leaves_no_cyclic_garbage(self):
        spec = qoa_spec()
        execute_run(spec)  # warm process-wide caches
        gc.collect()
        assert execute_run(spec).ok
        assert gc.collect() == 0

    def test_tracked_objects_flat_in_run_count(self):
        spec = qoa_spec()
        execute_run(spec)  # warm process-wide caches
        gc.collect()
        baseline = len(gc.get_objects())
        counts = []
        for _ in range(10):
            execute_run(spec)
            counts.append(len(gc.get_objects()) - baseline)
        # each run's graph is gone once it returns: no growth from the
        # first run to the tenth beyond a small fixed slack
        assert max(counts) <= 64, counts
        assert counts[-1] - counts[0] <= 16, counts
