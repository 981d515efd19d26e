"""Sharded campaign execution.

The executor turns a planned list of :class:`~repro.fleet.campaign.RunSpec`
into :class:`~repro.fleet.telemetry.RunResult` records.  Runs share
nothing: each worker builds its own :class:`~repro.sim.engine.Simulator`,
:class:`~repro.sim.device.Device` and :class:`~repro.ra.verifier.Verifier`
from the spec, so shards can execute in any process in any order and
still produce byte-identical deterministic telemetry.

This module is the per-run layer: :func:`execute_run` builds and runs
one scenario, and :func:`run_one` wraps it in failure containment.
Where shards run (in-process or a process pool) is the job of
:mod:`repro.fleet.backends`; the campaign driver is
:func:`repro.fleet.pipeline.run_pipeline`.

Failure containment, per run: a wall-clock timeout (``RunSpec.timeout``,
enforced with ``SIGALRM`` where available), bounded retries for raising
runs, and structured ``error``/``timeout`` results instead of
exceptions -- one bad run never takes down a campaign.
"""

from __future__ import annotations

import gc
import hashlib
import os
import signal
import threading
import traceback
from contextlib import contextmanager
from dataclasses import fields
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.qoa import QoAParameters
from repro.core.tradeoff import ScenarioConfig
from repro.crypto.drbg import HmacDrbg
from repro.crypto.timing import OdroidXU4Model
from repro.fleet.campaign import RunSpec
from repro.fleet.clock import perf_time
from repro.fleet.telemetry import (
    STATUS_ERROR,
    STATUS_TIMEOUT,
    ExchangeSketch,
    RunResult,
    failure_result,
    verdict_histogram,
)
from repro.obs.core import Observability
from repro.obs.metrics import MetricsRegistry
from repro.resilience.retry import RetryPolicy
from repro.scenario import MECHANISMS, Scenario, first_detection
from repro.sim.trace import CountingTrace


class FleetTimeout(Exception):
    """A run exceeded its wall-clock budget."""


# ---------------------------------------------------------------------------
# The worker: one RunSpec -> one simulated scenario -> one RunResult
# ---------------------------------------------------------------------------


#: the ``ScenarioConfig`` fields a ``RunSpec`` field of the same name
#: sets, in ``ScenarioConfig`` order
SHARED_FIELDS = tuple(
    f.name for f in fields(ScenarioConfig)
    if f.name in {g.name for g in fields(RunSpec)}
)

#: every other ``ScenarioConfig`` field: ``relocation_seed`` (the run's
#: seed) and ``seed_shared`` (a per-run SeED secret) are derived per
#: run, the rest keep their ``ScenarioConfig`` defaults.  A new
#: ``ScenarioConfig`` field goes here or onto ``RunSpec``.
UNSHARED_FIELDS = (
    "relocation_strategy", "relocation_seed", "alarm_writes", "seed_shared",
    "seed_min_gap", "seed_max_gap", "seed_triggers", "seed_serve_fetch",
    "seed_catch_up",
)


def _scenario_config(spec: RunSpec) -> ScenarioConfig:
    config = ScenarioConfig(
        **{name: getattr(spec, name) for name in SHARED_FIELDS}
    )
    config.infect_at = _effective_infect_at(spec)
    config.relocation_seed = spec.seed
    config.seed_shared = hashlib.sha256(
        f"fleet-seed-{spec.campaign}-{spec.seed}".encode()
    ).digest()[:16]
    return config


def _effective_seed(spec: RunSpec) -> int:
    """Scenario seed, with the firmware version folded in.

    Two firmware versions of the same cohort must measure *different*
    device images under the same nominal seed -- that is what makes a
    heterogeneous campaign's per-cohort telemetry diverge the way real
    mixed-firmware fleets do.  Stable across processes and machines
    (pure SHA-256, no process salt)."""
    if not spec.firmware:
        return spec.seed
    digest = hashlib.sha256(
        f"{spec.seed}-{spec.firmware}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big")


def _effective_infect_at(spec: RunSpec) -> float:
    """Infection time, with the seed-derived phase offset applied."""
    if spec.infect_jitter <= 0:
        return spec.infect_at
    drbg = HmacDrbg(
        f"{spec.campaign}-{spec.seed}-infect-phase".encode("utf-8")
    )
    return spec.infect_at + drbg.uniform() * spec.infect_jitter


def _retry_policy(spec: RunSpec, rounds: int) -> RetryPolicy:
    """Retransmission budget for fault-injected runs, sized from the
    device's timing model: the per-exchange timeout must cover a
    request's ``rounds`` measurement passes (plus channel latency),
    else every exchange would "time out" while the prover is still
    hashing."""
    measure = (
        OdroidXU4Model().hash_time(spec.algorithm, spec.sim_block_size)
        * spec.block_count
        * max(1, rounds)
    )
    timeout = max(0.5, 2.0 * measure)
    return RetryPolicy(
        timeout=timeout,
        max_retries=6,
        backoff=1.5,
        max_timeout=max(4.0, 2.0 * timeout),
        jitter=0.1,
        seed=f"fleet-retry-{spec.campaign}-{spec.seed}".encode(),
    )


def _qoa_stats(spec: RunSpec) -> Dict[str, float]:
    if MECHANISMS[spec.mechanism].kind == "on-demand":
        return {}
    params = QoAParameters(t_m=spec.t_m, t_c=spec.t_c)
    stats = {
        "t_m": spec.t_m,
        "t_c": spec.t_c,
        "worst_detection_latency": params.worst_detection_latency,
        "measurements_per_collection": params.measurements_per_collection,
    }
    if spec.dwell > 0:
        stats["dwell"] = spec.dwell
        stats["detection_probability"] = params.detection_probability(
            spec.dwell
        )
    return stats


def _attach_slo(
    spec: RunSpec, obs: Any, sim: Any, until: float, tasks: Sequence[Any] = ()
) -> Optional[Any]:
    """Arm the sim-time SLO engine when the spec declares objectives.

    The ``deadline`` probe bridges task deadline accounting (which
    lives in :class:`~repro.sim.task.TaskStats`, not the metrics
    registry) into the engine's ``(good, total)`` source model.
    """
    if not spec.slo:
        return None
    from repro.obs.slo import SLOEngine, parse_objectives

    engine = SLOEngine(obs, parse_objectives(spec.slo))
    if tasks:
        task_list = list(tasks)

        def deadline_probe():
            good = total = 0
            for task in task_list:
                stats = task.stats(as_of=sim.now)
                total += stats.jobs_released
                good += stats.jobs_released - stats.deadline_misses
            return good, total

        engine.register_probe("deadline", deadline_probe)
    engine.attach(sim, until=until)
    return engine


def _outcome_data(outcomes: Optional[Any]) -> Dict[str, Any]:
    """An exchange-outcome ledger's aggregates, ``{}`` without one: the
    per-exchange list stays in-process, out of the JSONL artifact."""
    if outcomes is None:
        return {}
    return {
        key: value
        for key, value in outcomes.to_dict().items()
        if key != "exchanges"
    }


def _trace_summary(obs: Any) -> Dict[str, Any]:
    """Fold a span-enabled run's capture into the mergeable shape the
    cross-shard reducer consumes; empty on metrics-only runs so the
    deterministic artifact projection is untouched."""
    if not getattr(obs.spans, "enabled", False):
        return {}
    from repro.obs.report import exchange_records, exemplar_table

    sketch = ExchangeSketch()
    traces = set()
    for record in exchange_records(obs.spans):
        sketch.observe(
            record["latency"], record["trace_id"], record["name"]
        )
        traces.add(record["trace_id"])
    summary: Dict[str, Any] = {
        "spans": len(obs.spans),
        "traces": len(traces),
        "exchanges": sketch.to_dict(),
    }
    exemplars = exemplar_table(obs.metrics)
    if exemplars:
        summary["exemplars"] = exemplars
    return summary


def _execute_service_run(spec: RunSpec, obs: Optional[Any]) -> RunResult:
    """Worker path for the ``vserver`` mechanism: one served-verifier
    scenario (storm + admission + epoch drains) instead of a single
    prover/verifier pair.

    The run seed folds into the service seed, so seed replication
    resamples the storm phase the way ``infect_jitter`` resamples the
    infection phase.  Service-level stats (queue latency quantiles,
    admission counts) land in the ``qoa`` dict -- the quality-of-
    service analogue of the attestation-quality stats -- and the
    ``vserver.*`` metric snapshot rides in ``telemetry``.
    """
    import dataclasses

    from repro.vserver.service import ServiceConfig

    if obs is None:
        obs = Observability(metrics=MetricsRegistry())
    config = ServiceConfig.parse(spec.service or "smoke")
    config = dataclasses.replace(
        config, seed=f"{config.seed}-s{spec.seed:04d}"
    )
    scenario = Scenario.build(service=config, obs=obs)
    slo_engine = _attach_slo(spec, obs, scenario.sim, config.horizon)
    sim_time = scenario.sim.run(until=config.horizon)
    server = scenario.server
    stats = server.stats()

    detected_at = first_detection(scenario.verifier.results)
    verified_records = sum(
        entry.records for entry in server.ledger
        if entry.status == "verified"
    )
    return RunResult(
        run_id=spec.run_id,
        spec=spec.to_dict(),
        verdict_counts=verdict_histogram(scenario.verifier.results),
        detected=detected_at is not None,
        first_detection_at=detected_at,
        qoa={
            "service_submitted": float(stats["submitted"]),
            "service_verified": float(stats["verified"]),
            "service_rejected": float(stats["rejected"]),
            "service_unaccounted": float(stats["unaccounted"]),
            "service_max_queue_depth": float(stats["max_queue_depth"]),
            "service_queue_p50": stats["queue_latency_p50"],
            "service_queue_p99": stats["queue_latency_p99"],
        },
        measurements=verified_records,
        reports=stats["submitted"],
        hash_ops=verified_records * config.blocks,
        hash_bytes=verified_records * config.blocks * config.block_size,
        auth_ops=stats["verified"],
        telemetry=obs.metrics.snapshot_flat(),
        outcomes=_outcome_data(scenario.outcomes),
        trace_summary=_trace_summary(obs),
        slo=slo_engine.summary() if slo_engine else {},
        sim_time=sim_time,
    )


def execute_run(spec: RunSpec, obs: Optional[Any] = None) -> RunResult:
    """Build and run one scenario; raises on internal failure (the
    executor wraps this with retry/timeout handling).

    ``obs`` overrides the observability bundle; the default is a fresh
    metrics-only bundle, whose sim-time snapshot lands in
    ``RunResult.telemetry`` -- deterministic, so serial and parallel
    execution still produce byte-identical result lines.  Pass a
    span/profiler-enabled bundle (``repro obs`` / ``repro profile``)
    to capture the full timeline of a single run.

    A run is one young generation: automatic cyclic collection is off
    while it executes, so nothing it allocates is promoted, and one
    ``gc.collect(0)`` on every way out (return, raise, timeout)
    reclaims whatever of its cyclic scenario graph is dead.  A caller
    that disabled the collector itself keeps it disabled and gets no
    collection.
    """
    if not gc.isenabled():
        return _execute_run(spec, obs)
    try:
        gc.disable()
        return _execute_run(spec, obs)
    finally:
        gc.enable()
        gc.collect(0)


def _execute_run(spec: RunSpec, obs: Optional[Any]) -> RunResult:
    if spec.mechanism == "vserver":
        return _execute_service_run(spec, obs)

    if obs is None:
        obs = Observability(metrics=MetricsRegistry())

    # All wiring goes through the one factory and the run is driven
    # by its kind; the executor only maps spec fields onto factory
    # arguments and the folded outcome onto a RunResult.
    faults = spec.faults or None
    config = _scenario_config(spec)
    # the run reports only how many device-trace records it emitted
    trace = CountingTrace()
    rounds = MECHANISMS[spec.mechanism].rounds(config)
    scenario = Scenario.build(
        mechanism=spec.mechanism,
        malware=spec.adversary,
        faults=faults,
        workload=spec.workload,
        config=config,
        seed=_effective_seed(spec),
        retry=_retry_policy(spec, rounds) if faults else None,
        obs=obs,
        trace=trace,
        fault_seed=f"fleet-faults-{spec.campaign}-{spec.seed}".encode(),
    )
    scenario.drive()
    slo_engine = _attach_slo(
        spec, obs, scenario.sim, spec.horizon, tasks=scenario.tasks
    )
    sim_time = scenario.run()

    outcome = scenario.outcome()
    records, reports = outcome.records, outcome.reports
    detection_latency = None
    if outcome.detected and spec.adversary != "none":
        detection_latency = outcome.first_detection_at - config.infect_at
    results = scenario.verifier.results
    trace_events, trace_dropped = trace.ring_counts(spec.trace_limit)
    return RunResult(
        run_id=spec.run_id,
        spec=spec.to_dict(),
        verdict_counts=verdict_histogram(results),
        detected=outcome.detected,
        first_detection_at=outcome.first_detection_at,
        detection_latency=detection_latency,
        qoa=_qoa_stats(spec),
        availability=(
            None if outcome.availability is None
            else outcome.availability.to_dict()
        ),
        measurements=len(records),
        mp_duration=outcome.mp_duration,
        mp_interruptions=outcome.mp_interruptions,
        reports=len(reports),
        hash_ops=sum(rec.block_count for rec in records),
        hash_bytes=sum(
            rec.block_count * spec.sim_block_size for rec in records
        ),
        auth_ops=len(reports) + len(results),
        lock_ops=outcome.lock_ops,
        probes=(
            {"attempted": outcome.probes_attempted,
             "succeeded": outcome.probes_succeeded}
            if spec.probe_count > 0 else {}
        ),
        trace_events=trace_events,
        trace_dropped=trace_dropped,
        telemetry=obs.metrics.snapshot_flat(),
        outcomes=_outcome_data(scenario.outcomes),
        trace_summary=_trace_summary(obs),
        slo=slo_engine.summary() if slo_engine else {},
        sim_time=sim_time,
    )


# ---------------------------------------------------------------------------
# Failure containment around the worker
# ---------------------------------------------------------------------------


@contextmanager
def _deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`FleetTimeout` if the block runs longer than
    ``seconds`` of wall-clock time.

    Degrades to a no-op (the run simply has no wall-clock budget)
    whenever the platform cannot arm a timer: zero budget, no
    ``SIGALRM``, off the main thread, or an interpreter whose signal
    machinery refuses the handler (embedded CPython, exotic ports).
    Timeouts are a containment nicety; failing to arm one must never
    itself take down a worker thread or backend.
    """
    usable = (
        seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise FleetTimeout()

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except (ValueError, OSError, RuntimeError):
        # main-thread checks can still lose the race (e.g. signal
        # delivery restricted by the embedding application)
        yield
        return
    try:
        if hasattr(signal, "setitimer"):
            signal.setitimer(signal.ITIMER_REAL, seconds)
        else:  # pragma: no cover - platforms without setitimer
            signal.alarm(max(1, int(seconds)))
    except (ValueError, OSError):
        signal.signal(signal.SIGALRM, previous)
        yield
        return
    try:
        yield
    finally:
        if hasattr(signal, "setitimer"):
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        else:  # pragma: no cover - platforms without setitimer
            signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


Runner = Callable[[RunSpec], RunResult]


def run_one(
    spec: RunSpec, retries: int = 1, runner: Runner = execute_run
) -> RunResult:
    """Execute one spec with timeout enforcement and bounded retry.

    Never raises: scenario exceptions become ``status="error"`` results
    after ``retries`` extra attempts; blowing the wall-clock budget
    becomes ``status="timeout"`` (not retried -- a deterministic run
    that timed out once will time out again)."""
    attempts = 0
    while True:
        attempts += 1
        start = perf_time()
        try:
            with _deadline(spec.timeout):
                result = runner(spec)
            result.attempts = attempts
            result.wall_clock = perf_time() - start
            result.worker = f"pid-{os.getpid()}"
            return result
        except FleetTimeout:
            return failure_result(
                spec.run_id,
                spec.to_dict(),
                STATUS_TIMEOUT,
                f"run exceeded wall-clock budget of {spec.timeout:g}s",
                attempts=attempts,
                wall_clock=perf_time() - start,
            )
        except Exception as exc:
            if attempts > retries:
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                return failure_result(
                    spec.run_id,
                    spec.to_dict(),
                    STATUS_ERROR,
                    detail,
                    attempts=attempts,
                    wall_clock=perf_time() - start,
                )


def _run_shard(
    specs: Sequence[RunSpec], retries: int, runner: Runner
) -> List[RunResult]:
    """Worker entry point: execute a shard sequentially in-process."""
    return [run_one(spec, retries=retries, runner=runner) for spec in specs]
