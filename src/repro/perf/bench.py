"""``repro bench``: seeded micro/macro performance regression harness.

The simulation is deterministic, so its *results* never need
benchmarking -- what regresses silently is wall clock: the engine hot
loop, the measurement traversal, artifact serialization.  This module
times a fixed suite of seeded workloads and emits a ``BENCH_<rev>.json``
artifact that CI archives per commit and diffs against the committed
gate baseline (``benchmarks/baseline/BENCH_gate.json``; the original
``BENCH_seed.json`` stays alongside for history).

Every bench reports a ``primary`` metric with a ``direction``
(``"lower"`` or ``"higher"`` = better); :func:`compare` flags any
primary metric that is more than ``threshold`` (default 20%) worse
than the baseline.  Wall-clock reads go through
:func:`repro.fleet.clock.perf_time` -- the one allowlisted wall-clock
source -- because bench numbers are telemetry, never simulation state.

Timing discipline: each workload is repeated and the **best** time is
kept (minimum over repeats estimates the noise floor of a shared CI
box far better than the mean); the full repeat series also yields
median + spread fields (:func:`timing_stats`) so an artifact records
how noisy the workload was on the box that produced it.  Quick mode
(``--quick``) shrinks the workloads for CI smoke use; quick artifacts
are only comparable to quick baselines, so the flag is recorded in
the artifact.

The CI gate is **blocking**: a regression fails the build.  To keep
that honest on noisy hosted runners, every bench declares a
``gate_threshold`` and :func:`compare` applies the *widest* of the
CLI threshold and the bench's own -- dimensionless ratio benches
(speedups, hit fractions) transfer across machines and gate tight;
absolute wall-clock throughput is machine-dependent and only fails
on a collapse.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.fleet.clock import perf_time, wall_time

BENCH_VERSION = 1
DEFAULT_THRESHOLD = 0.20

#: per-bench blocking-gate thresholds.  Absolute throughput numbers
#: (events/s, records/s, ...) depend on the machine that wrote the
#: baseline, so their gate only trips on a collapse (below ~1/2 of
#: baseline); dimensionless ratios compare like-for-like on any box
#: and trip below ~2/3 of baseline -- still far above the ~1.0x a
#: broken fast path produces, and clear of the quick-mode run-to-run
#: swing the committed artifacts record in their spread fields.
GATE_ABSOLUTE = 1.00
GATE_RATIO = 0.50


def _samples_of(fn: Callable[[], Any], repeats: int) -> List[float]:
    """Wall-clock seconds of each of ``repeats`` calls, in run order."""
    samples = []
    for _ in range(repeats):
        start = perf_time()
        fn()
        samples.append(perf_time() - start)
    return samples


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Best (minimum) wall-clock seconds over ``repeats`` calls."""
    return min(_samples_of(fn, repeats))


def timing_stats(samples: List[float]) -> Dict[str, float]:
    """Noise fields for a repeat series: median + relative spread.

    ``spread_pct`` is ``(max - min) / median`` in percent -- the
    repeat-to-repeat noise of this workload on this machine, recorded
    in the artifact so a human (or a future gate) can judge whether a
    flagged regression is inside the noise band the baseline itself
    exhibited.
    """
    ordered = sorted(samples)
    count = len(ordered)
    mid = count // 2
    if count % 2:
        median = ordered[mid]
    else:
        median = (ordered[mid - 1] + ordered[mid]) / 2.0
    spread = (
        (ordered[-1] - ordered[0]) / median * 100.0 if median > 0 else 0.0
    )
    return {
        "repeats": count,
        "median_ms": median * 1e3,
        "spread_pct": spread,
    }


def git_revision() -> str:
    """Short git revision of the working tree, or ``"dev"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "dev"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "dev"


# ---------------------------------------------------------------------------
# Micro benches
# ---------------------------------------------------------------------------


def bench_block_hash(quick: bool) -> Dict[str, Dict[str, Any]]:
    """Per-algorithm audit-hash + HMAC throughput over benign blocks."""
    from repro.crypto.hmac import Hmac
    from repro.ra.report import audit_hash
    from repro.sim.memory import benign_fill

    block_size = 4096
    blocks = 64 if quick else 256
    contents = [benign_fill(i, block_size, seed=7) for i in range(blocks)]
    key = bytes(range(32))
    out: Dict[str, Dict[str, Any]] = {}
    for algorithm in ("sha256", "sha512", "blake2b", "blake2s"):
        def work() -> None:
            mac = Hmac(key, algorithm)
            for index, content in enumerate(contents):
                audit_hash(content)
                mac.update(content)
            mac.digest()

        samples = _samples_of(work, repeats=3 if quick else 5)
        out[f"block_hash.{algorithm}"] = {
            "us_per_block": min(samples) * 1e6 / blocks,
            "blocks": blocks,
            "block_size": block_size,
            "gate_threshold": GATE_ABSOLUTE,
            **timing_stats(samples),
            "primary": "us_per_block",
            "direction": "lower",
        }
    return out


def bench_crypto_hmac_setup(quick: bool) -> Dict[str, Dict[str, Any]]:
    """Short-MAC cost, dominated by keying: a fresh key, one 64-byte
    update and a digest, averaged over the four algorithms."""
    from repro.crypto.hmac import Hmac

    keys = [bytes([i]) * 32 for i in range(256)]
    rounds = 4 if quick else 16
    data = bytes(64)
    algorithms = ("sha256", "sha512", "blake2b", "blake2s")

    def work() -> None:
        for _ in range(rounds):
            for algorithm in algorithms:
                for key in keys:
                    mac = Hmac(key, algorithm)
                    mac.update(data)
                    mac.digest()

    samples = _samples_of(work, repeats=3 if quick else 5)
    macs = rounds * len(algorithms) * len(keys)
    return {
        "crypto.hmac_setup": {
            "us_per_mac": min(samples) * 1e6 / macs,
            "macs": macs,
            "gate_threshold": GATE_ABSOLUTE,
            **timing_stats(samples),
            "primary": "us_per_mac",
            "direction": "lower",
        }
    }


def bench_crypto_drbg_draw(quick: bool) -> Dict[str, Dict[str, Any]]:
    """DRBG sampling cost: ``randbelow(64)``, the SMARM shuffle's draw,
    which takes ``randbelow``'s fused one-byte path."""
    from repro.crypto.drbg import HmacDrbg

    draws = 2_000 if quick else 10_000

    def work() -> None:
        drbg = HmacDrbg(b"bench-drbg")
        for _ in range(draws):
            drbg.randbelow(64)

    samples = _samples_of(work, repeats=3 if quick else 5)
    return {
        "crypto.drbg_draw": {
            "us_per_draw": min(samples) * 1e6 / draws,
            "draws": draws,
            "gate_threshold": GATE_ABSOLUTE,
            **timing_stats(samples),
            "primary": "us_per_draw",
            "direction": "lower",
        }
    }


def bench_crypto_drbg_generate(quick: bool) -> Dict[str, Dict[str, Any]]:
    """DRBG stream cost: ``generate(32)``, the nonce draw of the verifier
    service and the fleet -- the generic SP 800-90A path."""
    from repro.crypto.drbg import HmacDrbg

    calls = 2_000 if quick else 10_000

    def work() -> None:
        drbg = HmacDrbg(b"bench-drbg")
        for _ in range(calls):
            drbg.generate(32)

    samples = _samples_of(work, repeats=3 if quick else 5)
    return {
        "crypto.drbg_generate": {
            "us_per_call": min(samples) * 1e6 / calls,
            "calls": calls,
            "gate_threshold": GATE_ABSOLUTE,
            **timing_stats(samples),
            "primary": "us_per_call",
            "direction": "lower",
        }
    }


def bench_engine_events(quick: bool) -> Dict[str, Dict[str, Any]]:
    """Raw event-loop throughput: schedule + fire no-op events."""
    from repro.sim.engine import Simulator

    count = 20_000 if quick else 100_000

    def work() -> None:
        sim = Simulator()
        for index in range(count):
            sim.schedule(index * 1e-6, _noop)
        sim.run()

    samples = _samples_of(work, repeats=3)
    return {
        "engine.events": {
            "events_per_sec": count / min(samples),
            "events": count,
            "gate_threshold": GATE_ABSOLUTE,
            **timing_stats(samples),
            "primary": "events_per_sec",
            "direction": "higher",
        }
    }


def _noop() -> None:
    return None


def bench_engine_dispatch(quick: bool) -> Dict[str, Dict[str, Any]]:
    """Dispatch-only throughput: drain a pre-scheduled event queue.

    ``engine.events`` times schedule *and* fire together; this bench
    isolates the dispatch inner loop -- the specialized path that
    :meth:`Simulator.run` takes whenever no profiler is attached,
    metrics or not -- by building the full heap outside the timed
    region.
    """
    from repro.sim.engine import Simulator

    count = 20_000 if quick else 100_000
    samples = []
    for _ in range(3):
        sim = Simulator()
        for index in range(count):
            sim.schedule(index * 1e-6, _noop)
        start = perf_time()
        sim.run()
        samples.append(perf_time() - start)
    return {
        "engine.dispatch_noobs": {
            "events_per_sec": count / min(samples),
            "events": count,
            "gate_threshold": GATE_ABSOLUTE,
            **timing_stats(samples),
            "primary": "events_per_sec",
            "direction": "higher",
        }
    }


def bench_memory_fill(quick: bool) -> Dict[str, Dict[str, Any]]:
    """Device memory construction through the interned ReferenceStore
    vs regenerating the benign image per device.

    The fleet steady state: N provers sharing one ``(seed,
    block_size)`` image.  Interned construction copies shared bytes
    into per-device bytearrays; the ``raw`` side is the per-byte PRNG
    loop every single device used to pay.  The speedup primary is the
    whole point of the store and is machine-independent.
    """
    from repro.perf.reference_store import raw_benign_fill
    from repro.sim.memory import Memory

    block_count = 64 if quick else 256
    block_size = 64
    seed = 7041  # dedicated seed: first repeat warms the store
    devices = 5 if quick else 20

    def interned() -> None:
        for _ in range(devices):
            Memory(block_count, block_size=block_size, seed=seed)

    def raw() -> None:
        for index in range(block_count):
            raw_benign_fill(index, block_size, seed)

    interned()  # warm the interned image outside the timed region
    repeats = 3 if quick else 5
    samples = _samples_of(interned, repeats)
    best = min(samples)
    best_raw = _best_of(raw, repeats)
    per_device = best / devices
    raw_per_device = best_raw  # one image generation == one cold device
    return {
        "memory.fill": {
            "speedup": raw_per_device / per_device if per_device else 0.0,
            "interned_us_per_device": per_device * 1e6,
            "raw_us_per_device": raw_per_device * 1e6,
            "devices": devices,
            "block_count": block_count,
            "gate_threshold": GATE_RATIO,
            **timing_stats(samples),
            "primary": "speedup",
            "direction": "higher",
        }
    }


def bench_trace_serialize(quick: bool, workdir: Path) -> Dict[str, Dict[str, Any]]:
    """JSONL export throughput of a populated trace (single buffered
    write; this bench guards the batching in :meth:`Trace.to_jsonl`)."""
    from repro.sim.trace import Trace

    records = 20_000 if quick else 100_000
    trace = Trace()
    for index in range(records):
        trace.record(index * 1e-3, "compute", "bench", duration=1e-3)
    target = workdir / "bench_trace.jsonl"

    def work() -> None:
        trace.to_jsonl(target)

    samples = _samples_of(work, repeats=3)
    target.unlink(missing_ok=True)
    return {
        "trace.serialize": {
            "records_per_sec": records / min(samples),
            "records": records,
            "gate_threshold": GATE_ABSOLUTE,
            **timing_stats(samples),
            "primary": "records_per_sec",
            "direction": "higher",
        }
    }


# ---------------------------------------------------------------------------
# Macro benches
# ---------------------------------------------------------------------------


def bench_fleet_incremental(
    quick: bool, workdir: Path
) -> Dict[str, Dict[str, Any]]:
    """Full campaign run vs incremental re-run over unchanged code."""
    from repro import fleet

    campaign = fleet.canned_campaign("faults", seed_count=1)
    specs = campaign.plan()
    if quick:
        specs = specs[:3]
    out_dir = workdir / "bench-fleet"

    start = perf_time()
    fleet.run_pipeline(campaign, specs, out_dir=out_dir)
    full = perf_time() - start

    start = perf_time()
    report = fleet.run_pipeline(
        campaign, specs, out_dir=out_dir,
        config=fleet.PipelineConfig(incremental=True),
    )
    incremental = perf_time() - start

    return {
        "fleet.incremental": {
            "speedup": full / incremental if incremental else float("inf"),
            "hit_fraction": report.cache_hits / len(specs) if specs else 0.0,
            "full_ms": full * 1e3,
            "incremental_ms": incremental * 1e3,
            "runs": len(specs),
            "gate_threshold": GATE_RATIO,
            "primary": "hit_fraction",
            "direction": "higher",
        }
    }


def bench_fleet_parallel(workdir: Path) -> Dict[str, Dict[str, Any]]:
    """The qoa campaign through :func:`repro.fleet.run_pipeline`, serial
    vs a two-worker process pool.

    A wall-clock speedup, so it is a bench row rather than a test: it
    needs two free cores (a one-core host reads about 1x), and the
    byte-identity of the two runs' artifacts is pinned by the parity
    tests, not here.
    """
    from repro import fleet

    # the whole 54-run campaign even in quick mode: a smaller one is
    # dominated by pool start-up and reads about 1x on any host
    campaign = fleet.qoa_fleet_campaign()
    workers = 2

    def run(backend: Any, name: str) -> float:
        report = fleet.run_pipeline(
            campaign, out_dir=workdir / name, backend=backend
        )
        return report.wall_clock

    serial = run(fleet.SerialBackend(), "bench-serial")
    parallel = run(fleet.ProcessPoolBackend(workers=workers), "bench-pool")
    return {
        "fleet.parallel": {
            "speedup": serial / parallel if parallel else float("inf"),
            "serial_ms": serial * 1e3,
            "parallel_ms": parallel * 1e3,
            "runs": len(campaign.plan()),
            "workers": workers,
            "cpus": os.cpu_count() or 1,
            "gate_threshold": GATE_RATIO,
            "primary": "speedup",
            "direction": "higher",
        }
    }


def bench_fleet_stream(
    quick: bool, workdir: Path
) -> Dict[str, Dict[str, Any]]:
    """Streaming reduce throughput: checkpointed shards through the
    pipeline's k-way merge and :class:`StreamingAggregator` fold.

    Synthetic results keep the bench about the reduce path (file
    reads, run_id merge, per-group folds, incremental JSONL write)
    rather than the simulator; peak traced memory rides along as the
    bounded-memory evidence the pipeline exists to provide.
    """
    import tracemalloc

    from repro import fleet
    from repro.fleet.pipeline import _merged_stream, _reduce_stream

    campaign = fleet.canned_campaign("qoa", seed_count=1)
    count = 2_000 if quick else 10_000
    shard_size = 256
    specs = [
        fleet.RunSpec(
            mechanism="smart", campaign=campaign.name, seed=index
        )
        for index in range(count)
    ]
    out_dir = workdir / "bench-stream"
    store = fleet.ShardCheckpointStore(
        out_dir, campaign.name, campaign.spec_hash, specs, shard_size,
        "bench",
    )
    store.open()
    shards = fleet.make_shards(specs, shard_size)
    for shard in shards:
        store.write_shard(
            shard.index,
            [
                fleet.RunResult(
                    run_id=spec.run_id,
                    spec=spec.to_dict(),
                    detected=spec.seed % 2 == 0,
                    detection_latency=(
                        float(spec.seed % 7) if spec.seed % 2 == 0
                        else None
                    ),
                    mp_duration=0.25,
                    measurements=1,
                    qoa={"miss_rate": (spec.seed % 5) / 10.0},
                )
                for spec in shard.specs
            ],
        )
    paths = fleet.artifact_paths(out_dir, campaign.name)
    paths.root.mkdir(parents=True, exist_ok=True)
    indices = [shard.index for shard in shards]

    def work() -> None:
        _reduce_stream(_merged_stream(store, indices), paths, campaign)

    samples = _samples_of(work, repeats=3)
    best = min(samples)
    tracemalloc.start()
    try:
        work()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "fleet.stream": {
            "results_per_sec": count / best,
            "ms_total": best * 1e3,
            "peak_kib": peak / 1024.0,
            "runs": count,
            "shards": len(shards),
            "gate_threshold": GATE_ABSOLUTE,
            **timing_stats(samples),
            "primary": "results_per_sec",
            "direction": "higher",
        }
    }


def bench_verifier_batch(quick: bool) -> Dict[str, Dict[str, Any]]:
    """Micro: :meth:`Verifier.verify_batch` vs a serial loop over one
    epoch's worth of overlapping reports.

    The workload mirrors what an epoch drain sees in a storm: a cohort
    of provers sharing one reference image, each shipping an
    ERASMUS-style history ring, so consecutive reports re-carry the
    same records.  Batch mode digests each unique record once, over
    one joined traversal per device; serial recomputes every copy.
    """
    from repro.ra.report import AttestationReport
    from repro.ra.verifier import Verifier
    from repro.sim.engine import Simulator
    from repro.vserver.loadgen import SimProver, cohort_image, prover_key

    provers = 16 if quick else 48
    blocks = 64 if quick else 128
    sim = Simulator()
    verifier = Verifier(sim, name="bench-verifier")
    image = cohort_image("bench", blocks, 64)
    entries = []
    for index in range(provers):
        name = f"bp{index:03d}"
        key = prover_key(name)
        prover = SimProver(
            sim, name, key=key, image=image, endpoint=None
        )
        prover.enroll(verifier, image)
        for _ in range(3):
            prover.measure()
            report = AttestationReport.authenticate(
                key, name, list(prover.history),
                sent_counter=prover.counter,
            )
            entries.append((report, {}))

    def serial() -> None:
        for report, kwargs in entries:
            verifier.verify_report(report, **kwargs)

    def batched() -> None:
        verifier.verify_batch(entries)

    repeats = 3 if quick else 5
    best_serial = _best_of(serial, repeats)
    best_batched = _best_of(batched, repeats)
    return {
        "verifier.batch": {
            "speedup": best_serial / best_batched,
            "serial_ms": best_serial * 1e3,
            "batched_ms": best_batched * 1e3,
            "reports": len(entries),
            "blocks": blocks,
            "gate_threshold": GATE_RATIO,
            "primary": "speedup",
            "direction": "higher",
        }
    }


#: advisory wall-clock budget for full tracing: the instrumented smoke
#: storm may cost at most this much over the NULL_OBS run
OBS_OVERHEAD_PIN_PCT = 15.0


def bench_obs_overhead(quick: bool) -> Dict[str, Dict[str, Any]]:
    """Macro: the smoke storm under NULL_OBS vs full causal tracing.

    Spans, trace contexts and exemplars are strictly opt-in, so their
    cost only exists on instrumented runs -- this bench is the number
    that keeps that cost honest.  ``overhead_pct`` is the primary
    (lower = better) and :data:`OBS_OVERHEAD_PIN_PCT` is the advisory
    pin recorded in the artifact; the CI baseline comparison flags a
    creeping regression even while it stays under the pin.
    """
    from repro.obs.core import NULL_OBS, Observability
    from repro.scenario import Scenario
    from repro.vserver.service import service_preset

    config = service_preset("smoke")

    def run(traced: bool) -> None:
        obs = Observability.enabled() if traced else NULL_OBS
        Scenario.build(service=config, obs=obs).run()

    # One smoke run is ~15ms -- scheduler noise swamps a single-run
    # delta -- so each sample batches ``loops`` runs of one mode and
    # the modes alternate batch-by-batch.  Both sides keep their
    # *best* batch (the module's noise-floor discipline): floors
    # converge to the steady-state cost of each mode, where a mean or
    # a single pairing would fold machine drift into the ratio.
    loops = 3 if quick else 10
    rounds = 3 if quick else 6
    run(False)
    run(True)

    def timed(traced: bool) -> float:
        start = perf_time()
        for _ in range(loops):
            run(traced)
        return perf_time() - start

    best_null = best_traced = float("inf")
    for _ in range(rounds):
        best_null = min(best_null, timed(False))
        best_traced = min(best_traced, timed(True))
    overhead_pct = (best_traced / best_null - 1.0) * 100.0
    return {
        "obs.overhead": {
            "overhead_pct": overhead_pct,
            "null_ms": best_null * 1e3 / loops,
            "traced_ms": best_traced * 1e3 / loops,
            "loops": loops,
            "rounds": rounds,
            "pin_pct": OBS_OVERHEAD_PIN_PCT,
            "within_pin": overhead_pct <= OBS_OVERHEAD_PIN_PCT,
            # percentage-point overheads hover near zero, where ratio
            # comparison amplifies noise; only a blow-up past the pin
            # region should block
            "gate_threshold": 3.0,
            "primary": "overhead_pct",
            "direction": "lower",
        }
    }


def bench_slo_eval(quick: bool) -> Dict[str, Dict[str, Any]]:
    """Micro: SLO engine evaluation ticks over a populated registry.

    One tick reads every objective's sources, maintains the rolling
    windows and evaluates both burn rates; at the default cadence
    (short-window/3) a long storm run takes thousands of them, so the
    per-tick cost bounds how cheap ``RunSpec.slo`` stays.
    """
    from repro.obs.core import Observability
    from repro.obs.slo import SLOEngine, parse_objectives

    obs = Observability.enabled()
    good = obs.metrics.counter("svc.good", "bench")
    total = obs.metrics.counter("svc.total", "bench")
    hist = obs.metrics.histogram("svc.latency", "bench")
    for i in range(512):
        total.inc()
        if i % 7:
            good.inc()
        hist.observe((i % 50) / 100.0)

    class _TickClock:
        """Stand-in sim: the engine only touches .now / .schedule."""

        def __init__(self) -> None:
            self.now = 0.0

        def schedule(self, delay: float, fn: Any, *args: Any) -> None:
            return None

    engine = SLOEngine(obs, parse_objectives(
        "ratio:svc.good/svc.total@0.9,"
        "latency:svc.latency<0.25@0.95,"
        "probe:deadline@0.99"
    ))
    engine.register_probe("deadline", lambda: (500.0, 512.0))
    clock = _TickClock()
    engine._sim = clock
    engine._until = float("inf")
    ticks = 2_000 if quick else 10_000

    def work() -> None:
        for _ in range(ticks):
            clock.now += engine.interval
            engine._tick()

    samples = _samples_of(work, repeats=3)
    best = min(samples)
    return {
        "slo.eval": {
            "ticks_per_sec": ticks / best,
            "us_per_tick": best * 1e6 / ticks,
            "objectives": len(engine.objectives),
            "gate_threshold": GATE_ABSOLUTE,
            **timing_stats(samples),
            "primary": "ticks_per_sec",
            "direction": "higher",
        }
    }


# ---------------------------------------------------------------------------
# Suite driver / comparison
# ---------------------------------------------------------------------------


def run_suite(quick: bool = False, workdir: Optional[Any] = None) -> Dict[str, Any]:
    """Execute every bench; returns the artifact dictionary."""
    import tempfile

    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-bench-")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    benches: Dict[str, Dict[str, Any]] = {}
    benches.update(bench_block_hash(quick))
    benches.update(bench_crypto_hmac_setup(quick))
    benches.update(bench_crypto_drbg_draw(quick))
    benches.update(bench_crypto_drbg_generate(quick))
    benches.update(bench_engine_events(quick))
    benches.update(bench_engine_dispatch(quick))
    benches.update(bench_memory_fill(quick))
    benches.update(bench_trace_serialize(quick, workdir))
    benches.update(bench_fleet_incremental(quick, workdir))
    benches.update(bench_fleet_parallel(workdir))
    benches.update(bench_fleet_stream(quick, workdir))
    benches.update(bench_verifier_batch(quick))
    benches.update(bench_obs_overhead(quick))
    benches.update(bench_slo_eval(quick))
    return {
        "version": BENCH_VERSION,
        "revision": git_revision(),
        "quick": quick,
        "created_at": wall_time(),
        "benches": benches,
    }


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[Dict[str, Any]]:
    """Primary-metric comparison; one row per bench present in both.

    A row is a regression when the current primary metric is worse
    than the baseline, in the bench's direction, by more than the
    row's *effective* threshold: the widest of the ``threshold``
    argument and the bench's declared ``gate_threshold`` (read from
    the current artifact, falling back to the baseline's).  Per-bench
    thresholds are what let the gate block: ratio benches stay tight
    while machine-dependent absolute throughput only fails on a
    collapse.  Benches missing from either side are skipped (the
    suite may grow).
    """
    rows: List[Dict[str, Any]] = []
    base_benches = baseline.get("benches", {})
    for name, bench in sorted(current.get("benches", {}).items()):
        base = base_benches.get(name)
        if base is None:
            continue
        metric = bench.get("primary")
        direction = bench.get("direction", "higher")
        if metric is None or metric not in bench or metric not in base:
            continue
        cur_value = float(bench[metric])
        base_value = float(base[metric])
        if base_value == 0:
            continue
        declared = bench.get("gate_threshold", base.get("gate_threshold"))
        effective = (
            max(threshold, float(declared))
            if declared is not None else threshold
        )
        ratio = cur_value / base_value
        if direction == "lower":
            regressed = ratio > 1.0 + effective
        else:
            regressed = ratio < 1.0 / (1.0 + effective)
        rows.append({
            "bench": name,
            "metric": metric,
            "direction": direction,
            "baseline": base_value,
            "current": cur_value,
            "ratio": ratio,
            "threshold": effective,
            "regressed": regressed,
        })
    return rows


def render_comparison(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'bench':<24} {'metric':<16} {'baseline':>12} "
        f"{'current':>12} {'ratio':>7} {'gate':>6}  status"
    ]
    for row in rows:
        status = "REGRESSED" if row["regressed"] else "ok"
        gate = row.get("threshold")
        gate_cell = f"{gate:.0%}" if gate is not None else "-"
        lines.append(
            f"{row['bench']:<24} {row['metric']:<16} "
            f"{row['baseline']:>12.4g} {row['current']:>12.4g} "
            f"{row['ratio']:>6.2f}x {gate_cell:>6}  {status}"
        )
    return "\n".join(lines)


def load_history(directory: Any) -> List[Dict[str, Any]]:
    """Every ``BENCH_*.json`` under ``directory`` (plus its
    ``baseline/`` subdirectory), oldest first by ``created_at``.

    Unreadable artifacts are skipped with a marker entry rather than
    aborting the view -- history must stay renderable even when one
    old artifact predates a format change.
    """
    root = Path(directory)
    paths = sorted(root.glob("BENCH_*.json"))
    paths += sorted((root / "baseline").glob("BENCH_*.json"))
    artifacts: List[Dict[str, Any]] = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                artifact = json.load(handle)
        except (OSError, json.JSONDecodeError):
            artifacts.append({"path": str(path), "unreadable": True})
            continue
        artifact["path"] = str(path)
        artifacts.append(artifact)
    artifacts.sort(key=lambda a: float(a.get("created_at", 0.0)))
    return artifacts


def render_history(artifacts: List[Dict[str, Any]]) -> str:
    """Primary metrics tabulated across revisions, one bench per row.

    Quick-mode artifacts are starred: their numbers are only
    comparable to other quick artifacts.
    """
    readable = [a for a in artifacts if not a.get("unreadable")]
    skipped = [a for a in artifacts if a.get("unreadable")]
    if not readable:
        return "no bench artifacts found"
    names = sorted({
        name for artifact in readable
        for name in artifact.get("benches", {})
    })
    labels = []
    for artifact in readable:
        label = str(artifact.get("revision", "?"))
        if artifact.get("quick"):
            label += "*"
        labels.append(label)
    width = max(12, *(len(label) for label in labels))
    header = f"{'bench (primary metric)':<36}" + "".join(
        f" {label:>{width}}" for label in labels
    )
    lines = [header]
    for name in names:
        metric = ""
        cells = []
        for artifact in readable:
            bench = artifact.get("benches", {}).get(name)
            if bench is None:
                cells.append(f" {'-':>{width}}")
                continue
            metric = bench.get("primary", metric)
            value = bench.get(metric)
            cell = f"{value:.4g}" if isinstance(value, (int, float)) else "-"
            cells.append(f" {cell:>{width}}")
        lines.append(f"{name + ' (' + metric + ')':<36}" + "".join(cells))
    lines.append(
        f"{len(readable)} artifact(s); * = quick mode "
        "(only comparable to other quick runs)"
    )
    for artifact in skipped:
        lines.append(f"skipped unreadable artifact: {artifact['path']}")
    return "\n".join(lines)


def run_bench(args: Any) -> int:
    """CLI entry: run the suite, write the artifact, optionally compare.

    With the ``history`` action, tabulate the committed per-revision
    artifacts instead of running anything.

    Exit codes: 0 clean, 1 regression against ``--against``.
    """
    if getattr(args, "action", "run") == "history":
        print(render_history(load_history(args.dir)))
        return 0

    artifact = run_suite(quick=args.quick)
    out_path = Path(
        args.out if args.out else f"BENCH_{artifact['revision']}.json"
    )
    out_path.write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    print(f"bench suite ({'quick' if args.quick else 'full'}) "
          f"rev {artifact['revision']} -> {out_path}")
    for name, bench in sorted(artifact["benches"].items()):
        metric = bench["primary"]
        print(f"  {name:<24} {metric} = {bench[metric]:.4g}")

    if args.against:
        with open(args.against, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        if bool(baseline.get("quick")) != args.quick:
            print(
                "note: quick/full mismatch against baseline; "
                "comparison is indicative only"
            )
        rows = compare(current=artifact, baseline=baseline,
                       threshold=args.threshold)
        print()
        print(render_comparison(rows))
        if any(row["regressed"] for row in rows):
            print("\nFAIL: regression beyond the per-bench gate "
                  "thresholds (see the gate column)")
            return 1
    return 0
