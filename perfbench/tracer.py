"""Per-layer wall-time attribution for one traced benchmark pass.

The tracer patches methods on the simulator's class objects from the
outside (nothing under ``src/`` changes) and keeps a stack of open
frames.  When a frame closes, its duration minus the time of the
frames it enclosed is that call's *self* time, charged to the frame's
layer and, when it has one, to its named sub-metric.

Event callbacks are attributed through the public
:class:`repro.obs.profiler.EventLoopProfiler` with the injected
``repro.fleet.clock.perf_time`` wall clock: each fired callback's wall
time, minus the wrapped calls it made, is charged to the layer its
module belongs to, and that share is taken out of the enclosing
``Simulator.run`` frame, which keeps only the dispatch loop itself.

Every second of the traced pass lands in exactly one bucket -- a layer,
the profiler's own bookkeeping, or ``other`` (the benchmark loop and
code no layer claims) -- so the layer self times plus
``trace.other_ms`` sum to the traced wall time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: module prefix of an event-callback site -> layer (first match wins)
SITE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.process", "sim.process"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.memory", "sim.memory"),
    ("repro.sim.mpu", "sim.mpu"),
    ("repro.vserver.loadgen", "vserver.loadgen"),
    ("repro.vserver", "vserver"),
    ("repro.ra.verifier", "ra.verifier"),
    ("repro.ra.measurement", "ra.measurement"),
    ("repro.ra.locking", "ra.locking"),
    ("repro.ra", "ra.service"),
    ("repro.malware", "malware"),
    ("repro.apps", "apps"),
)

#: every layer a self time can be charged to, in report order
LAYERS: Tuple[str, ...] = (
    "crypto",
    "ra.smarm",
    "sim.engine",
    "sim.process",
    "sim.memory",
    "sim.mpu",
    "sim.network",
    "ra.measurement",
    "ra.locking",
    "ra.service",
    "ra.verifier",
    "vserver",
    "vserver.loadgen",
    "scenario.build",
    "fleet.execute",
    "fleet.checkpoint",
    "fleet.reduce",
    "fleet.pipeline",
    "obs.metrics",
    "malware",
    "apps",
    "trace.bookkeeping",
    "other",
)


def site_layer(site: str) -> str:
    for prefix, layer in SITE_LAYERS:
        if site.startswith(prefix):
            return layer
    return "other"


class Tracer:
    """Frame stack, self-time ledger and the patch list to undo."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: open frames: [layer, sub, start, enclosed_seconds]
        self.stack: List[List[Any]] = []
        self.layer_s: Dict[str, float] = defaultdict(float)
        self.sub_self_s: Dict[str, float] = defaultdict(float)
        self.sub_incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- frames ---------------------------------------------------------

    def enter(self, layer: str, sub: Optional[str] = None) -> None:
        self.stack.append([layer, sub, self.clock(), 0.0])

    def exit(self) -> float:
        end = self.clock()
        layer, sub, start, enclosed = self.stack.pop()
        duration = end - start
        own = duration - enclosed
        self.layer_s[layer] += own
        if sub is not None:
            self.sub_self_s[sub] += own
            self.sub_incl_s[sub] += duration
            self.calls[sub] += 1
        if self.stack:
            self.stack[-1][3] += duration
        return duration

    def charge(self, layer: str, seconds: float) -> None:
        """Move ``seconds`` of the open frame's time to ``layer``."""
        self.layer_s[layer] += seconds
        if self.stack:
            self.stack[-1][3] += seconds

    # -- patching -------------------------------------------------------

    def wrap(
        self,
        cls: Any,
        name: str,
        layer: str,
        sub: Optional[str] = None,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Time every call of ``cls.name`` as a ``layer`` frame.

        ``before(args, kwargs)`` runs ahead of the call and its value
        is handed to ``after(token, args, kwargs, result)`` once the
        call returns (not when it raises); both run outside the frame
        so their cost is not charged to the layer.
        """
        raw = cls.__dict__[name]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        stack = self.stack
        clock = self.clock
        layer_s = self.layer_s
        sub_self_s = self.sub_self_s
        sub_incl_s = self.sub_incl_s
        calls = self.calls

        # enter()/exit() inlined: a traced pass makes ~10^6 such calls
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before(args, kwargs) if before is not None else None
            frame = [layer, sub, 0.0, 0.0]
            stack.append(frame)
            frame[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                own = duration - frame[3]
                layer_s[layer] += own
                if sub is not None:
                    sub_self_s[sub] += own
                    sub_incl_s[sub] += duration
                    calls[sub] += 1
                if stack:
                    stack[-1][3] += duration
            if after is not None:
                after(token, args, kwargs, result)
            return result

        setattr(cls, name, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((cls, name, raw))

    def wrap_generator(
        self,
        cls: Any,
        name: str,
        layer: str,
        sub: Optional[str] = None,
        on_return: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Time a generator method per resume: each ``send``/``throw``
        into the original generator is one ``layer`` frame."""
        raw = cls.__dict__[name]
        tracer = self

        @functools.wraps(raw)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = raw(*args, **kwargs)
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                tracer.enter(layer, sub)
                try:
                    if error is not None:
                        item = inner.throw(error)
                    else:
                        item = inner.send(value)
                except StopIteration as stop:
                    if on_return is not None:
                        on_return(stop.value)
                    return stop.value
                finally:
                    tracer.exit()
                error = None
                value = None
                try:
                    value = yield item
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # forwarded into the body
                    error = exc

        setattr(cls, name, wrapper)
        self._patches.append((cls, name, raw))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            cls, name, raw = self._patches.pop()
            setattr(cls, name, raw)


def _arg(args: Tuple[Any, ...], kwargs: Dict[str, Any], index: int,
         name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def instrument(tracer: Tracer) -> Any:
    """Patch every layer's entry points; return the layer profiler
    that event loops must be handed (through ``Observability``)."""
    from repro.crypto.drbg import HmacDrbg
    from repro.crypto.hmac import Hmac
    from repro.fleet import executor, pipeline
    from repro.fleet.store import ShardCheckpointStore
    from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
    from repro.perf.digest_cache import DigestCache
    from repro.ra import locking, smarm
    from repro.ra.measurement import MeasurementProcess
    from repro.ra.verifier import Verifier
    from repro.scenario import Scenario
    from repro.sim.engine import Simulator
    from repro.sim.memory import Memory
    from repro.sim.mpu import MemoryProtectionUnit
    from repro.sim.network import Channel, Endpoint, MuxEndpoint
    from repro.sim.process import CPU
    from repro.vserver.server import VerifierServer

    profiler = make_profiler(tracer)
    counts = tracer.counts
    wrap = tracer.wrap

    # crypto: the classes, because other modules bind them by name
    wrap(Hmac, "__init__", "crypto", "crypto.hmac_init")
    wrap(Hmac, "update", "crypto", "crypto.hmac_update")
    wrap(Hmac, "digest", "crypto", "crypto.hmac_digest")
    wrap(Hmac, "copy", "crypto", "crypto.hmac_copy")

    def drbg_bytes(token, args, kwargs, result) -> None:
        counts["crypto.drbg.bytes"] += _arg(args, kwargs, 1, "num_bytes")

    wrap(HmacDrbg, "generate", "crypto", "crypto.drbg_generate",
         after=drbg_bytes)
    for name in ("__init__", "reseed", "randbelow", "shuffle"):
        wrap(HmacDrbg, name, "crypto", "crypto.drbg_sample")

    # the SMARM game: escape_probability looks escape_trial up in its
    # own module globals, so the module attributes are the seam here
    wrap(smarm, "escape_probability", "ra.smarm")
    wrap(smarm, "escape_trial", "ra.smarm")

    # engine: dispatch loop and scheduling; callbacks via the profiler
    def new_run(args, kwargs) -> None:
        profiler.mark = 0.0

    wrap(Simulator, "run", "sim.engine", before=new_run)
    wrap(Simulator, "schedule", "sim.engine")
    wrap(Simulator, "schedule_at", "sim.engine")
    wrap(CPU, "spawn", "sim.process")
    wrap(CPU, "kill", "sim.process")

    def measured(record: Any) -> None:
        counts["ra.measurement.runs"] += 1
        counts["ra.measurement.blocks"] += record.block_count

    tracer.wrap_generator(MeasurementProcess, "run", "ra.measurement",
                          on_return=measured)

    def lookup_hit(token, args, kwargs, result) -> None:
        counts["perf.digest_cache.lookups"] += 1
        counts["perf.digest_cache.hits"] += result is not None

    wrap(DigestCache, "lookup", "ra.measurement", after=lookup_hit)

    # memory: a write commits iff the block's generation moved; a write
    # the MPU refuses may raise, so attempts are counted up front
    def generation(args, kwargs) -> int:
        return args[0].generations[_arg(args, kwargs, 1, "block_index")]

    def attempt(args, kwargs) -> int:
        counts["sim.memory.writes"] += 1
        return generation(args, kwargs)

    def committed(token, args, kwargs, result) -> None:
        if generation(args, kwargs) != token:
            counts["sim.memory.commits"] += 1

    wrap(Memory, "read_block", "sim.memory", "sim.memory.read")
    wrap(Memory, "write", "sim.memory", before=attempt, after=committed)
    wrap(Memory, "patch", "sim.memory", before=attempt, after=committed)
    for name in ("__init__", "try_write", "snapshot", "load_image",
                 "benign_image", "dirty_blocks"):
        wrap(Memory, name, "sim.memory")
    for name in ("lock", "unlock", "lock_many", "unlock_many", "lock_all",
                 "unlock_all", "check_write", "reset"):
        wrap(MemoryProtectionUnit, name, "sim.mpu")
    for cls in (locking.LockingPolicy, locking.NoLock, locking.AllLock,
                locking.DecLock, locking.IncLock):
        for name in ("reset", "on_start", "before_block", "after_block",
                     "on_end", "on_release", "abort"):
            if name in cls.__dict__:
                wrap(cls, name, "ra.locking")

    wrap(Channel, "send", "sim.network", "sim.network.messages")
    for cls in (Endpoint, MuxEndpoint):
        for name in ("send", "deliver", "receive", "drain"):
            if name in cls.__dict__:
                wrap(cls, name, "sim.network")

    wrap(Verifier, "verify_report", "ra.verifier", "ra.verifier.verify_report")
    wrap(Verifier, "verify_batch", "ra.verifier", "ra.verifier.verify_batch")
    for name in ("verify_record", "expected_for", "enroll"):
        wrap(Verifier, name, "ra.verifier")
    wrap(VerifierServer, "submit", "vserver")

    wrap(Scenario, "build", "scenario.build")
    wrap(executor, "execute_run", "fleet.execute")
    for name in ("open", "write_shard", "completed_shards", "discard"):
        wrap(ShardCheckpointStore, name, "fleet.checkpoint")
    tracer.wrap_generator(ShardCheckpointStore, "read_shard",
                          "fleet.checkpoint")
    wrap(pipeline, "_reduce_stream", "fleet.reduce")
    wrap(pipeline, "_write_summary_and_manifest", "fleet.reduce")
    wrap(pipeline, "run_pipeline", "fleet.pipeline")

    wrap(Counter, "inc", "obs.metrics")
    wrap(Gauge, "set", "obs.metrics")
    wrap(Gauge, "add", "obs.metrics")
    wrap(Histogram, "observe", "obs.metrics")
    for name in ("counter", "gauge", "histogram", "snapshot",
                 "snapshot_flat"):
        wrap(MetricsRegistry, name, "obs.metrics")
    return profiler


def layer_metrics(tracer: Tracer, profiler: Any, wall_s: float) -> Dict[str, float]:
    """The traced pass as named per-layer numbers (times in ms)."""
    ms = {layer: tracer.layer_s.get(layer, 0.0) * 1e3 for layer in LAYERS}
    sub_ms = lambda sub: tracer.sub_self_s.get(sub, 0.0) * 1e3  # noqa: E731
    calls = lambda sub: float(tracer.calls.get(sub, 0))  # noqa: E731
    counts = tracer.counts
    out: Dict[str, float] = {}
    for sub in ("crypto.hmac_init", "crypto.hmac_update",
                "crypto.hmac_digest", "crypto.drbg_generate"):
        out[f"{sub}.calls"] = calls(sub)
        out[f"{sub}.self_ms"] = sub_ms(sub)
    out["crypto.drbg.bytes"] = counts["crypto.drbg.bytes"]
    out["crypto.self_ms"] = ms["crypto"]
    out["ra.smarm.self_ms"] = ms["ra.smarm"]

    events = float(profiler.total_events)
    out["sim.engine.events_fired"] = events
    out["sim.engine.self_ms"] = ms["sim.engine"]
    out["sim.engine.us_per_event"] = (
        ms["sim.engine"] * 1e3 / events if events else 0.0
    )
    out["sim.process.resumes"] = float(profiler.layer_events["sim.process"])
    out["sim.process.self_ms"] = ms["sim.process"]

    out["ra.measurement.runs"] = counts["ra.measurement.runs"]
    out["ra.measurement.blocks"] = counts["ra.measurement.blocks"]
    out["ra.measurement.self_ms"] = ms["ra.measurement"]
    lookups = counts["perf.digest_cache.lookups"]
    out["perf.digest_cache.hit_ratio"] = (
        counts["perf.digest_cache.hits"] / lookups if lookups else 0.0
    )

    writes = counts["sim.memory.writes"]
    out["sim.memory.reads"] = calls("sim.memory.read")
    out["sim.memory.writes"] = writes
    out["sim.memory.self_ms"] = ms["sim.memory"]
    out["sim.memory.write_commit_ratio"] = (
        counts["sim.memory.commits"] / writes if writes else 1.0
    )
    out["sim.mpu.self_ms"] = ms["sim.mpu"]
    out["ra.locking.self_ms"] = ms["ra.locking"]
    out["ra.service.self_ms"] = ms["ra.service"]

    reports = calls("ra.verifier.verify_report")
    report_s = tracer.sub_incl_s.get("ra.verifier.verify_report", 0.0)
    batch_s = tracer.sub_incl_s.get("ra.verifier.verify_batch", 0.0)
    out["ra.verifier.reports"] = reports
    out["ra.verifier.verify_report_ms"] = report_s * 1e3
    out["ra.verifier.verify_batch_ms"] = batch_s * 1e3
    # a batch encloses its own verify_report calls: count the larger
    out["ra.verifier.us_per_report"] = (
        max(report_s, batch_s) * 1e6 / reports if reports else 0.0
    )
    out["ra.verifier.self_ms"] = ms["ra.verifier"]
    out["vserver.self_ms"] = ms["vserver"]
    out["vserver.loadgen.self_ms"] = ms["vserver.loadgen"]
    out["sim.network.messages"] = calls("sim.network.messages")
    out["sim.network.self_ms"] = ms["sim.network"]

    out["fleet.scenario_build_ms"] = ms["scenario.build"]
    out["fleet.execute_self_ms"] = ms["fleet.execute"]
    out["fleet.checkpoint_ms"] = ms["fleet.checkpoint"]
    out["fleet.reduce_ms"] = ms["fleet.reduce"]
    out["fleet.pipeline_self_ms"] = ms["fleet.pipeline"]
    out["obs.metrics.self_ms"] = ms["obs.metrics"]
    out["malware.self_ms"] = ms["malware"]
    out["apps.self_ms"] = ms["apps"]

    out["trace.wall_ms"] = wall_s * 1e3
    out["trace.bookkeeping_ms"] = ms["trace.bookkeeping"]
    out["trace.other_ms"] = ms["other"]
    return out


def make_profiler(tracer: Tracer) -> Any:
    """An ``EventLoopProfiler`` that charges each callback's self time
    to the layer of the callback's module."""
    from repro.fleet.clock import perf_time
    from repro.obs.profiler import EventLoopProfiler, callback_site

    class LayerProfiler(EventLoopProfiler):
        """Per-site accounting plus layer attribution of callback time."""

        def __init__(self) -> None:
            super().__init__(wall_clock=perf_time)
            #: enclosed time of the open run frame at the last callback
            self.mark = 0.0
            self.site_layer: Dict[str, str] = {}
            self.layer_events: Dict[str, int] = defaultdict(int)

        def record(
            self,
            callback: Callable[..., Any],
            sim_advanced: float,
            wall_elapsed: float = 0.0,
        ) -> None:
            began = tracer.clock()
            super().record(callback, sim_advanced, wall_elapsed)
            site = callback_site(callback)
            layer = self.site_layer.get(site)
            if layer is None:
                layer = self.site_layer[site] = site_layer(site)
            self.layer_events[layer] += 1
            frame = tracer.stack[-1]
            wrapped = frame[3] - self.mark
            tracer.charge(layer, wall_elapsed - wrapped)
            tracer.charge("trace.bookkeeping", tracer.clock() - began)
            self.mark = frame[3]

    return LayerProfiler()
