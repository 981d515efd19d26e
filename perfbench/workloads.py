"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup()``
and then runs identical *passes*: one pass is a fixed amount of
simulated work whose outputs hash to a digest, so every pass of one
seed must produce the same digest, and the same timed *units* in the
same order.  All times are reference-speed host times (see
:mod:`hostspeed`).

All work runs single-threaded in the calling process with the serial
fleet backend; nothing here enables the digest cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import HostSpeed, clock

SERVICE_METRICS = (
    "vserver.submitted",
    "vserver.rejected",
    "vserver.verify_stage_ms",
    "vserver.max_queue_depth",
    "vserver.queue_latency_p99_sim_s",
)


@dataclass
class PassResult:
    #: ops done: escape games, campaign runs or submitted reports
    ops: int
    #: ms of each timed unit: a game, a run, a slice of a storm's run
    unit_ms: List[float]
    digest: str
    #: whether each unit is one op; a storm verifies its reports in
    #: batches, so only its whole run phase divides into ops
    units_are_ops: bool = True
    #: ms of the pass outside its units that throughput still counts
    other_ms: float = 0.0
    #: ops that failed or belong to a failed output check
    failed: int = 0
    problems: List[str] = field(default_factory=list)


class Workload:
    """Base: ``setup`` once, then any number of identical passes."""

    name = ""
    #: what ``setup`` imports; timed apart from the rest of set-up
    modules: Tuple[str, ...] = ()

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.speed = HostSpeed()
        #: observability factory of a traced pass; a traced pass takes
        #: no calibration samples (they would land in the layer times)
        self.obs_factory: Optional[Callable[[], Any]] = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def service_stats(self) -> Dict[str, float]:
        """Served-verifier numbers of the last pass (0 without a server)."""
        return dict.fromkeys(SERVICE_METRICS, 0.0)

    def bracket(self) -> float:
        """A calibration sample (none, 0.0, in a traced pass)."""
        if self.obs_factory is not None:
            return 0.0
        return self.speed.sample()

    def scale(self, *samples: float) -> float:
        """Reference-speed factor for a region between ``samples``
        (1.0 in a traced pass, which is scaled as a whole)."""
        if self.obs_factory is not None:
            return 1.0
        return self.speed.factor(*samples)


# ---------------------------------------------------------------------------
# smarm-mc: the Section 3.2 escape game
# ---------------------------------------------------------------------------


class SmarmMonteCarlo(Workload):
    """Uniform relocating malware against SMARM's shuffled traversal.

    One op is one escape game, played through
    ``repro.ra.smarm.escape_probability`` with its own DRBG seed, so
    each game is timed on its own.  A pass plays the same 512 games,
    calibrating the host every ``chunk`` games.
    """

    name = "smarm-mc"
    modules = ("repro.ra.smarm",)
    blocks = 64
    games = 512
    chunk = 16

    def setup(self) -> None:
        from repro.ra import smarm

        self.smarm = smarm
        self.seeds = [
            b"smarm-mc|%d|%d" % (self.seed, index)
            for index in range(self.games)
        ]

    def run_pass(self) -> PassResult:
        smarm = self.smarm
        blocks = self.blocks
        outcomes = bytearray()
        unit_ms: List[float] = []
        for start in range(0, self.games, self.chunk):
            before = self.bracket()
            raw: List[float] = []
            for seed in self.seeds[start:start + self.chunk]:
                began = clock()
                escaped = smarm.escape_probability(
                    blocks, trials=1, seed=seed
                )
                raw.append(clock() - began)
                outcomes.append(int(escaped))
            factor = self.scale(before, self.bracket())
            unit_ms.extend(t * 1e3 * factor for t in raw)

        exact = ((blocks - 1) / blocks) ** blocks
        sigma = math.sqrt(exact * (1.0 - exact) / self.games)
        estimate = sum(outcomes) / self.games
        problems = []
        if abs(estimate - exact) > 4.0 * sigma:
            problems.append(
                f"escape estimate {estimate:.4f} is more than 4 sigma "
                f"({4 * sigma:.4f}) from ((n-1)/n)^n = {exact:.4f}"
            )
        return PassResult(
            ops=self.games,
            unit_ms=unit_ms,
            digest=hashlib.sha256(bytes(outcomes)).hexdigest(),
            failed=self.games if problems else 0,
            problems=problems,
        )


# ---------------------------------------------------------------------------
# fleet-qoa / fleet-locking: canned campaigns through run_pipeline
# ---------------------------------------------------------------------------


class FleetCampaign(Workload):
    """A canned campaign, run whole through ``fleet.run_pipeline``.

    The campaign's seeds are shifted by the workload seed (seed ``s``
    runs campaign seeds ``s*k .. s*k+k-1`` for a ``k``-seed campaign).
    One op is one campaign run; a pass is the whole campaign, written
    to a fresh directory and reduced to ``runs.jsonl``/summary.  The
    host is calibrated before every run.
    """

    campaign = ""
    modules = (
        "repro.fleet.executor",
        "repro.fleet.pipeline",
        "repro.fleet.backends",
        "repro.fleet.campaign",
    )

    def setup(self) -> None:
        from repro.fleet import executor, pipeline
        from repro.fleet.backends import SerialBackend
        from repro.fleet.campaign import CampaignSpec, canned_campaign

        self.executor = executor
        self.pipeline = pipeline
        self.backend_type = SerialBackend
        canned = canned_campaign(self.campaign)
        count = len(canned.seeds)
        self.spec = CampaignSpec(
            name=canned.name,
            base=canned.base,
            axes=canned.axes,
            seeds=range(self.seed * count, (self.seed + 1) * count),
        )
        # fill the process-wide ReferenceStore: one run per device image
        seen = set()
        for spec in self.spec.plan():
            if spec.seed not in seen:
                seen.add(spec.seed)
                executor.execute_run(spec)

    def run_pass(self) -> PassResult:
        executor = self.executor
        obs_factory = self.obs_factory
        #: (calibration before the run, raw run seconds)
        runs: List[Tuple[float, float]] = []

        def runner(spec: Any) -> Any:
            calibration = self.bracket()
            obs = obs_factory() if obs_factory is not None else None
            began = clock()
            result = executor.execute_run(spec, obs=obs)
            runs.append((calibration, clock() - began))
            return result

        out_dir = Path(tempfile.mkdtemp(prefix="fleet-", dir=self.scratch))
        try:
            start = clock()
            report = self.pipeline.run_pipeline(
                self.spec,
                out_dir=out_dir,
                backend=self.backend_type(),
                runner=runner,
            )
            wall = clock() - start
            paths = report.paths
            digest = hashlib.sha256(
                paths.runs.read_bytes() + paths.summary_json.read_bytes()
            ).hexdigest()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

        calibrations = [c for c, _ in runs] + [self.bracket()]
        unit_ms = [
            raw * 1e3 * self.scale(calibrations[i], calibrations[i + 1])
            for i, (_c, raw) in enumerate(runs)
        ]
        # plan, checkpoint and reduce: the pass minus its runs and its
        # calibration samples, at the pass's median host speed
        other = wall - sum(raw for _c, raw in runs) - sum(calibrations[:-1])
        other_ms = other * 1e3 * self.scale(statistics.median(calibrations))
        ok = report.status_counts.get("ok", 0)
        problems = []
        if ok != report.executed:
            problems.append(
                f"{report.executed - ok} of {report.executed} runs not ok: "
                f"{report.status_counts}"
            )
        return PassResult(
            ops=report.executed,
            unit_ms=unit_ms,
            other_ms=other_ms,
            digest=digest,
            failed=report.executed - ok,
            problems=problems,
        )


class FleetQoa(FleetCampaign):
    name = "fleet-qoa"
    campaign = "qoa"


class FleetLocking(FleetCampaign):
    name = "fleet-locking"
    campaign = "locking"


# ---------------------------------------------------------------------------
# serve-storm1k: the served verifier under a 1000-prover storm
# ---------------------------------------------------------------------------


class ServeStorm(Workload):
    """The ``storm1k`` preset with ``ServiceConfig.seed`` taken from
    the workload seed.  One op is one verified report; a pass builds
    the scenario (enrolment, untimed) and runs it to the horizon
    (timed).  Reports are verified in epoch batches, so an op's time
    is the pass's run-phase time per verified report."""

    name = "serve-storm1k"
    modules = ("repro.scenario", "repro.vserver.service")
    slices = 16

    def setup(self) -> None:
        from repro.scenario import Scenario
        from repro.vserver.service import service_preset

        self.scenario_type = Scenario
        self.config = dataclasses.replace(
            service_preset("storm1k"), seed=f"storm1k-{self.seed}"
        )
        self.last: Any = None
        self.ready = self.build()

    def build(self) -> Any:
        if self.obs_factory is None:
            return self.scenario_type.build(service=self.config)
        from repro.fleet.clock import perf_time

        scenario = self.scenario_type.build(
            service=self.config, obs=self.obs_factory()
        )
        # the server's public hook: wall time inside verification drains
        scenario.server.verify_wall_clock = perf_time
        scenario.server.verify_wall_time = 0.0
        return scenario

    def service_stats(self) -> Dict[str, float]:
        server = self.last.server
        stats = server.stats()
        return {
            "vserver.submitted": float(stats["submitted"]),
            "vserver.rejected": float(stats["rejected"]),
            "vserver.verify_stage_ms": server.verify_wall_time * 1e3,
            "vserver.max_queue_depth": float(stats["max_queue_depth"]),
            "vserver.queue_latency_p99_sim_s": stats["queue_latency_p99"],
        }

    def run_pass(self) -> PassResult:
        scenario = self.ready if self.ready is not None else self.build()
        self.ready = None
        # run to the horizon in slices, each bracketed by calibration,
        # so a change of host load inside the run is tracked
        unit_ms: List[float] = []
        horizon = self.config.horizon
        for step in range(1, self.slices + 1):
            before = self.bracket()
            start = clock()
            stats = scenario.run(until=horizon * step / self.slices)
            raw = clock() - start
            unit_ms.append(raw * 1e3 * self.scale(before, self.bracket()))
        self.last = scenario
        ledger = "\n".join(scenario.ledger_lines()).encode("utf-8")
        verified = stats["verified"]
        submitted = stats["submitted"]
        problems = []
        if stats["unaccounted"] != 0:
            problems.append(f"unaccounted reports: {stats['unaccounted']}")
        if submitted != verified + stats["rejected"]:
            problems.append(
                f"submitted {submitted} != verified {verified} "
                f"+ rejected {stats['rejected']}"
            )
        failed = stats["rejected"] + stats["unaccounted"]
        return PassResult(
            ops=submitted,
            unit_ms=unit_ms,
            units_are_ops=False,
            digest=hashlib.sha256(ledger).hexdigest(),
            failed=submitted if problems else failed,
            problems=problems,
        )


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (SmarmMonteCarlo, FleetQoa, FleetLocking, ServeStorm)
}
