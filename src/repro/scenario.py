"""One-factory scenario wiring: ``Scenario.build(...)``.

Every experiment in this repo wires the same stack -- simulator,
device, channel, verifier enrollment, workload, malware, attestation
mechanism, and (optionally) a fault plan with its retry policy --
and the wiring *order* matters: it fixes the simulator's event
sequence numbers, which the fleet's byte-identical golden artifacts
pin down.  :meth:`Scenario.build` is that order, written once:

    sim -> device (+layout) -> channel -> attach -> enroll
        -> workload -> malware -> mechanism -> faults

Callers get back a :class:`Scenario` holding every constructed piece
plus the one way to drive a run and the one way to fold it::

    sc = Scenario.build(mechanism="smart", malware="transient",
                        faults="loss=0.3@0:30;reset@6",
                        workload="firealarm",
                        retry=RetryPolicy(timeout=0.5))
    sc.drive()        # one request at config.request_at
    sc.run(until=40.0)
    print(sc.outcome().availability.summary_line())
    print(sc.outcomes.render())

Each axis of a run is declared once, as a table of builders:
:data:`MECHANISMS` (how a run is driven -- on-demand, self-measurement
or prover-pushed -- and how its prover-side service is built),
:data:`MALWARE` and :data:`WORKLOADS`.  ``Scenario.build``, the fleet
and the Table 1 harness all read them, and every builder reads its
settings from the one :class:`~repro.core.tradeoff.ScenarioConfig`.

:mod:`repro.experiments` and the fleet executor route through this factory;
hand-wiring the stack elsewhere is reserved for tests that probe a
single layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.apps.firealarm import FireAlarmApp
from repro.apps.metrics import AvailabilityReport, summarize_tasks
from repro.apps.workloads import WriterWorkload
from repro.core.tradeoff import ScenarioConfig
from repro.errors import ConfigurationError
from repro.malware.relocating import SelfRelocatingMalware
from repro.malware.transient import TransientMalware
from repro.ra.erasmus import CollectorVerifier, ErasmusService
from repro.ra.locking import make_policy
from repro.ra.measurement import MeasurementConfig
from repro.ra.report import Verdict
from repro.ra.seed import SeedMonitor, SeedService
from repro.ra.service import AttestationService, OnDemandVerifier
from repro.ra.smarm_service import SmarmAttestation
from repro.ra.smart import SmartAttestation
from repro.ra.verifier import Verifier
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.outcome import OutcomeReport
from repro.resilience.retry import RetryPolicy
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel
from repro.sim.process import Compute

# ---------------------------------------------------------------------------
# The axes of a run: mechanism, malware, workload; each declared once
# ---------------------------------------------------------------------------

#: ``(device, config) -> service``
Builder = Callable[[Device, ScenarioConfig], Any]


def _one_round(config: ScenarioConfig) -> int:
    return 1


@dataclass(frozen=True)
class Mechanism:
    """How one attestation mechanism is driven and built.

    ``kind`` is how a run is driven (Fig. 3): ``"on-demand"`` (the
    verifier requests; a driver), ``"self"`` (the prover measures on
    its own schedule; a collector) or ``"push"`` (the prover measures
    and sends on a secret schedule; a monitor).  ``rounds`` is the
    number of measurement passes per on-demand request."""

    kind: str
    build: Builder
    rounds: Callable[[ScenarioConfig], int] = _one_round


def _measurement(
    config: ScenarioConfig, atomic: bool, locking: Optional[str] = None
) -> MeasurementConfig:
    return MeasurementConfig(
        algorithm=config.algorithm,
        order="sequential",
        atomic=atomic,
        locking=make_policy(locking) if locking else None,
        priority=config.mp_priority,
        normalize_mutable=True,
    )


def _build_smart(device: Device, config: ScenarioConfig) -> Any:
    service = SmartAttestation(device, algorithm=config.algorithm)
    service.config.normalize_mutable = True
    return service


def _build_locking(policy: str) -> Builder:
    def build(device: Device, config: ScenarioConfig) -> Any:
        return AttestationService(
            device, _measurement(config, atomic=False, locking=policy),
            mechanism=policy,
        )

    return build


def _build_smarm(device: Device, config: ScenarioConfig) -> Any:
    service = SmarmAttestation(
        device, algorithm=config.algorithm, priority=config.mp_priority,
    )
    service.config.normalize_mutable = True
    return service


def _build_erasmus(device: Device, config: ScenarioConfig) -> Any:
    # ERASMUS runs SMART-style measurements, self-timed
    return ErasmusService(
        device, period=config.t_m,
        config=_measurement(config, atomic=True),
    )


def _given(value: Any, default: Any) -> Any:
    return default if value is None else value


def _build_seed(device: Device, config: ScenarioConfig) -> Any:
    shared = config.seed_shared
    if shared is None:
        shared = hashlib.sha256(
            f"scenario-seed-{device.name}".encode()
        ).digest()[:16]
    period = config.t_m
    return SeedService(
        device,
        shared,
        min_gap=_given(config.seed_min_gap, 0.5 * period),
        max_gap=_given(config.seed_max_gap, 1.5 * period),
        trigger_count=_given(
            config.seed_triggers, max(1, int(config.horizon / period))
        ),
        config=_measurement(config, atomic=False),
        serve_fetch=config.seed_serve_fetch,
    )


#: every mechanism ``Scenario.build`` wires (besides ``"none"``), the
#: fleet runs and ``evaluate_all`` accepts; adding one is one entry
MECHANISMS: Dict[str, Mechanism] = {
    "smart": Mechanism("on-demand", _build_smart),
    "all-lock": Mechanism("on-demand", _build_locking("all-lock")),
    "dec-lock": Mechanism("on-demand", _build_locking("dec-lock")),
    "inc-lock": Mechanism("on-demand", _build_locking("inc-lock")),
    "no-lock": Mechanism("on-demand", _build_locking("no-lock")),
    "smarm": Mechanism(
        "on-demand", _build_smarm,
        rounds=lambda config: config.rounds,
    ),
    "erasmus": Mechanism("self", _build_erasmus),
    "seed": Mechanism("push", _build_seed),
}


def _transient(device: Device, config: ScenarioConfig) -> Any:
    explicit_dwell = config.dwell > 0
    return TransientMalware(
        device,
        target_block=config.malware_block,
        infect_at=config.infect_at,
        leave_at=config.infect_at + config.dwell if explicit_dwell else None,
        reactive=not explicit_dwell,
        reappear=not explicit_dwell,
    )


def _relocating(device: Device, config: ScenarioConfig) -> Any:
    return SelfRelocatingMalware(
        device,
        target_block=config.malware_block,
        infect_at=config.infect_at,
        strategy=config.relocation_strategy,
        rng_seed=config.relocation_seed,
    )


#: every adversary ``Scenario.build`` installs (besides ``"none"``):
#: ``(device, config) -> agent``
MALWARE: Dict[str, Callable[[Device, ScenarioConfig], Any]] = {
    "transient": _transient,
    "relocating": _relocating,
}


def _firealarm(scenario: "Scenario") -> None:
    config, device = scenario.config, scenario.device
    app = FireAlarmApp(
        device,
        period=config.task_period,
        sample_wcet=config.task_wcet,
        priority=config.task_priority,
        data_block=(
            device.memory.regions["data"].end - 1
            if config.alarm_writes else None
        ),
    )
    scenario.app = app
    scenario.tasks.append(app.task)


def _writers(scenario: "Scenario") -> None:
    config = scenario.config
    scenario.tasks.extend(WriterWorkload(
        scenario.device,
        task_count=config.writer_tasks,
        period=config.task_period,
        wcet=config.task_wcet,
        priority=config.task_priority,
    ).build().tasks)


#: every workload ``Scenario.build`` installs (besides ``"none"``):
#: ``(scenario) -> None``, filling ``scenario.tasks`` (and ``app``)
WORKLOADS: Dict[str, Callable[["Scenario"], None]] = {
    "firealarm": _firealarm,
    "writers": _writers,
}


def first_detection(results: Iterable[Any]) -> Optional[float]:
    """When the verifier first said COMPROMISED (the earliest
    ``verified_at`` of such a verdict in ``results``), or None."""
    return min(
        (r.verified_at for r in results if r.verdict is Verdict.COMPROMISED),
        default=None,
    )


@dataclass(frozen=True)
class ScenarioOutcome:
    """One run folded into numbers (:meth:`Scenario.outcome`)."""

    records: List[Any]
    reports: List[Any]
    first_detection_at: Optional[float]
    #: the first record's duration, 0.0 when nothing was measured
    mp_duration: float
    #: the most preemptions any one record saw
    mp_interruptions: int
    lock_ops: int
    #: the tasks' availability with the exchange outcomes folded in;
    #: None when the run had no workload
    availability: Optional[AvailabilityReport]
    #: write probes released, and those that committed promptly
    probes_attempted: int
    probes_succeeded: int

    @property
    def detected(self) -> bool:
        return self.first_detection_at is not None


@dataclass
class Scenario:
    """Everything ``build`` wired together, ready to run."""

    mechanism: str
    sim: Simulator
    device: Device
    channel: Channel
    verifier: Verifier
    config: ScenarioConfig
    service: Any = None
    driver: Optional[OnDemandVerifier] = None
    collector: Optional[CollectorVerifier] = None
    seed_monitor: Optional[SeedMonitor] = None
    app: Optional[FireAlarmApp] = None
    tasks: List[Any] = field(default_factory=list)
    malware: Any = None
    retry: Optional[RetryPolicy] = None
    outcomes: Optional[OutcomeReport] = None
    fault_plan: Optional[FaultPlan] = None
    injector: Optional[FaultInjector] = None
    #: write probes released and promptly committed (:meth:`drive`)
    probes_attempted: int = 0
    probes_succeeded: int = 0

    # -- conveniences ------------------------------------------------------

    def schedule_request(
        self,
        at: float,
        rounds: Optional[int] = None,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Schedule one on-demand attestation request at sim time
        ``at`` (mechanism must be on-demand) for ``rounds`` passes
        (default: the mechanism's)."""
        if self.driver is None:
            raise ConfigurationError(
                f"mechanism {self.mechanism!r} takes no on-demand requests"
            )
        self.sim.schedule_at(
            at, self.driver.request, self.device.name, rounds, on_result,
        )

    def schedule_collections(self, period: float, count: int) -> None:
        """Schedule periodic ERASMUS collections (T_C)."""
        if self.collector is None:
            raise ConfigurationError(
                f"mechanism {self.mechanism!r} has no collector"
            )
        self.collector.collect_every(self.device.name, period, count)

    def drive(self) -> None:
        """Schedule what the mechanism's kind needs to run (Fig. 3):
        one request at ``config.request_at`` for an on-demand
        mechanism, ``max(1, int(horizon / T_C))`` collections every T_C
        (``config.t_c``) for a self-measuring one, and nothing for a
        push mechanism or ``"none"``; then ``config.probe_count``
        write probes (:meth:`_install_probes`)."""
        config = self.config
        if self.driver is not None:
            self.schedule_request(config.request_at)
        elif self.collector is not None:
            period = config.t_c
            self.schedule_collections(
                period, max(1, int(config.horizon / period))
            )
        if config.probe_count > 0:
            self._install_probes()

    def _install_probes(self) -> None:
        """Fire ``config.probe_count`` write attempts into the data
        region, spread across the first measurement's estimated window
        (from just after the request, or t=0 without a driver).

        A probe models a task trying to update state mid-measurement;
        it runs as a maximum-priority one-shot job so the only
        obstacles are atomicity (no CPU) and MPU locks.  A probe
        *succeeds* only if the write commits within ``budget`` of its
        release: a write that had to wait for the whole measurement is
        exactly the unavailability Table 1's column is about.
        """
        config, device = self.config, self.device
        count = config.probe_count
        mp_estimate = device.timing.hash_time(
            config.algorithm, config.sim_block_size
        ) * config.block_count
        start = config.request_at + 0.01 if self.driver is not None else 0.0
        # (start + estimate) - start, not the estimate itself: the
        # rounded span fixes the probe instants the table1 golden pins
        span = (start + mp_estimate) - start
        budget = 0.005
        data_region = device.memory.regions["data"]
        for index in range(count):
            fire_at = start + span * (index + 0.5) / count
            block = data_region.start + (index % data_region.length)

            def probe_job(proc, block=block, released=fire_at):
                yield Compute(1e-6)
                self.probes_attempted += 1
                payload = b"\xEE" * device.memory.block_size
                committed = device.memory.try_write(block, payload, "probe")
                if committed and device.sim.now - released <= budget:
                    self.probes_succeeded += 1

            device.sim.schedule_at(
                fire_at,
                lambda job=probe_job, i=index: device.cpu.spawn(
                    f"probe{i}", job, priority=10_000
                ),
            )

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation (default horizon: the config's)."""
        return self.sim.run(
            until=self.config.horizon if until is None else until
        )

    def produced(self) -> Tuple[List[Any], List[Any]]:
        """The measurement records and the reports the run produced:
        a self-measuring prover's history and its collections, else
        every record of every report the prover sent."""
        if self.collector is not None:
            return (
                list(self.service.history),
                list(self.collector.collections),
            )
        if self.service is None:
            return [], []
        reports = list(self.service.reports_sent)
        return [rec for report in reports for rec in report.records], reports

    def outcome(self) -> ScenarioOutcome:
        """Fold the run so far (:meth:`produced`, the verifier's
        verdicts, the MPU and the tasks) into a :class:`ScenarioOutcome`."""
        records, reports = self.produced()
        availability = None
        if self.tasks:
            availability = summarize_tasks(self.device, self.tasks)
            if self.outcomes is not None:
                self.outcomes.fold_into(availability)
        mpu = self.device.mpu
        return ScenarioOutcome(
            records=records,
            reports=reports,
            first_detection_at=first_detection(self.verifier.results),
            mp_duration=records[0].duration if records else 0.0,
            mp_interruptions=max(
                (rec.interruptions for rec in records), default=0
            ),
            lock_ops=mpu.lock_ops + mpu.unlock_ops,
            availability=availability,
            probes_attempted=self.probes_attempted,
            probes_succeeded=self.probes_succeeded,
        )

    # -- the factory -------------------------------------------------------

    @staticmethod
    def _build_service(service: Any, obs: Optional[Any]) -> Any:
        from repro.vserver.service import (
            ServiceConfig,
            build_service_scenario,
        )

        if service is True:
            built = ServiceConfig.parse("smoke")
        elif isinstance(service, str):
            built = ServiceConfig.parse(service)
        elif isinstance(service, ServiceConfig):
            built = service
        else:
            raise ConfigurationError(
                "service must be a ServiceConfig, preset/DSL string, "
                "or True for the smoke preset"
            )
        return build_service_scenario(built, obs=obs)

    @classmethod
    def build(
        cls,
        mechanism: str = "smart",
        malware: str = "none",
        faults: Optional[Any] = None,
        workload: Optional[str] = None,
        *,
        config: Optional[ScenarioConfig] = None,
        seed: int = 7,
        retry: Optional[RetryPolicy] = None,
        obs: Optional[Any] = None,
        trace: Optional[Any] = None,
        latency: float = 0.002,
        layout: Optional[str] = "standard",
        fault_seed: Optional[bytes] = None,
        service: Optional[Any] = None,
    ) -> Any:
        """Wire one complete scenario; see the module docstring for the
        canonical order.  ``faults`` accepts a :class:`FaultPlan` or the
        DSL string form; ``mechanism``, ``malware`` and ``workload`` are
        each a key of their table (:data:`MECHANISMS`, :data:`MALWARE`,
        :data:`WORKLOADS`) or ``"none"``; every other setting is a
        ``config`` field.

        ``service`` switches to the population-scale served-verifier
        stack (the ``vserver`` layer): pass a
        :class:`~repro.vserver.service.ServiceConfig`, a preset/DSL
        string (``"smoke"``, ``"smoke;provers=12"``), or ``True`` for
        the smoke preset.  That form returns a
        :class:`~repro.vserver.service.ServiceScenario` (a population
        has no single device/channel), accepts only ``obs=`` from the
        single-device parameter set, and rejects the rest.
        """
        if service is not None:
            single_device_args = {
                "mechanism": mechanism != "smart",
                "malware": malware != "none",
                "faults": faults is not None,
                "workload": workload is not None,
                "config": config is not None,
                "seed": seed != 7,
                "retry": retry is not None,
                "trace": trace is not None,
                "latency": latency != 0.002,
                "layout": layout != "standard",
                "fault_seed": fault_seed is not None,
            }
            passed = sorted(k for k, v in single_device_args.items() if v)
            if passed:
                raise ConfigurationError(
                    "service= builds the population-scale vserver stack "
                    "and takes only obs=; incompatible "
                    f"argument(s): {', '.join(passed)}"
                )
            return cls._build_service(service, obs)
        config = config or ScenarioConfig()
        workload = workload or "none"
        for axis, name, table in (
            ("mechanism", mechanism, MECHANISMS),
            ("malware", malware, MALWARE),
            ("workload", workload, WORKLOADS),
        ):
            if name != "none" and name not in table:
                raise ConfigurationError(f"unknown {axis} {name!r}")

        # fault plan + degradation ledger (both inert when unused)
        plan: Optional[FaultPlan] = None
        if isinstance(faults, FaultPlan):
            plan = faults
        elif isinstance(faults, str):
            plan = FaultPlan.parse(
                faults,
                seed=fault_seed or f"scenario-{seed}".encode(),
            )
            if plan.empty:
                plan = None
        elif faults is not None:
            raise ConfigurationError(
                "faults must be a FaultPlan or DSL string"
            )
        outcomes = None
        if retry is not None or plan is not None:
            outcomes = OutcomeReport()

        # sim -> device (+layout) -> channel -> attach -> enroll
        sim = Simulator(obs=obs) if obs is not None else Simulator()
        device = Device(
            sim,
            block_count=config.block_count,
            block_size=config.block_size,
            sim_block_size=config.sim_block_size,
            seed=seed,
            **({"trace": trace} if trace is not None else {}),
        )
        if layout == "standard":
            device.standard_layout()
        elif layout is not None:
            raise ConfigurationError(f"unknown layout {layout!r}")
        if config.probe_count > 0 and "data" not in device.memory.regions:
            raise ConfigurationError(
                "probe_count needs a layout with a data region"
            )
        channel = Channel(sim, latency=latency, trace=device.trace)
        device.attach_network(channel)
        verifier = Verifier(sim)
        verifier.enroll(device)

        scenario = cls(
            mechanism=mechanism,
            sim=sim,
            device=device,
            channel=channel,
            verifier=verifier,
            config=config,
            retry=retry,
            outcomes=outcomes,
            fault_plan=plan,
        )

        # workload -> malware -> mechanism
        if workload != "none":
            WORKLOADS[workload](scenario)
        if malware != "none":
            scenario.malware = MALWARE[malware](device, config)
        cls._install_mechanism(scenario)

        # faults last: the injector filters a fully-wired channel, and
        # reset/drift events land after every service's own start events
        if plan is not None and not plan.empty:
            scenario.injector = plan.install(
                channel=channel, device=device, outcomes=outcomes
            )
        return scenario

    # -- wiring helpers ----------------------------------------------------

    @staticmethod
    def _install_mechanism(scenario: "Scenario") -> None:
        # service -> driver/collector/monitor -> install()/start(): the
        # order fixes the event sequence numbers the goldens pin
        entry = MECHANISMS.get(scenario.mechanism)
        if entry is None:  # "none"
            return
        service = entry.build(scenario.device, scenario.config)
        scenario.service = service
        if entry.kind == "on-demand":
            scenario.driver = OnDemandVerifier(
                scenario.verifier, scenario.channel,
                retry=scenario.retry, outcomes=scenario.outcomes,
                rounds=entry.rounds(scenario.config),
            )
            service.install()
        elif entry.kind == "self":
            scenario.collector = CollectorVerifier(
                scenario.verifier, scenario.channel, retry=scenario.retry
            )
            service.start()
        else:  # push
            scenario.seed_monitor = SeedMonitor(
                scenario.verifier, scenario.channel, scenario.device.name,
                service.shared_seed, min_gap=service.min_gap,
                max_gap=service.max_gap, trigger_count=len(service.schedule),
                catch_up=scenario.config.seed_catch_up,
            )
            service.start()
