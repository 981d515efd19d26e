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

Each mechanism is declared once, in :data:`MECHANISMS`: how a run
is driven (on-demand, self-measurement or prover-pushed) and how its
prover-side service is built.  ``Scenario.build``, the fleet and the
Table 1 harness all read that table.

``experiments.py`` and the fleet executor route through this factory;
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
from repro.ra.smarm import SmarmAttestation
from repro.ra.smart import SmartAttestation
from repro.ra.verifier import Verifier
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.outcome import OutcomeReport
from repro.resilience.retry import RetryPolicy
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel

# ---------------------------------------------------------------------------
# The mechanisms, each declared once
# ---------------------------------------------------------------------------

#: ``(device, config, options) -> service``; only SeED reads
#: ``options`` (``Scenario.build``'s ``seed_options``)
Builder = Callable[[Device, ScenarioConfig, Dict[str, Any]], Any]


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


def _build_smart(device: Device, config: ScenarioConfig,
                 options: Dict[str, Any]) -> Any:
    service = SmartAttestation(device, algorithm=config.algorithm)
    service.config.normalize_mutable = True
    return service


def _build_locking(policy: str) -> Builder:
    def build(device: Device, config: ScenarioConfig,
              options: Dict[str, Any]) -> Any:
        return AttestationService(
            device, _measurement(config, atomic=False, locking=policy),
            mechanism=policy,
        )

    return build


def _build_smarm(device: Device, config: ScenarioConfig,
                 options: Dict[str, Any]) -> Any:
    service = SmarmAttestation(
        device, algorithm=config.algorithm, priority=config.mp_priority,
    )
    service.config.normalize_mutable = True
    return service


def _build_erasmus(device: Device, config: ScenarioConfig,
                   options: Dict[str, Any]) -> Any:
    # ERASMUS runs SMART-style measurements, self-timed
    return ErasmusService(
        device, period=config.erasmus_period,
        config=_measurement(config, atomic=True),
    )


def _build_seed(device: Device, config: ScenarioConfig,
                options: Dict[str, Any]) -> Any:
    shared = options.get("shared")
    if shared is None:
        shared = hashlib.sha256(
            f"scenario-seed-{device.name}".encode()
        ).digest()[:16]
    return SeedService(
        device,
        shared,
        min_gap=options.get("min_gap", 0.5 * config.erasmus_period),
        max_gap=options.get("max_gap", 1.5 * config.erasmus_period),
        trigger_count=options.get(
            "trigger_count",
            max(1, int(config.horizon / config.erasmus_period)),
        ),
        config=_measurement(config, atomic=False),
        serve_fetch=options.get("serve_fetch", False),
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
        rounds=lambda config: config.smarm_rounds,
    ),
    "erasmus": Mechanism("self", _build_erasmus),
    "seed": Mechanism("push", _build_seed),
}

#: every key some builder of each option axis reads.  ``build`` checks
#: a dict against the union of its axis, not against the one builder
#: it reaches: the fleet executor passes one dict for every adversary
#: (and every mechanism).
OPTION_KEYS: Dict[str, frozenset] = {
    "malware_options": frozenset(
        {"block", "infect_at", "dwell", "strategy", "rng_seed"}
    ),
    "seed_options": frozenset(
        {"shared", "min_gap", "max_gap", "trigger_count", "serve_fetch",
         "catch_up"}
    ),
    "workload_options": frozenset(
        {"period", "wcet", "priority", "data_block", "tasks"}
    ),
}


def _checked_options(
    axis: str, options: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """``options`` (``{}`` for ``None``), or a ConfigurationError
    naming each key no builder of ``axis`` reads."""
    if options is None:
        return {}
    accepted = OPTION_KEYS[axis]
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise ConfigurationError(
            f"{axis}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(sorted(accepted))}"
        )
    return options


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
    seed_service: Optional[SeedService] = None
    seed_monitor: Optional[SeedMonitor] = None
    app: Optional[FireAlarmApp] = None
    tasks: List[Any] = field(default_factory=list)
    malware: Any = None
    retry: Optional[RetryPolicy] = None
    outcomes: Optional[OutcomeReport] = None
    fault_plan: Optional[FaultPlan] = None
    injector: Optional[FaultInjector] = None

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
        (``config.erasmus_collect_period``) for a self-measuring one,
        and nothing for a push mechanism or ``"none"``."""
        config = self.config
        if self.driver is not None:
            self.schedule_request(config.request_at)
        elif self.collector is not None:
            period = config.erasmus_collect_period
            self.schedule_collections(
                period, max(1, int(config.horizon / period))
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
        malware_options: Optional[Dict[str, Any]] = None,
        seed_options: Optional[Dict[str, Any]] = None,
        workload_options: Optional[Dict[str, Any]] = None,
        service: Optional[Any] = None,
    ) -> Any:
        """Wire one complete scenario; see the module docstring for the
        canonical order.  ``faults`` accepts a :class:`FaultPlan` or the
        DSL string form; ``mechanism`` is any :data:`MECHANISMS` key
        or ``"none"``.

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
                "malware_options": malware_options is not None,
                "seed_options": seed_options is not None,
                "workload_options": workload_options is not None,
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
        if mechanism != "none" and mechanism not in MECHANISMS:
            raise ConfigurationError(f"unknown mechanism {mechanism!r}")
        malware_options = _checked_options("malware_options", malware_options)
        seed_options = _checked_options("seed_options", seed_options)
        workload_options = _checked_options(
            "workload_options", workload_options
        )

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
        cls._install_workload(scenario, workload, workload_options)
        scenario.malware = cls._install_malware(
            device, malware, config, malware_options
        )
        cls._install_mechanism(scenario, seed_options)

        # faults last: the injector filters a fully-wired channel, and
        # reset/drift events land after every service's own start events
        if plan is not None and not plan.empty:
            scenario.injector = plan.install(
                channel=channel, device=device, outcomes=outcomes
            )
        return scenario

    # -- wiring helpers ----------------------------------------------------

    @staticmethod
    def _install_workload(
        scenario: "Scenario", workload: Optional[str],
        options: Dict[str, Any],
    ) -> None:
        config = scenario.config
        device = scenario.device
        if workload is None or workload == "none":
            return
        if workload == "firealarm":
            app = FireAlarmApp(
                device,
                period=options.get("period", config.task_period),
                sample_wcet=options.get("wcet", config.task_wcet),
                priority=options.get("priority", config.task_priority),
                data_block=options.get(
                    "data_block", device.memory.regions["data"].end - 1
                ),
            )
            scenario.app = app
            scenario.tasks.append(app.task)
            return
        if workload == "writers":
            built = WriterWorkload(
                device,
                task_count=options.get("tasks", 4),
                period=options.get("period", config.task_period),
                wcet=options.get("wcet", config.task_wcet),
                priority=options.get("priority", config.task_priority),
            ).build()
            scenario.tasks.extend(built.tasks)
            return
        raise ConfigurationError(f"unknown workload {workload!r}")

    @staticmethod
    def _install_malware(
        device: Device, malware: str, config: ScenarioConfig,
        options: Dict[str, Any],
    ) -> Any:
        if malware == "none":
            return None
        block = options.get("block", config.malware_block)
        infect_at = options.get("infect_at", config.infect_at)
        if malware == "transient":
            dwell = options.get("dwell", 0.0)
            explicit_dwell = dwell > 0
            return TransientMalware(
                device,
                target_block=block,
                infect_at=infect_at,
                leave_at=infect_at + dwell if explicit_dwell else None,
                reactive=not explicit_dwell,
                reappear=not explicit_dwell,
            )
        if malware == "relocating":
            return SelfRelocatingMalware(
                device,
                target_block=block,
                infect_at=infect_at,
                strategy=options.get("strategy", "to-measured"),
                rng_seed=options.get("rng_seed", 99),
            )
        raise ConfigurationError(f"unknown malware {malware!r}")

    @staticmethod
    def _install_mechanism(
        scenario: "Scenario", options: Dict[str, Any]
    ) -> None:
        # service -> driver/collector/monitor -> install()/start(): the
        # order fixes the event sequence numbers the goldens pin
        entry = MECHANISMS.get(scenario.mechanism)
        if entry is None:  # "none"
            return
        service = entry.build(scenario.device, scenario.config, options)
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
            scenario.seed_service = service
            scenario.seed_monitor = SeedMonitor(
                scenario.verifier, scenario.channel, scenario.device.name,
                service.shared_seed, min_gap=service.min_gap,
                max_gap=service.max_gap, trigger_count=len(service.schedule),
                catch_up=options.get("catch_up", False),
            )
            service.start()
