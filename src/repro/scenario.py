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
plus convenience methods for the common follow-ups::

    sc = Scenario.build(mechanism="smart", malware="transient",
                        faults="loss=0.3@0:30;reset@6",
                        workload="firealarm",
                        retry=RetryPolicy(timeout=0.5))
    sc.schedule_request(at=2.0)
    sc.run(until=40.0)
    print(sc.outcomes.render())

``experiments.py`` and the fleet executor route through this factory;
hand-wiring the stack elsewhere is reserved for tests that probe a
single layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.apps.firealarm import FireAlarmApp
from repro.apps.workloads import WriterWorkload
from repro.core.tradeoff import (
    ScenarioConfig,
    standard_mechanisms,
)
from repro.errors import ConfigurationError
from repro.malware.relocating import SelfRelocatingMalware
from repro.malware.transient import TransientMalware
from repro.ra.erasmus import CollectorVerifier, ErasmusService
from repro.ra.measurement import MeasurementConfig
from repro.ra.seed import SeedMonitor, SeedService
from repro.ra.service import AttestationService, OnDemandVerifier
from repro.ra.verifier import Verifier
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.outcome import OutcomeReport
from repro.resilience.retry import RetryPolicy
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel

#: mechanisms Scenario.build accepts, beyond standard_mechanisms()
EXTRA_MECHANISMS = ("none", "seed")


@dataclass
class Scenario:
    """Everything ``build`` wired together, ready to run."""

    mechanism: str
    sim: Simulator
    device: Device
    channel: Optional[Channel]
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
    rounds: int = 1

    # -- conveniences ------------------------------------------------------

    def schedule_request(
        self,
        at: float,
        rounds: Optional[int] = None,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Schedule one on-demand attestation request at sim time
        ``at`` (mechanism must be on-demand)."""
        if self.driver is None:
            raise ConfigurationError(
                f"mechanism {self.mechanism!r} takes no on-demand requests"
            )
        self.sim.schedule_at(
            at, self.driver.request, self.device.name,
            self.rounds if rounds is None else rounds, on_result,
        )

    def schedule_collections(self, period: float, count: int) -> None:
        """Schedule periodic ERASMUS collections (T_C)."""
        if self.collector is None:
            raise ConfigurationError(
                f"mechanism {self.mechanism!r} has no collector"
            )
        self.collector.collect_every(self.device.name, period, count)

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation (default horizon: the config's)."""
        return self.sim.run(
            until=self.config.horizon if until is None else until
        )

    # -- the factory -------------------------------------------------------

    @classmethod
    def _build_service(
        cls,
        service: Any,
        obs: Optional[Any],
        overrides: Dict[str, Any],
    ) -> Any:
        import dataclasses as _dataclasses

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
        if overrides:
            built = _dataclasses.replace(built, **overrides)
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
        outcomes: Optional[OutcomeReport] = None,
        sim: Optional[Simulator] = None,
        obs: Optional[Any] = None,
        trace: Optional[Any] = None,
        network: bool = True,
        latency: float = 0.002,
        layout: Optional[str] = "standard",
        code_fraction: float = 0.5,
        measurement_config: Optional[MeasurementConfig] = None,
        signing: Optional[Any] = None,
        fault_seed: Optional[bytes] = None,
        malware_options: Optional[Dict[str, Any]] = None,
        seed_options: Optional[Dict[str, Any]] = None,
        workload_options: Optional[Dict[str, Any]] = None,
        service: Optional[Any] = None,
        service_options: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Wire one complete scenario; see the module docstring for the
        canonical order.  ``faults`` accepts a :class:`FaultPlan` or the
        DSL string form; ``mechanism`` is any ``standard_mechanisms()``
        key plus ``"none"`` and ``"seed"``.

        ``service`` switches to the population-scale served-verifier
        stack (the ``vserver`` layer): pass a
        :class:`~repro.vserver.service.ServiceConfig`, a preset/DSL
        string (``"smoke"``, ``"preset=storm1k;batch=off"``), or
        ``True`` for the smoke preset, plus ``service_options`` to
        replace individual config fields.  That form returns a
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
                "outcomes": outcomes is not None,
                "sim": sim is not None,
                "trace": trace is not None,
                "network": network is not True,
                "latency": latency != 0.002,
                "layout": layout != "standard",
                "code_fraction": code_fraction != 0.5,
                "measurement_config": measurement_config is not None,
                "signing": signing is not None,
                "fault_seed": fault_seed is not None,
                "malware_options": malware_options is not None,
                "seed_options": seed_options is not None,
                "workload_options": workload_options is not None,
            }
            passed = sorted(k for k, v in single_device_args.items() if v)
            if passed:
                raise ConfigurationError(
                    "service= builds the population-scale vserver stack "
                    "and takes only obs=/service_options=; incompatible "
                    f"argument(s): {', '.join(passed)}"
                )
            return cls._build_service(service, obs, service_options or {})
        if service_options:
            raise ConfigurationError("service_options= requires service=")
        config = config or ScenarioConfig()
        setups = standard_mechanisms()
        if mechanism not in setups and mechanism not in EXTRA_MECHANISMS:
            raise ConfigurationError(f"unknown mechanism {mechanism!r}")

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
        if outcomes is None and (retry is not None or plan is not None):
            outcomes = OutcomeReport()

        # sim -> device (+layout) -> channel -> attach -> enroll
        if sim is None:
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
            device.standard_layout(code_fraction=code_fraction)
        elif layout is not None:
            raise ConfigurationError(f"unknown layout {layout!r}")
        channel = None
        if network:
            channel = Channel(sim, latency=latency, trace=device.trace)
            device.attach_network(channel)
        verifier = Verifier(sim)
        verifier.enroll(device, signing=signing)

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
        cls._install_workload(scenario, workload, workload_options or {})
        scenario.malware = cls._install_malware(
            device, malware, config, malware_options or {}
        )
        cls._install_mechanism(
            scenario, setups, measurement_config, seed_options or {}
        )

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

    @classmethod
    def _install_mechanism(
        cls, scenario: "Scenario", setups: Dict[str, Any],
        measurement_config: Optional[MeasurementConfig],
        seed_options: Dict[str, Any],
    ) -> None:
        mechanism = scenario.mechanism
        if mechanism == "none":
            return
        device = scenario.device
        config = scenario.config
        if scenario.channel is None:
            raise ConfigurationError(
                f"mechanism {mechanism!r} needs network=True"
            )
        if mechanism == "seed":
            cls._install_seed(scenario, measurement_config, seed_options)
            return
        setup = setups[mechanism]
        if measurement_config is None:
            scenario.service = setup.build(device, config)
        elif setup.kind == "on-demand":
            scenario.service = AttestationService(
                device, measurement_config, mechanism=mechanism
            )
        else:
            scenario.service = ErasmusService(
                device, period=config.erasmus_period,
                config=measurement_config,
            )
        if setup.kind == "on-demand":
            scenario.rounds = setup.rounds
            scenario.driver = OnDemandVerifier(
                scenario.verifier, scenario.channel,
                retry=scenario.retry, outcomes=scenario.outcomes,
            )
            scenario.service.install()
        else:  # self-measurement (ERASMUS)
            scenario.collector = CollectorVerifier(
                scenario.verifier, scenario.channel, retry=scenario.retry
            )
            scenario.service.start()

    @staticmethod
    def _install_seed(
        scenario: "Scenario",
        measurement_config: Optional[MeasurementConfig],
        options: Dict[str, Any],
    ) -> None:
        device = scenario.device
        config = scenario.config
        shared = options.get("shared")
        if shared is None:
            shared = hashlib.sha256(
                f"scenario-seed-{device.name}".encode()
            ).digest()[:16]
        min_gap = options.get("min_gap", 0.5 * config.erasmus_period)
        max_gap = options.get("max_gap", 1.5 * config.erasmus_period)
        triggers = options.get(
            "trigger_count",
            max(1, int(config.horizon / config.erasmus_period)),
        )
        mp_config = measurement_config
        if mp_config is None:
            mp_config = MeasurementConfig(
                algorithm=config.algorithm,
                order="sequential",
                atomic=False,
                priority=config.mp_priority,
                normalize_mutable=True,
            )
        scenario.seed_service = SeedService(
            device,
            shared,
            min_gap=min_gap,
            max_gap=max_gap,
            trigger_count=triggers,
            config=mp_config,
            serve_fetch=options.get("serve_fetch", False),
        )
        scenario.seed_monitor = SeedMonitor(
            scenario.verifier, scenario.channel, device.name, shared,
            min_gap=min_gap, max_gap=max_gap, trigger_count=triggers,
            catch_up=options.get("catch_up", False),
        )
        scenario.seed_service.start()
        scenario.service = scenario.seed_service
