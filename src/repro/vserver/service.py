"""One-call wiring for a served-verifier scenario, plus presets/DSL.

:func:`build_service_scenario` is the ``Scenario.build`` counterpart
for the service stack, with the same fixed wiring-order discipline
(it pins event sequence numbers, which the golden ledger pins down):

    sim -> verifier -> server (+mux) -> cohort channels -> provers
        -> enrollment -> traffic schedule -> epoch ticks

Presets (:data:`SERVICE_PRESETS`) are named parameter bundles:
``smoke`` is the small CI storm whose canonical ledger is the golden
artifact; ``storm1k`` is the >=1000-prover thundering herd that
perfbench's ``serve-storm1k`` workload times.
:meth:`ServiceConfig.parse` accepts the fleet DSL form
(``"preset=smoke;provers=100;epoch=0.5"``) so campaign specs can
sweep service knobs like they sweep fault plans.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import HASH_ALGORITHMS
from repro.errors import ConfigurationError
from repro.obs.core import Observability
from repro.obs.metrics import MetricsRegistry
from repro.ra.verifier import Verifier
from repro.resilience.outcome import OutcomeReport
from repro.sim.engine import Simulator
from repro.sim.network import Channel, MuxEndpoint
from repro.vserver.loadgen import (
    LoadGenerator,
    SimProver,
    cohort_image,
    prover_key,
)
from repro.vserver.server import ServerConfig, VerifierServer


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a served-verifier scenario needs, in one bundle."""

    # population
    provers: int = 40
    cohorts: int = 2
    blocks: int = 16
    block_size: int = 64
    history: int = 3
    algorithm: str = "sha256"
    compromised: float = 0.1
    # service
    epoch: float = 0.5
    queue_capacity: int = 256
    slo: float = 1.0
    rate_limit: float = 0.0
    rate_burst: float = 8.0
    #: verify-cost model (sim s); 0 keeps verdicts instantaneous and
    #: the golden smoke ledger byte-identical
    verify_cost: float = 0.0
    verify_cost_record: float = 0.0
    # network
    latency: float = 0.002
    # traffic
    storms: int = 1
    storm_at: float = 1.0
    storm_window: float = 0.4
    storm_gap: float = 2.0
    poisson_gap: float = 0.0
    poisson_until: float = 0.0
    # run
    horizon: float = 10.0
    seed: str = "svc"

    def __post_init__(self) -> None:
        # checked here, not at build time, so a campaign rejects a bad
        # service= field when it is planned; the comparisons also
        # reject NaN, and a finite horizon needs finite traffic times
        for name in ("provers", "cohorts", "blocks", "block_size",
                     "history"):
            if not getattr(self, name) >= 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.cohorts > self.provers:
            raise ConfigurationError("more cohorts than provers")
        if not 0.0 <= self.compromised <= 1.0:
            raise ConfigurationError("compromised must be in [0, 1]")
        if self.algorithm not in HASH_ALGORITHMS:
            raise ConfigurationError(
                f"algorithm must be one of {sorted(HASH_ALGORITHMS)}"
            )
        if not 0 < self.horizon < math.inf:
            raise ConfigurationError("horizon must be positive and finite")
        for name in ("latency", "storms", "storm_at", "storm_window",
                     "storm_gap", "poisson_gap", "poisson_until"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be >= 0 and finite")
        self.server_config()  # the server's own fields

    def server_config(self) -> ServerConfig:
        return ServerConfig(
            queue_capacity=self.queue_capacity,
            epoch=self.epoch,
            slo_queue_latency=self.slo,
            rate_limit=self.rate_limit,
            rate_burst=self.rate_burst,
            verify_cost=self.verify_cost,
            verify_cost_record=self.verify_cost_record,
        )

    @classmethod
    def parse(cls, text: str) -> "ServiceConfig":
        """Parse the fleet DSL: ``"preset=smoke;provers=100;epoch=0.5"``.

        A bare preset name (``"smoke"``) is shorthand for
        ``preset=<name>``; remaining ``key=value`` pairs override the
        preset's fields.
        """
        base = cls()
        overrides: Dict[str, Any] = {}
        fields_by_name = {f.name: f for f in dataclasses.fields(cls)}
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                base = service_preset(chunk)
                continue
            key, _, raw = chunk.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key == "preset":
                base = service_preset(raw)
                continue
            spec = fields_by_name.get(key)
            if spec is None:
                known = ", ".join(sorted(fields_by_name))
                raise ConfigurationError(
                    f"unknown service field {key!r}; known: "
                    f"preset, {known}"
                )
            overrides[key] = _coerce(key, raw, spec.type)
        return replace(base, **overrides) if overrides else base


def _coerce(key: str, raw: str, type_name: Any) -> Any:
    type_name = str(type_name)
    if "int" in type_name:
        convert: Any = int
    elif "float" in type_name:
        convert = float
    else:
        return raw
    try:
        return convert(raw)
    except ValueError:
        raise ConfigurationError(
            f"service field {key!r} wants {convert.__name__}, got {raw!r}"
        ) from None


#: named parameter bundles; ``smoke`` backs the golden ledger and the
#: CI load-test smoke job, ``storm1k`` backs perfbench's serve-storm1k
SERVICE_PRESETS: Dict[str, ServiceConfig] = {
    # small enough for CI, rich enough to exercise the whole taxonomy:
    # tight rate limit -> rate-limit rejections, tiny queue ->
    # queue-full rejections, slo < epoch -> deferred-ok verdicts,
    # compromised cohort members -> compromised verdicts
    "smoke": ServiceConfig(
        provers=24,
        cohorts=2,
        blocks=8,
        block_size=32,
        history=3,
        compromised=0.25,
        epoch=0.25,
        queue_capacity=6,
        slo=0.2,
        rate_limit=12.0,
        rate_burst=4.0,
        storms=1,
        storm_at=0.5,
        storm_window=0.6,
        poisson_gap=0.05,
        poisson_until=3.0,
        horizon=5.0,
        seed="smoke",
    ),
    # the acceptance-criteria storm: >= 1000 provers, three thundering
    # waves inside one epoch so ERASMUS-style history re-ships overlap
    # (that overlap is what epoch batching amortizes)
    "storm1k": ServiceConfig(
        provers=1000,
        cohorts=4,
        blocks=128,
        block_size=64,
        history=4,
        compromised=0.05,
        epoch=1.0,
        queue_capacity=4096,
        slo=1.5,
        storms=4,
        storm_at=1.05,
        storm_window=0.1,
        storm_gap=0.15,
        horizon=4.0,
        seed="storm1k",
    ),
}

# the smoke scenario with the verify-cost model armed: each verdict is
# charged per-report + per-record sim time, so vserver.stage.verify
# observes real values (ROADMAP section-2 gap).  Costs are small
# relative to the 0.25s epoch so conclusions land inside the horizon;
# the seed stays "smoke" on purpose -- identical traffic, so the cost
# model's pure-deferral property (same ledger lines, later delivery)
# is directly testable against the golden smoke ledger.
SERVICE_PRESETS["smoke-cost"] = replace(
    SERVICE_PRESETS["smoke"],
    verify_cost=0.002,
    verify_cost_record=0.0005,
)


def service_preset(name: str) -> ServiceConfig:
    preset = SERVICE_PRESETS.get(name)
    if preset is None:
        known = ", ".join(sorted(SERVICE_PRESETS))
        raise ConfigurationError(
            f"unknown service preset {name!r}; known: {known}"
        )
    return preset


@dataclass
class ServiceScenario:
    """Everything :func:`build_service_scenario` wired together."""

    config: ServiceConfig
    sim: Simulator
    verifier: Verifier
    server: VerifierServer
    channels: List[Channel]
    provers: List[SimProver]
    loadgen: LoadGenerator
    outcomes: OutcomeReport
    obs: Any = None
    extras: Dict[str, Any] = field(default_factory=dict)

    def run(self, until: Optional[float] = None) -> Dict[str, Any]:
        """Run to the horizon and return the server stats."""
        self.sim.run(
            until=self.config.horizon if until is None else until
        )
        return self.server.stats()

    def ledger_lines(self) -> List[str]:
        return self.server.ledger_lines()

    def write_ledger(self, path: Any) -> int:
        lines = self.ledger_lines()
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
        return len(lines)


def build_service_scenario(
    config: Optional[ServiceConfig] = None,
    *,
    obs: Optional[Any] = None,
) -> ServiceScenario:
    """Wire a complete served-verifier scenario (canonical order)."""
    config = config or service_preset("smoke")
    seed = config.seed.encode()
    if obs is None:
        # metrics on (queue gauges / stage histograms are part of the
        # deliverable), spans off (per-message spans at storm scale
        # would dominate the run)
        obs = Observability(metrics=MetricsRegistry())
    sim = Simulator(obs=obs)

    verifier = Verifier(sim, name="vsrv-core", nonce_seed=seed + b"|nonces")
    outcomes = OutcomeReport()
    mux = MuxEndpoint(sim, "vsrv")
    server = VerifierServer(
        sim, verifier, config.server_config(),
        name="vsrv", endpoint=mux, outcomes=outcomes,
    )

    # cohort channels: slightly heterogeneous latency per cohort so
    # arrival interleaving exercises the mux, deterministically
    channels: List[Channel] = []
    for index in range(config.cohorts):
        channel = Channel(
            sim, latency=config.latency * (1.0 + 0.25 * index)
        )
        mux.join(channel)
        channels.append(channel)

    compromise_drbg = HmacDrbg(seed + b"|compromise")
    provers: List[SimProver] = []
    images: Dict[int, Any] = {}
    for index in range(config.provers):
        cohort = index % config.cohorts
        image = images.get(cohort)
        if image is None:
            image = images[cohort] = cohort_image(
                f"{config.seed}-c{cohort}",
                config.blocks,
                config.block_size,
            )
        name = f"prv{index:04d}"
        channel = channels[cohort]
        endpoint = channel.make_endpoint(name)
        prover = SimProver(
            sim,
            name,
            key=prover_key(name, seed + b"|keys"),
            image=image,
            endpoint=endpoint,
            server="vsrv",
            history_size=config.history,
            algorithm=config.algorithm,
            compromised=compromise_drbg.uniform() < config.compromised,
        )
        prover.enroll(verifier, image)
        server.register_tenant(name, f"cohort{cohort}")
        provers.append(prover)

    loadgen = LoadGenerator(sim, provers, seed=seed + b"|traffic")
    for wave in range(config.storms):
        loadgen.schedule_storm(
            config.storm_at + wave * config.storm_gap,
            config.storm_window,
        )
    if config.poisson_gap > 0 and config.poisson_until > 0:
        loadgen.schedule_poisson(
            0.0, config.poisson_until, config.poisson_gap
        )
    server.start()

    return ServiceScenario(
        config=config,
        sim=sim,
        verifier=verifier,
        server=server,
        channels=channels,
        provers=provers,
        loadgen=loadgen,
        outcomes=outcomes,
        obs=obs,
    )
