"""Campaign specs and the planner.

A *campaign* is a declarative sweep over the experiment space: which
RA mechanisms to run, against which adversaries, on which device
geometries, with which workloads and seeds.  The planner expands a
:class:`CampaignSpec` into a deterministic, ordered list of
:class:`RunSpec` -- one fully self-contained description per
simulation, with a stable content-derived ``run_id`` so reruns are
reproducible, shardable and resumable.

Nothing here touches a :class:`~repro.sim.engine.Simulator`; planning
is pure data.  Execution lives in :mod:`repro.fleet.executor`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.scenario import MALWARE, MECHANISMS, WORKLOADS
from repro.units import MiB

#: mechanisms the fleet worker knows how to instantiate: every
#: single-device mechanism plus ``vserver``, the served-verifier stack
KNOWN_MECHANISMS = (*MECHANISMS, "vserver")

KNOWN_ADVERSARIES = ("none", *MALWARE)

KNOWN_WORKLOADS = ("none", *WORKLOADS)

#: device-class presets for heterogeneous populations: named geometry
#: bundles applied at *plan* time (preset < base < axes precedence), so
#: one campaign sweeps cohorts of class-0 sensors next to gateway-class
#: boxes without spelling the geometry per cohort.  The label itself
#: rides in ``RunSpec.device_class`` and participates in ``run_id``.
DEVICE_CLASSES: Dict[str, Dict[str, Any]] = {
    # 8-block class-0 sensor node: tiny image, tight RAM
    "sensor": {
        "block_count": 8,
        "block_size": 32,
        "sim_block_size": MiB,
    },
    # mid-range actuator with a moderate firmware image
    "actuator": {
        "block_count": 16,
        "block_size": 32,
        "sim_block_size": 2 * MiB,
    },
    # edge gateway: the largest image the paper's timing model covers
    "gateway": {
        "block_count": 64,
        "block_size": 64,
        "sim_block_size": 4 * MiB,
    },
}


def apply_device_class(fields_for_run: Dict[str, Any]) -> Dict[str, Any]:
    """Resolve a ``device_class`` label into concrete geometry fields.

    Preset values lose to anything explicitly present in
    ``fields_for_run`` (preset < base < axes), so a cohort can pin a
    class and still override one knob.
    """
    label = fields_for_run.get("device_class", "")
    if not label:
        return dict(fields_for_run)
    preset = DEVICE_CLASSES.get(label)
    if preset is None:
        raise ConfigurationError(
            f"unknown device_class {label!r}; known: {sorted(DEVICE_CLASSES)}"
        )
    merged = dict(preset)
    merged.update(fields_for_run)
    return merged


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined simulation run.

    Every field participates in the ``run_id`` hash, so two specs with
    identical fields are the *same* run: executing either produces the
    same :class:`~repro.fleet.telemetry.RunResult` (modulo wall-clock).
    """

    campaign: str = "adhoc"
    mechanism: str = "smart"
    adversary: str = "none"
    seed: int = 7
    # -- device geometry ------------------------------------------------
    block_count: int = 16
    block_size: int = 32
    sim_block_size: int = MiB
    algorithm: str = "blake2s"
    # -- protocol timing ------------------------------------------------
    horizon: float = 36.0
    request_at: float = 2.0
    rounds: int = 13  # SMARM measurement rounds (paper's 10^-6 bound)
    t_m: float = 4.0  # self-measurement period (ERASMUS / SeED gap scale)
    t_c: float = 16.0  # collection period (ERASMUS)
    # -- adversary shape ------------------------------------------------
    infect_at: float = 0.5
    #: adds a seed-derived uniform offset in [0, infect_jitter) to
    #: infect_at, so seed replication samples the infection *phase*
    #: (the random variable behind the QoA detection probability)
    infect_jitter: float = 0.0
    dwell: float = 0.0  # transient residency; 0 = reactive dodger
    malware_block: int = 2
    # -- workload -------------------------------------------------------
    workload: str = "firealarm"
    task_period: float = 0.1
    task_wcet: float = 0.002
    task_priority: int = 100
    mp_priority: int = 50
    writer_tasks: int = 2
    #: mid-measurement write probes (Table 1's writable-memory column);
    #: they are maximum-priority jobs and change the schedule, so 0
    #: (none) is excluded from to_dict()/run_id, as an empty ``faults``
    probe_count: int = 0
    # -- execution limits ----------------------------------------------
    timeout: float = 0.0  # wall-clock seconds per run; 0 = unlimited
    trace_limit: int = 4096  # cap on the reported device-trace count
    # -- fault injection ------------------------------------------------
    #: FaultPlan DSL string ("loss=0.3@0:30;reset@6"); empty = no faults.
    #: A non-empty plan also arms the worker's retry layer.  Excluded
    #: from to_dict()/run_id when empty so fault-free campaigns keep
    #: their historical identities and golden artifacts byte-identical.
    faults: str = ""
    # -- served verifier -------------------------------------------------
    #: ServiceConfig DSL ("preset=smoke;provers=100;epoch=0.5") for the
    #: ``vserver`` mechanism: the run drives a whole served-verifier
    #: scenario instead of a single prover/verifier pair.  Excluded
    #: from to_dict()/run_id when empty, same identity-stability rule
    #: as ``faults``.
    service: str = ""
    # -- service-level objectives ----------------------------------------
    #: SLO DSL ("firealarm" / "latency:ra.round_trip.latency<0.5@0.99")
    #: evaluated by a sim-time :class:`~repro.obs.slo.SLOEngine` during
    #: the run; the engine summary lands in ``RunResult.slo``.  Excluded
    #: from to_dict()/run_id when empty, same identity-stability rule
    #: as ``faults``.
    slo: str = ""
    # -- heterogeneous population -----------------------------------------
    #: device-class label (see :data:`DEVICE_CLASSES`); the planner
    #: resolves it into geometry via :func:`apply_device_class`, and the
    #: label itself is part of the run identity.  Excluded from
    #: to_dict()/run_id when empty, same identity-stability rule as
    #: ``faults``.
    device_class: str = ""
    #: firmware version label; folds into the device image seed so two
    #: firmware versions measure different images under the same run
    #: seed.  Same empty-excluded identity rule.
    firmware: str = ""
    #: cohort name stamped by the planner when a campaign declares
    #: per-cohort sub-populations.  Same empty-excluded identity rule.
    cohort: str = ""

    def __post_init__(self) -> None:
        if self.mechanism not in KNOWN_MECHANISMS:
            raise ConfigurationError(
                f"unknown mechanism {self.mechanism!r}; "
                f"known: {KNOWN_MECHANISMS}"
            )
        if self.adversary not in KNOWN_ADVERSARIES:
            raise ConfigurationError(
                f"unknown adversary {self.adversary!r}; "
                f"known: {KNOWN_ADVERSARIES}"
            )
        if self.workload not in KNOWN_WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; "
                f"known: {KNOWN_WORKLOADS}"
            )
        for name in ("horizon", "t_m", "t_c"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ConfigurationError(f"{name} must be positive")
        if not (isinstance(self.probe_count, int) and self.probe_count >= 0):
            raise ConfigurationError(
                "probe_count must be an integer within [0, inf)"
            )
        if not (isinstance(self.rounds, int) and self.rounds >= 1):
            raise ConfigurationError(
                "rounds must be an integer within [1, inf)"
            )
        if not (isinstance(self.trace_limit, int) and self.trace_limit >= 1):
            raise ConfigurationError(
                "trace_limit must be an integer within [1, inf)"
            )
        if not self.timeout >= 0:  # also rejects NaN
            raise ConfigurationError("timeout must be >= 0")
        if self.faults:
            # Validate the DSL at plan time, not deep inside a worker.
            from repro.resilience.faults import FaultPlan

            FaultPlan.parse(self.faults)
        if self.service:
            if self.mechanism != "vserver":
                raise ConfigurationError(
                    "service= only applies to the 'vserver' mechanism"
                )
            from repro.vserver.service import ServiceConfig

            ServiceConfig.parse(self.service)
        if self.slo:
            from repro.obs.slo import parse_objectives

            parse_objectives(self.slo)
        if self.device_class and self.device_class not in DEVICE_CLASSES:
            raise ConfigurationError(
                f"unknown device_class {self.device_class!r}; "
                f"known: {sorted(DEVICE_CLASSES)}"
            )

    # -- identity -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        for empty_excluded in (
            "faults", "service", "slo", "device_class", "firmware",
            "cohort", "probe_count",
        ):
            if not data[empty_excluded]:
                del data[empty_excluded]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown RunSpec fields: {sorted(unknown)}"
            )
        return cls(**data)

    # cached per instance: the spec is frozen, so its identity cannot
    # change (replace() builds a new instance with an empty cache)
    @cached_property
    def spec_digest(self) -> str:
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @cached_property
    def run_id(self) -> str:
        """Stable, human-scannable identity: mechanism, adversary, seed
        plus a content hash covering every field."""
        return (
            f"{self.mechanism}-{self.adversary}-"
            f"s{self.seed:04d}-{self.spec_digest[:12]}"
        )

    def with_overrides(self, **overrides: Any) -> "RunSpec":
        return replace(self, **overrides)


def _check_sweep(
    source: str,
    base: Dict[str, Any],
    axes: Dict[str, List[Any]],
) -> None:
    """Shared base/axes validation for campaigns and their cohorts."""
    known = {f.name for f in fields(RunSpec)}
    for label, keys in ((f"{source} base", base), (f"{source} axes", axes)):
        unknown = set(keys) - known
        if unknown:
            raise ConfigurationError(
                f"unknown RunSpec fields in {label}: {sorted(unknown)}"
            )
    for key, values in axes.items():
        if not values:
            raise ConfigurationError(f"axis {key!r} has no values")
    overlap = set(axes) & set(base)
    if overlap:
        raise ConfigurationError(
            f"fields both fixed and swept in {source}: {sorted(overlap)}"
        )
    for keys in (base, axes):
        if "seed" in keys:
            raise ConfigurationError("sweep seeds via the 'seeds' argument")
        if "cohort" in keys:
            raise ConfigurationError(
                "cohort is stamped by the planner; name cohorts via "
                "the 'cohorts' argument"
            )


class Cohort:
    """One sub-population of a heterogeneous campaign.

    A cohort overlays its own fixed fields and swept axes on the
    campaign-level ``base``/``axes`` (cohort wins on conflicts) and may
    pin its own seed list.  The planner stamps every expanded spec with
    ``cohort=<name>``, so per-cohort populations stay distinguishable
    in artifacts and summaries.
    """

    def __init__(
        self,
        name: str,
        base: Optional[Dict[str, Any]] = None,
        axes: Optional[Dict[str, Sequence[Any]]] = None,
        seeds: Optional[Iterable[int]] = None,
    ) -> None:
        if not name:
            raise ConfigurationError("cohort needs a non-empty name")
        self.name = name
        self.base = dict(base or {})
        self.axes = {key: list(values) for key, values in (axes or {}).items()}
        self.seeds = None if seeds is None else [int(s) for s in seeds]
        if self.seeds is not None and not self.seeds:
            raise ConfigurationError(
                f"cohort {name!r} needs at least one seed"
            )
        _check_sweep(f"cohort {name!r}", self.base, self.axes)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "base": dict(sorted(self.base.items())),
            "axes": {k: self.axes[k] for k in sorted(self.axes)},
        }
        if self.seeds is not None:
            data["seeds"] = list(self.seeds)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Cohort":
        return cls(
            name=data["name"],
            base=data.get("base"),
            axes=data.get("axes"),
            seeds=data.get("seeds"),
        )


class CampaignSpec:
    """A declarative sweep: fixed ``base`` fields, swept ``axes``.

    ``axes`` maps :class:`RunSpec` field names to value lists; the
    planner takes the cartesian product in sorted-key order (so the
    plan is independent of dict insertion order), with ``seeds`` as the
    innermost axis.  Example::

        CampaignSpec(
            name="qoa",
            base={"mechanism": "erasmus", "adversary": "transient"},
            axes={"t_m": [2.0, 4.0], "dwell": [1.0, 3.0]},
            seeds=range(5),
        )

    Heterogeneous populations declare ``cohorts``: an ordered list of
    :class:`Cohort` (or their dict form), each overlaying the campaign
    base/axes with its own device class, firmware versions, mechanism
    sweep or seed list.  Cohorts expand in declared order, each with
    the same sorted-axis cartesian product as a flat campaign.
    """

    def __init__(
        self,
        name: str,
        base: Optional[Dict[str, Any]] = None,
        axes: Optional[Dict[str, Sequence[Any]]] = None,
        seeds: Iterable[int] = (7,),
        cohorts: Optional[Sequence[Any]] = None,
    ) -> None:
        if not name or "/" in name:
            raise ConfigurationError(
                "campaign name must be a non-empty path-safe string"
            )
        self.name = name
        self.base = dict(base or {})
        self.axes = {key: list(values) for key, values in (axes or {}).items()}
        self.seeds = [int(s) for s in seeds]
        if not self.seeds:
            raise ConfigurationError("campaign needs at least one seed")
        _check_sweep("campaign", self.base, self.axes)
        self.cohorts: List[Cohort] = []
        for entry in cohorts or ():
            cohort = entry if isinstance(entry, Cohort) else Cohort.from_dict(entry)
            if any(existing.name == cohort.name for existing in self.cohorts):
                raise ConfigurationError(
                    f"duplicate cohort name {cohort.name!r}"
                )
            # bounded by the declared spec, never per-run growth
            self.cohorts.append(cohort)  # repro: allow[perf-unbounded-queue]

    # -- planning -------------------------------------------------------

    def _expand(
        self,
        base: Dict[str, Any],
        axes: Dict[str, List[Any]],
        seeds: Sequence[int],
        cohort: str = "",
    ) -> List[RunSpec]:
        axis_keys = sorted(axes)
        axis_values = [axes[key] for key in axis_keys]
        specs: List[RunSpec] = []
        for combo in itertools.product(*axis_values):
            fields_for_run = dict(base)
            fields_for_run.update(dict(zip(axis_keys, combo)))
            if cohort:
                fields_for_run["cohort"] = cohort
            fields_for_run = apply_device_class(fields_for_run)
            for seed in seeds:
                specs.append(
                    RunSpec(campaign=self.name, seed=seed, **fields_for_run)
                )
        return specs

    def plan(self) -> List[RunSpec]:
        """Expand into the full, deterministically-ordered run list."""
        if not self.cohorts:
            return self._expand(self.base, self.axes, self.seeds)
        specs: List[RunSpec] = []
        for cohort in self.cohorts:
            base = dict(self.base)
            base.update(cohort.base)
            axes = dict(self.axes)
            axes.update(cohort.axes)
            # a cohort may fix a field the campaign sweeps; its base
            # wins, so drop the shadowed campaign axis
            for key in cohort.base:
                axes.pop(key, None)
            seeds = cohort.seeds if cohort.seeds is not None else self.seeds
            specs.extend(self._expand(base, axes, seeds, cohort=cohort.name))
        return specs

    @property
    def run_count(self) -> int:
        if not self.cohorts:
            count = 1
            for values in self.axes.values():
                count *= len(values)
            return count * len(self.seeds)
        total = 0
        for cohort in self.cohorts:
            axes = dict(self.axes)
            axes.update(cohort.axes)
            for key in cohort.base:
                axes.pop(key, None)
            count = 1
            for values in axes.values():
                count *= len(values)
            seeds = cohort.seeds if cohort.seeds is not None else self.seeds
            total += count * len(seeds)
        return total

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "base": dict(sorted(self.base.items())),
            "axes": {k: self.axes[k] for k in sorted(self.axes)},
            "seeds": list(self.seeds),
        }
        if self.cohorts:
            # key is present only on heterogeneous campaigns, so flat
            # campaigns keep their historical spec_hash
            data["cohorts"] = [cohort.to_dict() for cohort in self.cohorts]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        return cls(
            name=data["name"],
            base=data.get("base"),
            axes=data.get("axes"),
            seeds=data.get("seeds", (7,)),
            cohorts=data.get("cohorts"),
        )

    @property
    def spec_hash(self) -> str:
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Canned campaigns
# ---------------------------------------------------------------------------


def qoa_fleet_campaign(seed_count: int = 6) -> CampaignSpec:
    """Figure 5's QoA story at fleet scale.

    Sweeps the self-measurement period ``T_M`` against transient
    residency times around it: infections shorter than the measurement
    gap mostly escape, infections spanning a measurement are caught at
    the next collection -- the fleet turns the figure's two anecdotes
    into detection-probability curves with error bars.
    """
    return CampaignSpec(
        name="qoa-fleet",
        base={
            "mechanism": "erasmus",
            "adversary": "transient",
            "block_count": 96,
            "sim_block_size": 2 * MiB,
            "t_c": 12.0,
            "horizon": 36.0,
            "infect_at": 2.0,
            "infect_jitter": 8.0,
            "task_period": 0.05,
            "workload": "firealarm",
        },
        axes={
            "t_m": [2.0, 4.0, 8.0],
            "dwell": [1.0, 3.0, 6.0],
        },
        seeds=range(seed_count),
    )


def matrix_fleet_campaign(seed_count: int = 3) -> CampaignSpec:
    """Table 1's mechanism x adversary matrix, many seeds deep."""
    return CampaignSpec(
        name="matrix-fleet",
        base={
            "block_count": 16,
            "sim_block_size": 2 * MiB,
            "horizon": 30.0,
            "workload": "firealarm",
        },
        axes={
            "mechanism": [
                "smart", "all-lock", "dec-lock", "inc-lock",
                "smarm", "erasmus", "seed",
            ],
            "adversary": ["none", "transient", "relocating"],
        },
        seeds=range(seed_count),
    )


def locking_availability_campaign(seed_count: int = 4) -> CampaignSpec:
    """Locking-policy availability damage under a writer workload."""
    return CampaignSpec(
        name="locking-availability",
        base={
            "adversary": "none",
            "workload": "writers",
            "block_count": 24,
            "sim_block_size": 4 * MiB,
            "horizon": 30.0,
        },
        axes={
            "mechanism": ["no-lock", "all-lock", "dec-lock", "inc-lock"],
            "writer_tasks": [2, 4],
        },
        seeds=range(seed_count),
    )


def fault_matrix_campaign(seed_count: int = 3) -> CampaignSpec:
    """On-demand mechanisms under escalating channel trouble.

    Sweeps a clean channel, a 25% loss burst, and loss plus a prover
    brownout against the retry layer; the ``faults=""`` cells double as
    the byte-identity control (they must match a fault-free campaign's
    telemetry exactly, which CI diffs against a golden summary).
    """
    return CampaignSpec(
        name="fault-matrix",
        base={
            "adversary": "none",
            "block_count": 8,
            "sim_block_size": MiB,
            "horizon": 30.0,
            "request_at": 1.0,
            "workload": "firealarm",
        },
        axes={
            "mechanism": ["smart", "inc-lock", "smarm"],
            "faults": [
                "",
                "loss=0.25@0:20",
                "loss=0.25@0:20;reset@4",
            ],
        },
        seeds=range(seed_count),
    )


def vserver_service_campaign(seed_count: int = 2) -> CampaignSpec:
    """The served verifier under escalating storm load.

    Sweeps the smoke storm and a denser population with a tighter
    rate limit, so the admission-control taxonomy shows up in fleet
    telemetry.  Seeds fold into the service traffic seed, replicating
    the storm phase.
    """
    return CampaignSpec(
        name="vserver-service",
        base={
            "mechanism": "vserver",
            "adversary": "none",
            "workload": "none",
            "horizon": 5.0,
        },
        axes={
            "service": [
                "preset=smoke",
                "preset=smoke;provers=48;rate_limit=8",
            ],
        },
        seeds=range(seed_count),
    )


def hetero_fleet_campaign(seed_count: int = 2) -> CampaignSpec:
    """A heterogeneous fleet: three device-class cohorts, mixed
    firmware versions and mechanisms, one campaign.

    The swarm-scale deployment question the paper leaves open: a real
    population is never uniform, so availability/QoA rows must hold
    per cohort -- tiny sensors on self-measurement next to gateways
    running SMARM -- while the artifacts stay one diffable campaign.
    """
    return CampaignSpec(
        name="hetero-fleet",
        base={
            "adversary": "transient",
            "workload": "firealarm",
            "horizon": 24.0,
            "infect_at": 2.0,
        },
        cohorts=[
            Cohort(
                name="sensors",
                base={"device_class": "sensor", "mechanism": "erasmus",
                      "t_m": 4.0, "t_c": 12.0},
                axes={"firmware": ["fw-1.0", "fw-1.1"]},
            ),
            Cohort(
                name="actuators",
                base={"device_class": "actuator", "firmware": "fw-2.0"},
                axes={"mechanism": ["smart", "inc-lock"]},
            ),
            Cohort(
                name="gateways",
                base={"device_class": "gateway", "mechanism": "smarm",
                      "firmware": "fw-3.1"},
            ),
        ],
        seeds=range(seed_count),
    )


CANNED_CAMPAIGNS: Dict[str, Callable[[int], CampaignSpec]] = {
    "qoa": qoa_fleet_campaign,
    "matrix": matrix_fleet_campaign,
    "locking": locking_availability_campaign,
    "faults": fault_matrix_campaign,
    "vserver": vserver_service_campaign,
    "hetero": hetero_fleet_campaign,
}


def canned_campaign(name: str, seed_count: Optional[int] = None) -> CampaignSpec:
    """Look up a canned campaign by name."""
    factory = CANNED_CAMPAIGNS.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown campaign {name!r}; known: {sorted(CANNED_CAMPAIGNS)}"
        )
    return factory() if seed_count is None else factory(seed_count)
