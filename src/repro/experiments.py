"""Experiment drivers: one function per paper artifact.

Both the CLI (``python -m repro``) and the paper-claim tests call these;
each returns a small result object with the raw numbers plus a
``render()`` producing the same rows/series the paper reports.

Index (see DESIGN.md section 3):

========  ==========================================================
FIG1      :func:`fig1_timeline` -- on-demand RA timeline
FIG2      :func:`fig2_report` -- hash/signature timing curves
FIG3      :func:`fig3_overview` -- solution taxonomy
FIG4      :func:`fig4_consistency` -- consistency vs locking policy
FIG5      :func:`fig5_qoa` -- self-measurement QoA timeline
TAB1      :func:`table1` -- the feature matrix, empirically
SEC24     :func:`sec24_anchors` -- in-text timing numbers
SEC25     :func:`sec25_firealarm` -- fire-alarm latency per mechanism
SEC32     :func:`sec32_smarm` -- SMARM escape probabilities
FLEET     :func:`fleet_qoa` -- Figure 5's QoA sweep at fleet scale
========  ==========================================================
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.fig2_model import (
    anchor_report,
    crossover_table,
    render_series,
    sweep_series,
)
from repro.analysis.smarm_math import (
    multi_round_escape,
    rounds_for_confidence,
    single_round_escape,
    single_round_escape_limit,
)
from repro.core.consistency import (
    ConsistencyAnalyzer,
    ConsistencyProfile,
    expected_consistency,
)
from repro.core.qoa import InfectionEvent, QoAParameters, QoATimeline
from repro.core.solution import render_taxonomy, solution_table
from repro.core.tradeoff import (
    EvaluationMatrix,
    ScenarioConfig,
    evaluate_all,
)
from repro.crypto.timing import figure2_sizes
from repro.errors import ConfigurationError
from repro.malware.transient import TransientMalware
from repro.ra.locking import make_policy
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.ra.report import Verdict
from repro.ra.smarm import escape_probability
from repro.ra.software import SoftwareAttestation, SoftwareVerifier
from repro.ra.verifier import Verifier
from repro.resilience import RetryPolicy
from repro.scenario import Scenario
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel, DelayAdversary
from repro.units import GiB, MiB, format_time, parse_size


# ---------------------------------------------------------------------------
# FIG1 -- on-demand RA timeline
# ---------------------------------------------------------------------------


@dataclass
class Fig1Result:
    """The Figure 1 event sequence for one on-demand exchange."""

    request_sent: float
    request_received: float
    t_s: float
    t_e: float
    report_received: float
    verified: float
    verdict: str
    deferral: float

    def render(self) -> str:
        rows = [
            ("Vrf sends challenge-bearing request", self.request_sent),
            ("Prv receives request", self.request_received),
            ("t_s: Prv starts MP", self.t_s),
            ("t_e: Prv finishes MP, sends report", self.t_e),
            ("Vrf receives report", self.report_received),
            ("Vrf verifies report", self.verified),
        ]
        width = max(len(label) for label, _ in rows)
        lines = [
            f"{label:<{width}}  t = {time:9.4f} s" for label, time in rows
        ]
        lines.append(
            f"(request deferred {self.deferral * 1e3:.1f} ms on Prv; "
            f"MP duration {self.t_e - self.t_s:.4f} s; "
            f"verdict: {self.verdict})"
        )
        return "\n".join(lines)


def fig1_timeline(
    memory_mib: int = 64,
    algorithm: str = "sha256",
    deferral: float = 0.050,
    network_latency: float = 0.005,
) -> Fig1Result:
    """Reproduce Figure 1: the on-demand timeline, including the
    deferred start the caption mentions ("it may be deferred on Prv
    due to networking delays, Vrf's request authentication, or
    termination of the previously running task")."""
    block_count = 64
    scenario = Scenario.build(
        mechanism="smart",
        config=ScenarioConfig(
            block_count=block_count,
            block_size=32,
            sim_block_size=memory_mib * MiB // block_count,
            algorithm=algorithm,
        ),
        layout=None,
        latency=network_latency,
    )
    device = scenario.device
    if deferral > 0:
        scenario.channel.add_filter(
            DelayAdversary(
                deferral, kind="att_request", base_latency=network_latency
            )
        )
    exchange = scenario.driver.request(device.name)
    scenario.run(until=120)
    if exchange.result is None:
        raise ConfigurationError("attestation did not complete in time")
    request_rx = device.trace.first("ra.request")
    mp_start = device.trace.first("mp.start")
    mp_end = device.trace.first("mp.end")
    return Fig1Result(
        request_sent=exchange.requested_at,
        request_received=request_rx.time,
        t_s=mp_start.time,
        t_e=mp_end.time,
        report_received=exchange.report_received_at,
        verified=exchange.result.verified_at,
        verdict=exchange.result.verdict.value,
        deferral=deferral,
    )


# ---------------------------------------------------------------------------
# FIG2 / SEC24 -- timing curves and anchors
# ---------------------------------------------------------------------------


@dataclass
class Fig2Result:
    series: Dict[str, List[Tuple[int, float]]]
    anchors: list
    crossovers: Dict[Tuple[str, str], float]

    def render(self) -> str:
        lines = [render_series(self.series), "", "In-text anchors:"]
        for anchor in self.anchors:
            status = "OK " if anchor.holds else "OFF"
            lines.append(
                f"  [{status}] {anchor.description}: model says "
                f"{format_time(anchor.observed)} "
                f"(paper ~{format_time(anchor.expected)})"
            )
        lines.append("")
        lines.append("hash-vs-signature crossover sizes (sha256):")
        for (hash_name, signature), size in sorted(self.crossovers.items()):
            if hash_name != "sha256":
                continue
            lines.append(
                f"  {signature:>9}: hashing overtakes signing at "
                f"{size / MiB:8.3f} MiB"
            )
        return "\n".join(lines)


def fig2_report(points_per_decade: int = 1) -> Fig2Result:
    """Reproduce Figure 2 from the calibrated timing model."""
    sizes = figure2_sizes(points_per_decade)
    return Fig2Result(
        series=sweep_series(sizes=sizes),
        anchors=anchor_report(),
        crossovers=crossover_table(),
    )


def sec24_anchors() -> list:
    """Just the Section 2.4 anchor checks."""
    return anchor_report()


# ---------------------------------------------------------------------------
# FIG3 -- taxonomy
# ---------------------------------------------------------------------------


@dataclass
class Fig3Result:
    tree: str
    table: str

    def render(self) -> str:
        return self.tree + "\n\n" + self.table


def fig3_overview() -> Fig3Result:
    return Fig3Result(tree=render_taxonomy(), table=solution_table())


# ---------------------------------------------------------------------------
# FIG4 -- consistency timeline
# ---------------------------------------------------------------------------


@dataclass
class Fig4Case:
    """One locking policy's behaviour against the A/B/C/D writes."""

    policy: str
    committed_writes: Dict[str, bool]
    profile: ConsistencyProfile
    t_s: float
    t_e: float
    t_r: Optional[float]
    claim: str

    def consistent_near(self, time: float, tolerance: float) -> bool:
        return any(
            abs(t - time) <= tolerance
            for t in self.profile.consistent_times
        )


@dataclass
class Fig4Result:
    cases: List[Fig4Case]

    def render(self) -> str:
        lines = [
            "write A: before t_s (never matters)   write D: after lock "
            "release (never matters)",
            "write B: mid-measurement, early block  write C: "
            "mid-measurement, late block",
            "",
            f"{'policy':<14} {'B committed':<12} {'C committed':<12} "
            f"{'consistent at':<28} claim",
            "-" * 90,
        ]
        for case in self.cases:
            duration = case.t_e - case.t_s
            tolerance = duration * 0.02 + 1e-9
            where = []
            if case.consistent_near(case.t_s, tolerance):
                where.append("t_s")
            mid = (case.t_s + case.t_e) / 2
            if case.consistent_near(mid, duration * 0.2):
                where.append("mid")
            if case.consistent_near(case.t_e, tolerance):
                where.append("t_e")
            if case.t_r is not None and case.consistent_near(
                case.t_r, tolerance
            ):
                where.append("t_r")
            lines.append(
                f"{case.policy:<14} "
                f"{str(case.committed_writes.get('B', False)):<12} "
                f"{str(case.committed_writes.get('C', False)):<12} "
                f"{'{' + ', '.join(where) + '}':<28} {case.claim}"
            )
        return "\n".join(lines)


def fig4_consistency(
    policies: Optional[List[str]] = None,
    block_count: int = 16,
    sim_block_size: int = 4 * MiB,
) -> Fig4Result:
    """Reproduce Figure 4: writes at A/B/C/D against each mechanism.

    Writes B and C land mid-measurement on an early-measured and a
    late-measured block respectively; A lands before t_s and D between
    t_e and t_r.  The consistency profile of each measurement is then
    probed from the write log.
    """
    if policies is None:
        policies = [
            "no-lock", "all-lock", "all-lock-ext",
            "dec-lock", "inc-lock", "inc-lock-ext",
        ]
    cases = []
    for policy_name in policies:
        sim = Simulator()
        device = Device(
            sim, block_count=block_count, block_size=32,
            sim_block_size=sim_block_size,
        )
        per_block = device.block_measure_time("blake2s")
        duration = per_block * block_count
        t_start = 1.0
        release_delay = duration * 0.5

        config = MeasurementConfig(
            algorithm="blake2s",
            order="sequential",
            atomic=False,
            locking=make_policy(policy_name),
            release_delay=release_delay,
            priority=50,
        )
        mp = MeasurementProcess(
            device, config, nonce=b"fig4", counter=1,
            mechanism=policy_name,
        )
        sim.schedule_at(
            t_start,
            lambda: device.cpu.spawn("mp", mp.run, priority=50),
        )

        committed: Dict[str, bool] = {}
        filler = b"\xBB" * device.memory.block_size

        def write_at(label: str, time: float, block: int) -> None:
            def do_write() -> None:
                committed[label] = device.memory.try_write(
                    block, filler, f"writer-{label}"
                )

            sim.schedule_at(time, do_write)

        write_at("A", t_start - 0.5, 2)
        write_at("B", t_start + duration * 0.4, 0)  # measured early
        write_at("C", t_start + duration * 0.6, block_count - 1)  # late
        write_at("D", t_start + duration + release_delay * 0.5, 3)
        sim.run(until=t_start + duration * 3 + 5)

        record = mp.record
        if record is None:
            raise ConfigurationError(
                f"measurement under {policy_name} never finished"
            )
        analyzer = ConsistencyAnalyzer(device.memory)
        cases.append(
            Fig4Case(
                policy=policy_name,
                committed_writes=committed,
                profile=analyzer.profile(record),
                t_s=record.t_start,
                t_e=record.t_end,
                t_r=record.t_release,
                claim=expected_consistency(policy_name),
            )
        )
    return Fig4Result(cases=cases)


# ---------------------------------------------------------------------------
# FIG5 -- QoA timeline
# ---------------------------------------------------------------------------


@dataclass
class Fig5Result:
    timeline: QoATimeline
    sim_detected: Dict[str, bool]
    params: QoAParameters

    def render(self) -> str:
        lines = [
            f"T_M = {self.params.t_m:g}s (measurements), "
            f"T_C = {self.params.t_c:g}s (collections)",
            self.timeline.render(),
            "",
            "full-stack ERASMUS verdicts: "
            + ", ".join(
                f"{label} {'DETECTED' if hit else 'undetected'}"
                for label, hit in sorted(self.sim_detected.items())
            ),
        ]
        return "\n".join(lines)


def fig5_qoa(
    t_m: float = 4.0,
    t_c: float = 16.0,
    horizon: float = 36.0,
) -> Fig5Result:
    """Reproduce Figure 5: two transient infections, one dodging all
    measurements (undetected), one spanning a measurement (detected at
    the following collection) -- analytically and with a real ERASMUS
    run."""
    params = QoAParameters(t_m=t_m, t_c=t_c)
    # Infection 1 sits strictly between measurements k=1 and k=2;
    # infection 2 spans measurement k=5.
    infection1 = InfectionEvent(
        start=1.25 * t_m, end=1.85 * t_m, label="infection 1"
    )
    infection2 = InfectionEvent(
        start=4.6 * t_m, end=5.4 * t_m, label="infection 2"
    )
    timeline = QoATimeline(params, horizon)
    timeline.add_infection(infection1)
    timeline.add_infection(infection2)

    # Full-stack confirmation.
    scenario = Scenario.build(
        mechanism="erasmus",
        config=ScenarioConfig(
            block_count=16, block_size=32, sim_block_size=MiB,
            algorithm="blake2s", t_m=t_m, t_c=t_c, horizon=horizon,
        ),
    )
    device = scenario.device
    scenario.drive()
    block = 2  # in the code region
    TransientMalware(
        device, target_block=block, infect_at=infection1.start,
        leave_at=infection1.end, name="infection1",
    )
    TransientMalware(
        device, target_block=block, infect_at=infection2.start,
        leave_at=infection2.end, name="infection2",
    )
    scenario.run(until=horizon)

    detected: Dict[str, bool] = {"infection 1": False, "infection 2": False}
    for collection in scenario.collector.collections:
        for interval_start, interval_end in collection.dirty_intervals:
            for label, infection in (
                ("infection 1", infection1),
                ("infection 2", infection2),
            ):
                if (
                    interval_start <= infection.end
                    and infection.start <= interval_end
                ):
                    detected[label] = True
    return Fig5Result(
        timeline=timeline, sim_detected=detected, params=params
    )


# ---------------------------------------------------------------------------
# TAB1 -- feature matrix
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    matrix: EvaluationMatrix
    claims: list

    def render(self) -> str:
        lines = ["paper's Table 1 (transcribed):", solution_table(), ""]
        lines.append("empirical matrix (from simulation):")
        lines.append(self.matrix.render())
        mismatches = [row for row in self.claims if not row[4]]
        lines.append("")
        if mismatches:
            lines.append("CLAIM MISMATCHES:")
            for row in mismatches:
                lines.append(f"  {row}")
        else:
            lines.append(
                "every checkable Table 1 cell matches the simulation"
            )
        return "\n".join(lines)


def table1(config: Optional[ScenarioConfig] = None) -> Table1Result:
    matrix = evaluate_all(config=config)
    return Table1Result(matrix=matrix, claims=matrix.against_claims())


# ---------------------------------------------------------------------------
# SEC25 -- the fire alarm
# ---------------------------------------------------------------------------


@dataclass
class Sec25Row:
    mechanism: str
    mp_duration: float
    alarm_latency: Optional[float]
    deadline_misses: int

    def render(self) -> str:
        latency = (
            f"{self.alarm_latency:8.3f} s"
            if self.alarm_latency is not None
            else "   never"
        )
        return (
            f"{self.mechanism:<22} MP={self.mp_duration:7.3f}s  "
            f"alarm latency={latency}  misses={self.deadline_misses}"
        )


@dataclass
class Sec25Result:
    rows: List[Sec25Row]
    memory_bytes: int

    def render(self) -> str:
        lines = [
            f"fire alarm, {self.memory_bytes / GiB:.1f} GiB attested, "
            "sensor period 1 s, fire breaks out just after MP starts:",
        ]
        lines.extend(row.render() for row in self.rows)
        return "\n".join(lines)


def sec25_firealarm(
    memory_bytes: int = GiB,
    mechanisms: Optional[List[str]] = None,
    block_count: int = 128,
    algorithm: str = "blake2s",
) -> Sec25Result:
    """Reproduce the Section 2.5 scenario: with ~7 s of atomic MP over
    1 GiB, a fire igniting right after t_s goes unnoticed for seconds;
    interruptible mechanisms keep the alarm latency at one period."""
    if mechanisms is None:
        mechanisms = ["none", "smart", "inc-lock", "smarm"]
    rows = []
    for mechanism in mechanisms:
        scenario = Scenario.build(
            mechanism=mechanism,
            workload="firealarm",
            config=ScenarioConfig(
                block_count=block_count, block_size=32,
                sim_block_size=memory_bytes // block_count,
                algorithm=algorithm, rounds=1,
                task_period=1.0, task_wcet=0.002, task_priority=100,
                alarm_writes=False,
            ),
            latency=0.005,
        )
        app = scenario.app
        scenario.drive()
        # Fire breaks out 100 ms after the request (i.e. just after MP
        # starts, the paper's worst case).
        app.start_fire(scenario.config.request_at + 0.1)
        scenario.run(until=60.0)
        alarm = app.outcome()
        rows.append(
            Sec25Row(
                mechanism=mechanism,
                mp_duration=scenario.outcome().mp_duration,
                alarm_latency=alarm.alarm_latency,
                deadline_misses=alarm.deadline_misses,
            )
        )
    return Sec25Result(rows=rows, memory_bytes=memory_bytes)


# ---------------------------------------------------------------------------
# SEC32 -- SMARM escape probabilities
# ---------------------------------------------------------------------------


@dataclass
class Sec32Result:
    n_blocks: int
    mc_single: float
    exact_single: float
    limit: float
    rounds_table: List[Tuple[int, float]]
    rounds_needed: int

    def render(self) -> str:
        lines = [
            f"single-round escape, n={self.n_blocks}: "
            f"Monte-Carlo {self.mc_single:.4f}, "
            f"exact ((n-1)/n)^n = {self.exact_single:.4f}, "
            f"limit e^-1 = {self.limit:.4f}",
            "",
            f"{'rounds':>7} {'P(escape all)':>15}",
        ]
        for rounds, escape in self.rounds_table:
            lines.append(f"{rounds:>7} {escape:>15.3e}")
        lines.append(
            f"\nrounds needed for escape < 1e-6: {self.rounds_needed} "
            "(the paper: 'after 13 checks that probability is below "
            "10^-6')"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# FLEET -- the Figure 5 QoA story, hundreds of provers deep
# ---------------------------------------------------------------------------


@dataclass
class FleetQoAResult:
    """Aggregated detection statistics from the canned QoA campaign."""

    campaign_name: str
    run_count: int
    execution_summary: str
    #: (t_m, dwell) -> (analytic detection probability, empirical rate)
    curves: Dict[Tuple[float, float], Tuple[float, float]]
    summary_text: str

    def render(self) -> str:
        lines = [
            f"fleet campaign {self.campaign_name}: {self.run_count} "
            "independent ERASMUS provers vs transient malware",
            self.execution_summary,
            "",
            f"{'T_M':>6} {'dwell':>7} {'P(detect) analytic':>19} "
            f"{'empirical':>10}",
        ]
        for (t_m, dwell), (analytic, empirical) in sorted(self.curves.items()):
            lines.append(
                f"{t_m:>6g} {dwell:>7g} {analytic:>19.2f} {empirical:>10.2f}"
            )
        lines.extend(["", self.summary_text])
        return "\n".join(lines)


def fleet_qoa(seed_count: int = 6, workers: int = 0) -> FleetQoAResult:
    """Run the canned QoA fleet campaign and fold the per-run detection
    outcomes into detection-probability curves over (T_M, dwell) --
    Figure 5's two anecdotes, made quantitative by seed replication.

    ``workers > 1`` shards the campaign over a process pool; the
    default stays serial so the driver works everywhere.
    """
    import tempfile

    from repro.fleet import (
        ProcessPoolBackend,
        SerialBackend,
        qoa_fleet_campaign,
        read_results_jsonl,
        run_pipeline,
    )

    campaign = qoa_fleet_campaign(seed_count=seed_count)
    backend = (
        ProcessPoolBackend(workers=workers) if workers > 1
        else SerialBackend()
    )
    with tempfile.TemporaryDirectory() as out_dir:
        report = run_pipeline(campaign, out_dir=out_dir, backend=backend)
        results = read_results_jsonl(report.paths.runs)

    buckets: Dict[Tuple[float, float], List[bool]] = {}
    analytic: Dict[Tuple[float, float], float] = {}
    for result in results:
        if not result.ok:
            continue
        key = (result.spec["t_m"], result.spec["dwell"])
        buckets.setdefault(key, []).append(result.detected)
        probability = result.qoa.get("detection_probability")
        if probability is not None:
            analytic[key] = probability
    curves = {
        key: (
            analytic.get(key, 0.0),
            sum(hits) / len(hits) if hits else 0.0,
        )
        for key, hits in buckets.items()
    }
    return FleetQoAResult(
        campaign_name=campaign.name,
        run_count=report.total_runs,
        execution_summary=report.summary_line(),
        curves=curves,
        summary_text=report.summary.render(),
    )


def sec32_smarm(n_blocks: int = 64, trials: int = 4000) -> Sec32Result:
    mc = escape_probability(n_blocks, trials=trials)
    rounds_table = [
        (rounds, multi_round_escape(n_blocks, rounds))
        for rounds in (1, 2, 3, 5, 8, 13, 14)
    ]
    return Sec32Result(
        n_blocks=n_blocks,
        mc_single=mc,
        exact_single=single_round_escape(n_blocks),
        limit=single_round_escape_limit(),
        rounds_table=rounds_table,
        rounds_needed=rounds_for_confidence(n_blocks),
    )


# ---------------------------------------------------------------------------
# ARTIFACTS -- the paper artifacts as ``repro`` subcommands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Artifact:
    """One paper artifact as a ``repro`` subcommand.

    ``arguments`` are ``(flag, add_argument keywords)`` pairs, so each
    CLI default lives here and nowhere else; ``run`` takes the parsed
    namespace and returns the text the command prints.
    """

    name: str
    help: str
    #: the ``repro all`` section title; ``None`` keeps it out of ``all``
    title: Optional[str]
    arguments: Tuple[Tuple[str, Dict[str, Any]], ...]
    run: Callable[[argparse.Namespace], str]


def _run_faults(args: argparse.Namespace) -> str:
    """Drive on-demand mechanisms through a seeded FaultPlan and print
    the degradation ledger (docs/resilience.md)."""
    spacing = 2.0
    horizon = 1.0 + spacing * args.exchanges + 10.0
    lines = [
        f"fault plan: {args.plan!r}  "
        f"({args.exchanges} exchanges per mechanism, seed {args.seed})",
    ]
    for mechanism in args.mechanisms:
        scenario = Scenario.build(
            mechanism=mechanism,
            faults=args.plan,
            config=ScenarioConfig(
                block_count=8, sim_block_size=MiB, horizon=horizon,
            ),
            seed=args.seed,
            retry=RetryPolicy(
                timeout=1.0, max_retries=6, backoff=1.5,
                max_timeout=4.0,
                seed=f"faults-cli-{args.seed}".encode(),
            ),
            fault_seed=f"faults-cli-{args.seed}-{mechanism}".encode(),
        )
        for index in range(args.exchanges):
            scenario.schedule_request(1.0 + spacing * index)
        scenario.run()
        false_alarms = sum(
            1 for r in scenario.verifier.results
            if r.verdict is Verdict.COMPROMISED
        )
        lines.append("")
        lines.append(scenario.outcomes.render(title=f"{mechanism}:"))
        if false_alarms:
            lines.append(
                f"  WARNING: {false_alarms} false 'compromised' "
                "verdict(s) on a benign device"
            )
    return "\n".join(lines)


def _run_swarm(args: argparse.Namespace) -> str:
    from repro.swarm import SwarmAttestation, make_topology

    sim = Simulator()
    topology = make_topology(sim, count=args.count, shape=args.shape)
    verifier = Verifier(sim)
    swarm = SwarmAttestation(topology, verifier)
    for index in args.infect:
        if 0 <= index < args.count:
            TransientMalware(
                topology.devices[index], target_block=3, infect_at=0.0,
                name=f"mal-{index}",
            )
    nonce = swarm.attest(timeout=60.0)
    sim.run(until=120.0)
    result = swarm.result_for(nonce)
    lines = [
        f"swarm of {args.count} devices ({args.shape})",
        f"aggregate valid : {result.valid}",
        f"healthy         : {result.healthy}/{result.total}",
        f"dirty nodes     : {', '.join(result.dirty_nodes) or '(none)'}",
        f"completed at    : t = {result.completed_at:.3f} s",
    ]
    return "\n".join(lines)


def _run_swatt(args: argparse.Namespace) -> str:
    def play(redirect_penalty, speedup, infected):
        sim = Simulator()
        device = Device(sim, block_count=16, block_size=32,
                        sim_block_size=MiB)
        channel = Channel(sim, latency=0.005)
        device.attach_network(channel)
        service = SoftwareAttestation(
            device, redirect_penalty=redirect_penalty,
            forgery_speedup=speedup,
        )
        service.install()
        reads = device.block_count * service.iterations
        honest = device.timing.hash_time(
            "sha256", device.memory.sim_block_size * reads
        )
        swatt_verifier = SoftwareVerifier(
            channel, list(device.memory.benign_image()), honest
        )
        if infected:
            TransientMalware(device, target_block=5, infect_at=0.0)
        sim.schedule_at(0.5, swatt_verifier.challenge, device.name)
        sim.run(until=60)
        return swatt_verifier.verdicts[0]

    rows = [
        ("honest device", play(0.0, 1.0, False)),
        ("naive malware", play(0.0, 1.0, True)),
        ("redirecting malware", play(args.penalty, 1.0, True)),
        ("optimized adversary", play(args.penalty, args.speedup, True)),
    ]
    lines = ["software-based RA timing game"]
    for label, verdict in rows:
        mark = "ACCEPTED" if verdict.accepted else "rejected"
        lines.append(
            f"  {label:<22} checksum "
            f"{'ok' if verdict.correct else 'BAD'}  "
            f"elapsed {verdict.elapsed:7.4f}s "
            f"(limit {verdict.threshold:.4f}s)  -> {mark}"
        )
    return "\n".join(lines)


#: every paper artifact ``repro`` offers, in ``--help`` order
ARTIFACTS: Tuple[Artifact, ...] = (
    Artifact(
        "fig1", "on-demand RA timeline", "FIG1",
        (
            ("--memory", dict(default="64MiB",
                              help="attested memory size (default 64MiB)")),
            ("--deferral", dict(type=float, default=0.05,
                                help="request deferral on the prover, "
                                     "seconds")),
        ),
        lambda args: fig1_timeline(
            memory_mib=max(1, parse_size(args.memory) // MiB),
            deferral=args.deferral,
        ).render(),
    ),
    Artifact(
        "fig2", "hash/signature timing curves", "FIG2",
        (
            ("--points", dict(type=int, default=1,
                              help="points per decade in the size sweep")),
        ),
        lambda args: fig2_report(points_per_decade=args.points).render(),
    ),
    Artifact(
        "fig3", "solution taxonomy and Table 1 text", "FIG3", (),
        lambda args: fig3_overview().render(),
    ),
    Artifact(
        "fig4", "consistency timeline per locking policy", "FIG4", (),
        lambda args: fig4_consistency().render(),
    ),
    Artifact(
        "fig5", "QoA timeline (self-measurement)", "FIG5",
        (
            ("--tm", dict(type=float, default=4.0, help="T_M seconds")),
            ("--tc", dict(type=float, default=16.0, help="T_C seconds")),
        ),
        lambda args: fig5_qoa(t_m=args.tm, t_c=args.tc).render(),
    ),
    Artifact(
        "table1", "empirical feature matrix vs claims", "TABLE1", (),
        lambda args: table1().render(),
    ),
    Artifact(
        "firealarm", "Section 2.5 fire alarm", "SEC25",
        (
            ("--memory", dict(default="1GiB",
                              help="attested memory size (default 1GiB)")),
        ),
        lambda args: sec25_firealarm(
            memory_bytes=parse_size(args.memory)
        ).render(),
    ),
    Artifact(
        "smarm", "SMARM escape probabilities", "SEC32",
        (
            ("--blocks", dict(type=int, default=64)),
            ("--trials", dict(type=int, default=4000)),
        ),
        lambda args: sec32_smarm(
            n_blocks=args.blocks, trials=args.trials
        ).render(),
    ),
    Artifact(
        "faults", "on-demand RA under an adversarial channel", None,
        (
            ("--plan", dict(default="loss=0.3@0:40;reset@6",
                            help="FaultPlan DSL (docs/resilience.md)")),
            ("--exchanges", dict(type=int, default=20,
                                 help="attestation exchanges per "
                                      "mechanism")),
            ("--mechanisms", dict(nargs="*",
                                  default=("smart", "inc-lock", "smarm"),
                                  help="on-demand mechanisms to drive")),
            ("--seed", dict(type=int, default=7)),
        ),
        _run_faults,
    ),
    Artifact(
        "swarm", "collective attestation demo", None,
        (
            ("--count", dict(type=int, default=15,
                             help="number of devices")),
            ("--shape", dict(default="tree",
                             choices=["tree", "star", "line", "random"])),
            ("--infect", dict(type=int, nargs="*", default=(4, 9),
                              help="node indices to infect")),
        ),
        _run_swarm,
    ),
    Artifact(
        "swatt", "software-based RA timing game (legacy devices)", None,
        (
            ("--penalty", dict(type=float, default=2e-3,
                               help="redirection penalty per read, "
                                    "seconds")),
            ("--speedup", dict(type=float, default=0.5,
                               help="the optimized adversary's speed "
                                    "factor")),
        ),
        _run_swatt,
    ),
)
