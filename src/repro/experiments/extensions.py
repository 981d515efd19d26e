"""The commands beyond the paper's figures and tables.

``repro faults`` drives on-demand mechanisms through a seeded
FaultPlan, ``repro swarm`` attests a device swarm collectively and
``repro swatt`` plays the software-only timing game for legacy
devices.
"""

from __future__ import annotations

import argparse

from repro.core.tradeoff import ScenarioConfig
from repro.malware.transient import TransientMalware
from repro.ra.report import Verdict
from repro.ra.software import SoftwareAttestation, SoftwareVerifier
from repro.ra.verifier import Verifier
from repro.resilience.retry import RetryPolicy
from repro.scenario import Scenario
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel
from repro.swarm.collective import SwarmAttestation
from repro.swarm.topology import make_topology
from repro.units import MiB


def run_faults(args: argparse.Namespace) -> str:
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


def run_swarm(args: argparse.Namespace) -> str:
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


def run_swatt(args: argparse.Namespace) -> str:
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
