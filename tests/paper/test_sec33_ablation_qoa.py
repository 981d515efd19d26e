"""ABL-QOA -- self-measurement ablations (Section 3.3).

1. T_M sweep vs transient-malware detection probability (closed form
   against full ERASMUS simulation);
2. the scheduling compromise: fixed-period vs context-aware vs
   slack-fitting self-measurement against a critical task -- deadline
   misses traded against measurement-schedule drift.
"""

import pytest

from repro.analysis.qoa_math import detection_probability
from repro.core.scheduler_policy import ContextAwareSchedule, SlackSchedule
from repro.malware.transient import TransientMalware
from repro.ra.erasmus import CollectorVerifier, ErasmusService
from repro.ra.measurement import MeasurementConfig
from repro.ra.report import Verdict
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel
from repro.sim.task import PeriodicTask
from repro.units import MiB

from tests.paper.conftest import banner


def run_erasmus_detection(t_m, dwell, phase, horizon=40.0):
    """One ERASMUS run with a transient infection of given dwell/phase;
    returns True if the final collection flags it."""
    sim = Simulator()
    device = Device(sim, block_count=8, block_size=32)
    device.standard_layout()
    channel = Channel(sim, latency=0.002)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    service = ErasmusService(
        device, period=t_m,
        config=MeasurementConfig(atomic=True, priority=50,
                                 normalize_mutable=True),
        history_size=256,
    )
    service.start()
    collector = CollectorVerifier(verifier, channel)
    infect_at = 5 * t_m + phase
    TransientMalware(device, target_block=2, infect_at=infect_at,
                     leave_at=infect_at + dwell)
    sim.schedule_at(horizon - 1.0, collector.collect, device.name)
    sim.run(until=horizon)
    collection = collector.collections[0]
    return collection.result.verdict is Verdict.COMPROMISED


def test_ablation_tm_sweep():
    """Detection probability tracks dwell/T_M (Figure 5's knob)."""
    dwell = 2.0

    rows = []
    for t_m in (1.0, 2.0, 4.0, 8.0):
        phases = [t_m * (k + 0.5) / 8 for k in range(8)]
        detected = sum(
            run_erasmus_detection(t_m, dwell, phase,
                                  horizon=12 * t_m + 10)
            for phase in phases
        )
        rows.append((t_m, detected / len(phases),
                     detection_probability(dwell, t_m)))
    print(banner("ABL-QOA: T_M vs detection of a 2 s transient"))
    print(f"{'T_M':>6} {'simulated':>10} {'closed form':>12}")
    for t_m, simulated, closed in rows:
        print(f"{t_m:>6.1f} {simulated:>10.2f} {closed:>12.2f}")
    for t_m, simulated, closed in rows:
        assert simulated == pytest.approx(closed, abs=0.3)
    # Monotone: faster measurement, better detection.
    simulated_rates = [s for _, s, _ in rows]
    assert simulated_rates[0] >= simulated_rates[-1]
    assert simulated_rates[0] == 1.0  # dwell 2 s vs T_M 1 s: certain


def run_scheduler_ablation(policy_name, mp_seconds=0.22):
    sim = Simulator()
    device = Device(sim, block_count=8, block_size=32,
                    sim_block_size=4 * MiB)
    device.standard_layout()
    critical = PeriodicTask(device.cpu, "crit", period=0.5, wcet=0.01,
                            priority=100)
    if policy_name == "fixed":
        policy = None
    elif policy_name == "context-aware":
        policy = ContextAwareSchedule(critical, guard=mp_seconds)
    else:
        policy = SlackSchedule(critical, measurement_time=mp_seconds)
    service = ErasmusService(
        device, period=1.0,
        config=MeasurementConfig(atomic=True, priority=50),
        scheduler=policy,
    )
    service.start()
    sim.run(until=20.0)
    stats = critical.stats()
    drift = 0.0
    for index, record in enumerate(service.history):
        drift = max(drift, record.t_start - index * 1.0)
    return stats, drift, service.measurements_done


def test_ablation_scheduling_policies():
    """The Section 3.3 compromise: context-aware scheduling eliminates
    the availability damage of atomic self-measurement at the price of
    bounded schedule drift."""

    results = {
        name: run_scheduler_ablation(name)
        for name in ("fixed", "context-aware", "slack")
    }
    print(banner("ABL-QOA: self-measurement scheduling policies"))
    print(f"{'policy':<15} {'misses':>7} {'worst resp[ms]':>15} "
          f"{'drift[s]':>9} {'measurements':>13}")
    for name, (stats, drift, count) in results.items():
        print(
            f"{name:<15} {stats.deadline_misses:>7} "
            f"{stats.worst_response * 1e3:>15.1f} {drift:>9.3f} "
            f"{count:>13}"
        )
    fixed_stats, _, fixed_count = results["fixed"]
    for aware in ("context-aware", "slack"):
        aware_stats, drift, count = results[aware]
        assert aware_stats.worst_response < fixed_stats.worst_response
        assert aware_stats.deadline_misses == 0
        assert drift < 1.0  # bounded deferral
        assert count >= fixed_count - 2  # QoA essentially preserved
    # The fixed policy actually hurts the task.
    assert fixed_stats.worst_response > 0.1
