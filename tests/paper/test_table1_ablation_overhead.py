"""ABL-OVERHEAD -- Table 1's "Run-Time Overhead" column, quantified.

The paper grades overhead qualitatively: baseline (SMART), "Low"
(locking: a few MPU syscalls), "High" (SMARM: k independent
measurements), "None" (self-measurement: amortized off the critical
path).  This test measures all four on one device and checks the
ordering and the magnitudes behind the grades.
"""

from repro.ra.erasmus import CollectorVerifier, ErasmusService
from repro.ra.locking import make_policy
from repro.ra.measurement import MeasurementConfig
from repro.ra.service import AttestationService, OnDemandVerifier
from repro.ra.smarm import SmarmAttestation
from repro.ra.smart import SmartAttestation
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel
from repro.units import MiB

from tests.paper.conftest import banner


def fresh_stack():
    sim = Simulator()
    device = Device(sim, block_count=32, block_size=32,
                    sim_block_size=2 * MiB)
    device.standard_layout()
    channel = Channel(sim, latency=0.002)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    driver = OnDemandVerifier(verifier, channel)
    return sim, device, driver


def on_demand_total_time(service_factory, rounds=1):
    """Simulated time the prover spends on one attestation request,
    from the first record's t_s to the last record's t_e."""
    sim, device, driver = fresh_stack()
    service = service_factory(device)
    service.install()
    exchanges = []
    sim.schedule_at(
        1.0,
        lambda: exchanges.append(driver.request(device.name, rounds)),
    )
    sim.run(until=600)
    report = exchanges[0].report
    first = min(r.t_start for r in report.records)
    last = max(r.t_end for r in report.records)
    return last - first, device


def test_ablation_overhead_grades():
    rows = {}
    smart_time, _ = on_demand_total_time(
        lambda d: SmartAttestation(d)
    )
    rows["smart (baseline)"] = (smart_time, 0)
    for policy in ("all-lock", "dec-lock", "inc-lock"):
        duration, device = on_demand_total_time(
            lambda d, p=policy: AttestationService(
                d,
                MeasurementConfig(locking=make_policy(p),
                                  priority=50),
                mechanism=p,
            )
        )
        rows[policy] = (
            duration, device.mpu.lock_ops + device.mpu.unlock_ops
        )
    smarm_time, _ = on_demand_total_time(
        lambda d: SmarmAttestation(d), rounds=13
    )
    rows["smarm x13"] = (smarm_time, 0)

    # Self-measurement: overhead *on the request path* is zero; the
    # verifier only collects precomputed results.
    sim = Simulator()
    device = Device(sim, block_count=32, block_size=32,
                    sim_block_size=2 * MiB)
    device.standard_layout()
    channel = Channel(sim, latency=0.002)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    service = ErasmusService(
        device, period=3.0,
        config=MeasurementConfig(atomic=True, priority=50),
    )
    service.start()
    collector = CollectorVerifier(verifier, channel)
    request_at = 10.0
    done_at = []
    sim.schedule_at(
        request_at,
        lambda: collector.collect(
            device.name,
            lambda c: done_at.append(c.collected_at),
        ),
    )
    sim.run(until=30)
    rows["erasmus collect"] = (done_at[0] - request_at, 0)
    print(banner("ABL-OVERHEAD: Table 1's run-time overhead column"))
    print(f"{'mechanism':<18} {'prover time [s]':>16} {'MPU ops':>8}")
    for name, (duration, ops) in rows.items():
        print(f"{name:<18} {duration:>16.4f} {ops:>8}")

    baseline = rows["smart (baseline)"][0]
    # "Low": locking adds under 10% to the baseline measurement.
    for policy in ("all-lock", "dec-lock", "inc-lock"):
        duration, ops = rows[policy]
        assert duration < baseline * 1.10
        assert ops > 0
    # "High": 13 SMARM rounds cost an order of magnitude more.
    assert rows["smarm x13"][0] > 10 * baseline
    # "None": collection answers from storage, orders of magnitude
    # below a fresh measurement (network + MAC only).
    assert rows["erasmus collect"][0] < baseline / 10
