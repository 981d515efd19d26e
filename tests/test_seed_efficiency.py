"""SeED's efficiency claims (Section 3.3).

"Lack of interaction makes SeED inherently resilient to DoS attacks,
which aim at exhausting Prv's resources ... Furthermore, SeED improves
the efficiency of RA due to its low communication overhead and low
network congestion."
"""

from repro.apps.firealarm import FireAlarmApp
from repro.ra.seed import SeedMonitor, SeedService
from repro.ra.service import OnDemandVerifier
from repro.ra.smart import SmartAttestation
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel
from repro.units import MiB


class TestCommunicationOverhead:
    def test_one_message_per_verified_measurement(self):
        """SeED: N verified measurements cost N messages; on-demand
        costs 2N (request + report)."""
        measurements = 5

        # --- SeED ---------------------------------------------------
        sim = Simulator()
        device = Device(sim, block_count=8, block_size=32)
        device.standard_layout()
        channel = Channel(sim, latency=0.002)
        device.attach_network(channel)
        verifier = Verifier(sim)
        verifier.enroll(device)
        service = SeedService(device, b"seed", min_gap=2.0, max_gap=3.0,
                              trigger_count=measurements)
        SeedMonitor(verifier, channel, device.name, b"seed",
                    min_gap=2.0, max_gap=3.0,
                    trigger_count=measurements, grace=1.0)
        service.start()
        sim.run(until=60)
        seed_messages = channel.sent_count
        assert verifier.verdict_counts().get("healthy") == measurements

        # --- on-demand ------------------------------------------------
        sim2 = Simulator()
        device2 = Device(sim2, block_count=8, block_size=32)
        device2.standard_layout()
        channel2 = Channel(sim2, latency=0.002)
        device2.attach_network(channel2)
        verifier2 = Verifier(sim2)
        verifier2.enroll(device2)
        SmartAttestation(device2).install()
        driver = OnDemandVerifier(verifier2, channel2)
        for index in range(measurements):
            sim2.schedule_at(index * 3.0 + 0.1, driver.request,
                             device2.name)
        sim2.run(until=60)
        ondemand_messages = channel2.sent_count

        assert seed_messages == measurements
        assert ondemand_messages == 2 * measurements
        assert seed_messages * 2 == ondemand_messages


class TestDosResilience:
    def run_under_flood(self, install_smart, flood_rate=50,
                        horizon=20.0):
        """A request flood against the prover; returns the critical
        task's stats and the count of measurements the prover ran."""
        sim = Simulator()
        # One atomic measurement (~0.8 s over 128 MiB) exceeds the
        # critical task's 0.5 s period: a sustained request flood is
        # then a working denial of service against interactive RA.
        device = Device(sim, block_count=16, block_size=32,
                        sim_block_size=8 * MiB)
        device.standard_layout()
        channel = Channel(sim, latency=0.001)
        device.attach_network(channel)
        verifier = Verifier(sim)
        verifier.enroll(device)
        app = FireAlarmApp(device, period=0.5, sample_wcet=0.002,
                           priority=100)

        # Sink for the prover's outbound reports (the legitimate Vrf).
        channel.make_endpoint("vrf")
        measurements_run = [0]
        if install_smart:
            service = SmartAttestation(device)
            service.install()
        else:
            service = SeedService(device, b"dos-seed", min_gap=4.0,
                                  max_gap=6.0, trigger_count=3)
            service.start()

        attacker = channel.make_endpoint("attacker")
        interval = 1.0 / flood_rate
        count = int(horizon / interval)
        for index in range(count):
            sim.schedule_at(
                1.0 + index * interval,
                attacker.send, device.name, "att_request",
                {"nonce": b"junk%d" % index, "rounds": 1},
            )
        sim.run(until=horizon)
        if install_smart:
            measurements_run[0] = service.requests_handled
        else:
            measurements_run[0] = len(service.reports_sent)
        return app.task.stats(), measurements_run[0]

    def test_interactive_prover_exhausted_by_flood(self):
        """Under SMART, every bogus request triggers a full atomic
        measurement: the attacker owns the CPU and the critical task
        starves."""
        stats, handled = self.run_under_flood(install_smart=True)
        assert handled > 10  # the prover kept serving the attacker
        assert stats.deadline_misses > 5
        assert stats.worst_response > 0.5

    def test_seed_prover_ignores_the_flood(self):
        """SeED accepts no inbound requests at all: the flood changes
        nothing; the critical task never misses."""
        stats, pushed = self.run_under_flood(install_smart=False)
        assert pushed == 3  # only the secret-timer measurements ran
        assert stats.deadline_misses == 0
        assert stats.worst_response < 0.3
