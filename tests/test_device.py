"""Device composition: layout, key, secure timer, malware hooks."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.device import Device, SecureTimer
from repro.sim.engine import Simulator
from repro.sim.network import Channel


def make_device(**kwargs):
    sim = Simulator()
    return sim, Device(sim, block_count=16, block_size=32, **kwargs)


class TestComposition:
    def test_memory_mpu_wired(self):
        _, device = make_device()
        assert device.memory.mpu is device.mpu
        assert device.memory.now() == 0.0

    def test_attestation_key_deterministic_from_seed(self):
        _, a = make_device(seed=11)
        _, b = make_device(seed=11)
        _, c = make_device(seed=12)
        assert a.attestation_key == b.attestation_key
        assert a.attestation_key != c.attestation_key

    def test_explicit_key_respected(self):
        _, device = make_device(attestation_key=b"k" * 32)
        assert device.attestation_key == b"k" * 32

    def test_attach_network(self):
        sim, device = make_device()
        channel = Channel(sim)
        nic = device.attach_network(channel)
        assert device.nic is nic
        assert nic.name == device.name

    def test_block_count_property(self):
        _, device = make_device()
        assert device.block_count == 16


class TestLayout:
    def test_standard_layout(self):
        _, device = make_device()
        device.standard_layout(code_fraction=0.5)
        code = device.memory.regions["code"]
        data = device.memory.regions["data"]
        assert code.length == 8 and not code.mutable
        assert data.length == 8 and data.mutable
        assert code.end == data.start

    def test_bad_code_fraction_rejected(self):
        _, device = make_device()
        with pytest.raises(ConfigurationError):
            device.standard_layout(code_fraction=1.5)

    def test_add_region(self):
        _, device = make_device()
        region = device.add_region("stack", 0, 4, mutable=True)
        assert device.memory.region_of(1) is region


class TestTiming:
    def test_hash_time_delegates_to_model(self):
        _, device = make_device()
        assert device.hash_time("sha256", 10**6) == pytest.approx(
            device.timing.hash_time("sha256", 10**6)
        )

    def test_block_measure_time_uses_sim_size(self):
        sim = Simulator()
        small = Device(sim, block_count=4, block_size=32)
        big = Device(sim, block_count=4, block_size=32,
                     sim_block_size=1024 * 1024, name="big")
        assert big.block_measure_time("sha256") > small.block_measure_time(
            "sha256"
        )


class TestSecureTimer:
    def test_fires_at_absolute_time(self):
        sim = Simulator()
        timer = SecureTimer(sim)
        fired = []
        timer.at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]
        assert timer.fired == 1

    def test_fires_after_delay(self):
        sim = Simulator()
        timer = SecureTimer(sim)
        fired = []
        sim.schedule(
            1.0, lambda: timer.at(sim.now + 2.0, lambda: fired.append(sim.now))
        )
        sim.run()
        assert fired == [3.0]

    def test_cancel_all(self):
        sim = Simulator()
        timer = SecureTimer(sim)
        fired = []
        handles = [timer.at(t, lambda t=t: fired.append(t)) for t in (1, 2)]
        for handle in handles:
            handle.cancel()
        sim.run()
        assert fired == []


class TestMalwareHooks:
    class Recorder:
        def __init__(self):
            self.calls = []

        def on_measurement_start(self, mechanism, interruptible, region=""):
            self.calls.append(("start", mechanism, interruptible, region))

        def on_progress(self, progress, total, interruptible, region=""):
            self.calls.append(("progress", progress, total))

        def on_measurement_end(self):
            self.calls.append(("end",))

    def test_notifications_fan_out(self):
        _, device = make_device()
        first, second = self.Recorder(), self.Recorder()
        device.register_malware(first)
        device.register_malware(second)
        device.notify_measurement_started("smart", False)
        device.notify_block_measured(1, 16, False)
        device.notify_measurement_finished()
        assert first.calls == second.calls
        assert first.calls[0] == ("start", "smart", False, "")
        assert first.calls[1] == ("progress", 1, 16)
        assert first.calls[2] == ("end",)
