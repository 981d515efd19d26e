"""Temporal-consistency analysis (Figure 4 semantics)."""

import pytest

from repro.core.consistency import (
    ConsistencyAnalyzer,
    ConsistencyVerdict,
    expected_consistency,
)
from repro.errors import ConfigurationError
from repro.ra.locking import make_policy
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.memory import content_fingerprint
from repro.units import MiB


def run_measurement_with_writes(policy_name, writes, block_count=8,
                                release_delay=0.0):
    """Run one measurement under ``policy_name`` with scheduled writes.

    ``writes`` is a list of (time, block) pairs; each write is a
    try_write (it may fault against locks).
    """
    sim = Simulator()
    device = Device(sim, block_count=block_count, block_size=32,
                    sim_block_size=MiB)
    config = MeasurementConfig(
        locking=make_policy(policy_name), release_delay=release_delay,
        priority=50,
    )
    mp = MeasurementProcess(device, config, nonce=b"n")
    sim.schedule_at(1.0, lambda: device.cpu.spawn("mp", mp.run, priority=50))
    payload = b"\xDD" * 32
    for time, block in writes:
        sim.schedule_at(
            time,
            lambda b=block: device.memory.try_write(b, payload, "writer"),
        )
    sim.run(until=60)
    return device, mp.record


class TestFingerprintReconstruction:
    def test_no_writes_benign_everywhere(self):
        sim = Simulator()
        device = Device(sim, block_count=4, block_size=16)
        analyzer = ConsistencyAnalyzer(device.memory)
        expected = content_fingerprint(device.memory.benign_block(2))
        assert analyzer.fingerprint_at(2, 0.0) == expected
        assert analyzer.fingerprint_at(2, 100.0) == expected

    def test_write_changes_fingerprint_from_its_time(self):
        sim = Simulator()
        device = Device(sim, block_count=4, block_size=16)
        analyzer = ConsistencyAnalyzer(device.memory)
        sim.schedule_at(5.0, device.memory.write, 1, b"\xAA" * 16, "w")
        sim.run()
        benign = content_fingerprint(device.memory.benign_block(1))
        after = content_fingerprint(b"\xAA" * 16)
        assert analyzer.fingerprint_at(1, 4.9) == benign
        assert analyzer.fingerprint_at(1, 5.0) == after
        assert analyzer.fingerprint_at(1, 99.0) == after

    def test_timeline_follows_writes_after_a_query(self):
        sim = Simulator()
        device = Device(sim, block_count=4, block_size=16)
        analyzer = ConsistencyAnalyzer(device.memory)
        benign = content_fingerprint(device.memory.benign_block(3))
        sim.schedule_at(1.0, device.memory.write, 3, b"\x01" * 16, "w")
        sim.run(until=2.0)
        first = content_fingerprint(b"\x01" * 16)
        assert analyzer.fingerprint_at(3, 5.0) == first
        sim.schedule_at(3.0, device.memory.write, 3, b"\x02" * 16, "w")
        sim.run()
        assert analyzer.fingerprint_at(3, 0.5) == benign
        assert analyzer.fingerprint_at(3, 2.0) == first
        assert analyzer.fingerprint_at(3, 3.0) == content_fingerprint(
            b"\x02" * 16
        )

    def test_multiple_writes_latest_wins(self):
        sim = Simulator()
        device = Device(sim, block_count=4, block_size=16)
        analyzer = ConsistencyAnalyzer(device.memory)
        sim.schedule_at(1.0, device.memory.write, 0, b"\x01" * 16, "w")
        sim.schedule_at(2.0, device.memory.write, 0, b"\x02" * 16, "w")
        sim.run()
        assert analyzer.fingerprint_at(0, 1.5) == content_fingerprint(
            b"\x01" * 16
        )
        assert analyzer.fingerprint_at(0, 2.5) == content_fingerprint(
            b"\x02" * 16
        )


class TestMechanismGuarantees:
    """Controlled B/C writes against each policy (the Figure 4 game)."""

    def profile_for(self, policy_name, release_delay=0.0):
        # Place write B after block 0 is measured but well before the
        # traversal ends, and write C before block 7 is reached.  The
        # per-block time comes from the same timing model MP uses.
        probe_device = Device(
            Simulator(), block_count=8, block_size=32, sim_block_size=MiB
        )
        per_block = probe_device.block_measure_time("blake2s")
        writes = [
            (1.0 + 2.5 * per_block, 0),  # B: early block, already done
            (1.0 + 4.5 * per_block, 7),  # C: late block, not yet done
        ]
        device, record = run_measurement_with_writes(
            policy_name, writes, release_delay=release_delay
        )
        assert record.audit_block_times[0] < writes[0][0]
        assert record.audit_block_times[7] > writes[1][0]
        analyzer = ConsistencyAnalyzer(device.memory)
        return record, analyzer.profile(record), analyzer

    def test_no_lock_inconsistent(self):
        record, profile, _ = self.profile_for("no-lock")
        assert profile.verdict is ConsistencyVerdict.NONE

    def test_all_lock_consistent_over_interval(self):
        record, profile, analyzer = self.profile_for("all-lock")
        assert analyzer.consistent_at(record, record.t_start)
        assert analyzer.consistent_at(
            record, (record.t_start + record.t_end) / 2
        )
        assert analyzer.consistent_at(record, record.t_end)

    def test_dec_lock_consistent_at_start_only(self):
        record, profile, analyzer = self.profile_for("dec-lock")
        assert analyzer.consistent_at(record, record.t_start)
        assert not analyzer.consistent_at(record, record.t_end)

    def test_inc_lock_consistent_at_end(self):
        record, profile, analyzer = self.profile_for("inc-lock")
        assert not analyzer.consistent_at(record, record.t_start)
        assert analyzer.consistent_at(record, record.t_end)

    def test_all_lock_ext_consistent_until_release(self):
        record, profile, analyzer = self.profile_for(
            "all-lock-ext", release_delay=0.5
        )
        assert record.t_release is not None
        assert analyzer.consistent_at(record, record.t_release - 1e-6)

    def test_profile_collects_probe_times(self):
        record, profile, _ = self.profile_for("all-lock")
        assert profile.probed_times
        assert profile.any_consistent


class TestFig4Profiles:
    """Profiles of two Figure 4 runs, captured when the analyzer still
    rescanned the whole write log for every (block, probe) pair; the
    per-block timeline must reproduce them exactly."""

    PINS = {
        "inc-lock": (
            ConsistencyVerdict.INTERVAL,
            (1.2625384, 1.350069304308128, 1.4376002086162558,
             1.4376007086162557, 1.4376012086162557),
            (0.999999, 0.9999994999999999, 1.0, 1.1312692, 1.2625384,
             1.350069304308128, 1.4376002086162558, 1.4376007086162557,
             1.4376012086162557),
        ),
        "all-lock-ext": (
            ConsistencyVerdict.INTERVAL,
            (0.999999, 0.9999994999999999, 1.0, 1.2188001043081274,
             1.437600208616255, 1.5469917086162548, 1.6563832086162549),
            (0.999999, 0.9999994999999999, 1.0, 1.2188001043081274,
             1.437600208616255, 1.5469917086162548, 1.6563832086162549),
        ),
    }

    @pytest.mark.parametrize("policy", sorted(PINS))
    def test_profile_unchanged(self, policy):
        from repro.experiments import fig4_consistency

        (case,) = fig4_consistency(policies=[policy]).cases
        profile = case.profile
        assert (
            profile.verdict, profile.consistent_times, profile.probed_times
        ) == self.PINS[policy]


class TestAnalyzerValidation:
    def test_record_without_audit_rejected(self):
        import dataclasses

        device, record = run_measurement_with_writes("no-lock", [])
        bare = dataclasses.replace(
            record, audit_block_hashes=(), audit_block_times=()
        )
        analyzer = ConsistencyAnalyzer(device.memory)
        with pytest.raises(ConfigurationError):
            analyzer.consistent_at(bare, 0.0)

    def test_consistent_instants_filter(self):
        device, record = run_measurement_with_writes("all-lock", [])
        analyzer = ConsistencyAnalyzer(device.memory)
        probes = [record.t_start, record.t_end]
        assert analyzer.consistent_instants(record, probes) == probes


class TestClaims:
    def test_known_claims(self):
        assert expected_consistency("dec-lock") == "instant t_s"
        assert expected_consistency("inc-lock") == "instant t_e"
        assert "t_r" in expected_consistency("all-lock-ext")
        assert expected_consistency("no-lock") == "none"

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ConfigurationError):
            expected_consistency("quantum-lock")
