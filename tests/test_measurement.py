"""The measurement process MP: traversal, records, interruption."""

import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import HASH_ALGORITHMS, get_algorithm
from repro.errors import ConfigurationError
from repro.malware.observer import MeasurementObserver
from repro.obs.core import Observability
from repro.ra.locking import AllLock
from repro.ra.measurement import (
    MeasurementConfig,
    MeasurementProcess,
    derive_order_seed,
    expected_digest,
    traversal_bytes,
    traversal_order,
)
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.task import PeriodicTask


def run_measurement(device, config, nonce=b"n", counter=1, until=100.0):
    mp = MeasurementProcess(device, config, nonce=nonce, counter=counter,
                            mechanism="test")
    device.cpu.spawn("mp", mp.run, priority=config.priority)
    device.sim.run(until=until)
    assert mp.record is not None
    return mp.record


def make_device(block_count=8, **kwargs):
    sim = Simulator()
    device = Device(sim, block_count=block_count, block_size=32, **kwargs)
    return device


class TestOrderDerivation:
    def test_sequential_order(self):
        assert traversal_order([0, 1, 2], "sequential", b"") == [0, 1, 2]

    def test_shuffled_order_is_permutation(self):
        order = traversal_order(list(range(32)), "shuffled", b"seed")
        assert sorted(order) == list(range(32))
        assert order != list(range(32))  # 1/32! chance of flaking

    def test_shuffled_order_deterministic_per_seed(self):
        blocks = list(range(16))
        assert traversal_order(blocks, "shuffled", b"s") == traversal_order(
            blocks, "shuffled", b"s"
        )

    def test_order_seed_depends_on_everything(self):
        base = derive_order_seed(b"key", b"nonce", 1)
        assert base != derive_order_seed(b"other", b"nonce", 1)
        assert base != derive_order_seed(b"key", b"other", 1)
        assert base != derive_order_seed(b"key", b"nonce", 2)


def spec_digest(key, image, algorithm, nonce, counter, measured, order,
                order_seed, normalized):
    """``expected_digest`` restated on the stdlib: one ``hmac.new`` over
    ``nonce || counter || visited blocks`` (zeros where normalized)."""
    visit = list(measured)
    if order == "shuffled":
        visit = HmacDrbg(order_seed).shuffle(visit)
    covered = b"".join(
        bytes(len(image[i])) if i in normalized else image[i] for i in visit
    )
    message = nonce + counter.to_bytes(8, "big") + covered
    return hmac.new(
        key, message, digestmod=get_algorithm(algorithm).factory
    ).digest()


@st.composite
def digest_inputs(draw):
    image = draw(st.lists(st.binary(max_size=300), min_size=1, max_size=10))
    indices = range(len(image))
    whole = draw(st.booleans())
    measured = (
        list(indices) if whole
        else draw(st.lists(st.sampled_from(indices), unique=True))
    )
    return dict(
        key=draw(st.binary(max_size=200)),
        image=tuple(image),
        algorithm=draw(st.sampled_from(sorted(HASH_ALGORITHMS))),
        nonce=draw(st.binary(max_size=24)),
        counter=draw(st.integers(0, 2**64 - 1)),
        measured=measured,
        order=draw(st.sampled_from(["sequential", "shuffled"])),
        order_seed=draw(st.binary(min_size=1, max_size=16)),
        normalized=frozenset(draw(st.sets(st.sampled_from(indices)))),
    )


class TestExpectedDigestDifferential:
    """One traversal buffer must digest exactly like the spec HMAC."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(case=digest_inputs())
    def test_matches_stdlib_spec(self, case):
        digest = expected_digest(
            case["key"], case["image"], case["algorithm"], case["nonce"],
            case["counter"], case["measured"], case["order"],
            case["order_seed"], normalized_blocks=case["normalized"],
        )
        assert digest == spec_digest(**case)

    def test_traversal_bytes_visits_and_zeroes(self):
        image = (b"aa", b"bbb", b"c")
        assert traversal_bytes(image, [2, 0], "sequential", b"") == b"caa"
        assert traversal_bytes(
            image, [0, 1, 2], "sequential", b"", frozenset({1})
        ) == b"aa\x00\x00\x00c"


class TestRecordContents:
    def test_digest_matches_expected_digest(self):
        device = make_device()
        config = MeasurementConfig(algorithm="sha256")
        record = run_measurement(device, config, nonce=b"nonce")
        expected = expected_digest(
            device.attestation_key,
            list(device.memory.benign_image()),
            "sha256",
            b"nonce",
            1,
            list(range(device.block_count)),
            "sequential",
            b"",
        )
        assert record.digest == expected

    def test_shuffled_digest_recomputable(self):
        device = make_device()
        config = MeasurementConfig(order="shuffled")
        record = run_measurement(device, config, nonce=b"abc")
        assert record.order_seed == derive_order_seed(
            device.attestation_key, b"abc", 1
        )
        expected = expected_digest(
            device.attestation_key,
            list(device.memory.benign_image()),
            record.algorithm,
            record.nonce,
            record.counter,
            list(range(device.block_count)),
            "shuffled",
            record.order_seed,
        )
        assert record.digest == expected

    def test_timing_fields(self):
        device = make_device(sim_block_size=1024 * 1024)
        record = run_measurement(device, MeasurementConfig())
        per_block = device.block_measure_time("blake2s")
        assert record.duration >= per_block * device.block_count
        assert record.t_end > record.t_start

    def test_audit_fields_populated(self):
        device = make_device()
        record = run_measurement(device, MeasurementConfig())
        assert len(record.audit_block_times) == device.block_count
        assert all(t >= 0 for t in record.audit_block_times)
        assert all(h for h in record.audit_block_hashes)

    def test_audit_times_monotone_in_sequential_order(self):
        device = make_device()
        record = run_measurement(device, MeasurementConfig())
        times = list(record.audit_block_times)
        assert times == sorted(times)

    def test_process_result_is_record(self):
        device = make_device()
        config = MeasurementConfig()
        mp = MeasurementProcess(device, config, nonce=b"n")
        proc = device.cpu.spawn("mp", mp.run, priority=50)
        device.sim.run(until=100)
        assert proc.result is mp.record


class TestRegions:
    def test_region_restriction(self):
        device = make_device()
        device.standard_layout()
        config = MeasurementConfig(region="code")
        record = run_measurement(device, config)
        code = device.memory.regions["code"]
        assert record.block_count == code.length
        assert record.region == "code"
        # Only code blocks have audit entries.
        measured = [
            i for i, t in enumerate(record.audit_block_times) if t >= 0
        ]
        assert measured == list(code.blocks())

    def test_unknown_region_rejected(self):
        device = make_device()
        config = MeasurementConfig(region="ghost")
        mp = MeasurementProcess(device, config, nonce=b"n")
        device.cpu.spawn("mp", mp.run, priority=50)
        with pytest.raises(ConfigurationError):
            device.sim.run(until=10)


class TestNormalization:
    def test_normalized_digest_ignores_data_writes(self):
        device = make_device()
        device.standard_layout()
        data_block = device.memory.regions["data"].start
        device.memory.write(data_block, b"\x77" * 32, "app")
        config = MeasurementConfig(normalize_mutable=True)
        record = run_measurement(device, config, nonce=b"z")
        reference = list(device.memory.benign_image())
        mutable = frozenset(device.memory.regions["data"].blocks())
        expected = expected_digest(
            device.attestation_key, reference, record.algorithm,
            b"z", 1, list(range(device.block_count)), "sequential", b"",
            normalized_blocks=mutable,
        )
        assert record.digest == expected
        assert record.normalized

    def test_unnormalized_digest_sees_data_writes(self):
        device = make_device()
        device.standard_layout()
        data_block = device.memory.regions["data"].start
        device.memory.write(data_block, b"\x77" * 32, "app")
        record = run_measurement(device, MeasurementConfig(), nonce=b"z")
        expected_clean = expected_digest(
            device.attestation_key,
            list(device.memory.benign_image()),
            record.algorithm, b"z", 1,
            list(range(device.block_count)), "sequential", b"",
        )
        assert record.digest != expected_clean

    def test_normalization_does_not_hide_code_changes(self):
        device = make_device()
        device.standard_layout()
        device.memory.write(0, b"\x66" * 32, "malware")  # code block
        config = MeasurementConfig(normalize_mutable=True)
        record = run_measurement(device, config, nonce=b"z")
        reference = list(device.memory.benign_image())
        mutable = frozenset(device.memory.regions["data"].blocks())
        clean = expected_digest(
            device.attestation_key, reference, record.algorithm,
            b"z", 1, list(range(device.block_count)), "sequential", b"",
            normalized_blocks=mutable,
        )
        assert record.digest != clean


class TestInterruption:
    def test_atomic_mp_never_interrupted(self):
        device = make_device(sim_block_size=4 * 1024 * 1024)
        PeriodicTask(device.cpu, "task", period=0.05, wcet=0.001,
                     priority=100)
        config = MeasurementConfig(atomic=True)
        record = run_measurement(device, config)
        assert record.interruptions == 0

    def test_interruptible_mp_preempted_by_task(self):
        device = make_device(sim_block_size=4 * 1024 * 1024)
        PeriodicTask(device.cpu, "task", period=0.05, wcet=0.001,
                     priority=100)
        config = MeasurementConfig(atomic=False, priority=50)
        record = run_measurement(device, config)
        assert record.interruptions > 0

    def test_lock_ops_extend_duration(self):
        device = make_device()
        plain = run_measurement(make_device(), MeasurementConfig())
        locked = run_measurement(
            device, MeasurementConfig(locking=AllLock())
        )
        assert locked.duration > plain.duration


class TestMetricsWithoutSpans:
    """A metrics-only bundle skips per-block span work but counts every
    block exactly as a spans-on run does, brownout included."""

    def run_with(self, spans, reset_at):
        sim = Simulator(obs=Observability.enabled(spans=spans))
        device = Device(sim, block_count=8, block_size=32,
                        sim_block_size=4 * 1024 * 1024)
        mp = MeasurementProcess(device, MeasurementConfig(),
                                nonce=b"n", mechanism="test")
        device.cpu.spawn("mp", mp.run, priority=50)
        if reset_at is not None:
            sim.schedule_at(reset_at, device.reset)
        sim.run(until=100.0)
        return (
            device.trace.render(),
            sim.obs.metrics.snapshot_flat(),
            len(sim.obs.spans.spans) if spans else 0,
        )

    @pytest.mark.parametrize("reset_at", [None, 0.1])
    def test_counts_match_spans_on(self, reset_at):
        trace_off, flat_off, _ = self.run_with(False, reset_at)
        trace_on, flat_on, span_count = self.run_with(True, reset_at)
        assert trace_off == trace_on
        assert flat_off == flat_on
        assert span_count > 0
        blocks = flat_off["ra.blocks.measured{mechanism=test}"]
        assert (blocks < 8) == (reset_at is not None)


class TestReadTimeCounters:
    """``ra.blocks.measured`` / ``ra.bytes.measured`` read each device's
    live per-mechanism block count when sampled, so a cut-off or killed
    traversal shows exactly the blocks it finished."""

    SIM_BLOCK = 4 * 1024 * 1024

    def make(self, obs, name="prv"):
        sim = obs if isinstance(obs, Simulator) else Simulator(obs=obs)
        device = Device(sim, name=name, block_count=8, block_size=32,
                        sim_block_size=self.SIM_BLOCK)
        mp = MeasurementProcess(device, MeasurementConfig(),
                                nonce=b"n", mechanism="test")
        device.cpu.spawn("mp", mp.run, priority=50)
        block_time = device.timing.hash_time("blake2s", self.SIM_BLOCK)
        return device, block_time

    def counts(self, sim):
        flat = sim.obs.metrics.snapshot_flat()
        return (flat["ra.blocks.measured{mechanism=test}"],
                flat["ra.bytes.measured{mechanism=test}"])

    def test_cut_off_traversal_counts_measured_blocks(self):
        device, block_time = self.make(Observability.enabled(spans=False))
        device.sim.run(until=2.5 * block_time)
        assert self.counts(device.sim) == (2.0, 2.0 * self.SIM_BLOCK)
        device.sim.run(until=100.0)
        assert self.counts(device.sim) == (8.0, 8.0 * self.SIM_BLOCK)

    def test_killed_measurement_keeps_its_count(self):
        device, block_time = self.make(Observability.enabled(spans=False))
        device.sim.schedule_at(3.5 * block_time, device.reset)
        device.sim.run(until=100.0)
        assert self.counts(device.sim) == (3.0, 3.0 * self.SIM_BLOCK)

    def test_devices_sharing_a_registry_add_up(self):
        sim = Simulator(obs=Observability.enabled(spans=False))
        first, block_time = self.make(sim, "a")
        self.make(sim, "b")
        sim.run(until=2.5 * block_time)
        assert self.counts(sim) == (4.0, 4.0 * self.SIM_BLOCK)
        first.reset()
        sim.run(until=100.0)
        assert self.counts(sim) == (10.0, 10.0 * self.SIM_BLOCK)
        # one series per mechanism, summed over the devices' counts
        assert [first.blocks_measured, sim.obs.metrics.snapshot_flat()[
            "ra.blocks.measured{mechanism=test}"]] == [{"test": 2}, 10.0]

    def test_no_measurement_registers_no_series(self):
        sim = Simulator(obs=Observability.enabled(spans=False))
        device = Device(sim, block_count=8, block_size=32)
        PeriodicTask(device.cpu, "app", period=1.0, wcet=0.01)
        sim.run(until=5.0)
        flat = sim.obs.metrics.snapshot_flat()
        assert not [key for key in flat if key.startswith("ra.")]
        assert device.blocks_measured == {}


class TestMalwareVisibility:
    def test_observer_sees_progress_counts_only(self):
        device = make_device()
        observer = MeasurementObserver(device)
        run_measurement(device, MeasurementConfig(order="shuffled"))
        events = observer.progress_events()
        assert [e.progress for e in events] == list(
            range(1, device.block_count + 1)
        )
        # Nothing in the event reveals which block was measured.
        assert not hasattr(events[0], "block_index")

    def test_atomic_flag_visible_to_malware(self):
        device = make_device()
        observer = MeasurementObserver(device)
        run_measurement(device, MeasurementConfig(atomic=True))
        assert all(not e.interruptible for e in observer.starts())

    def test_notifications_suppressed_when_configured(self):
        device = make_device()
        observer = MeasurementObserver(device)
        run_measurement(device, MeasurementConfig(notify_malware=False))
        assert observer.events == []


class TestConfigValidation:
    def test_bad_order_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementConfig(order="spiral")

    def test_negative_release_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementConfig(release_delay=-1.0)
