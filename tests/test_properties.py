"""Cross-cutting property-based tests (hypothesis).

These pin down whole-system invariants rather than single functions:
measurement soundness (any code-byte flip flips the verdict), CPU
conservation, locking-policy automata, and QoA timeline classification
against brute force.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.qoa import InfectionEvent, QoAParameters, QoATimeline
from repro.ra.locking import DecLock, IncLock, make_policy
from repro.ra.measurement import (
    MeasurementConfig,
    traversal_order,
)
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.process import CPU, Compute, Sleep


def fresh_device(block_count=8):
    sim = Simulator()
    device = Device(sim, block_count=block_count, block_size=16)
    device.standard_layout()
    return device


def measure_now(device, nonce=b"p", order="sequential"):
    from repro.ra.measurement import MeasurementProcess

    config = MeasurementConfig(order=order)
    mp = MeasurementProcess(device, config, nonce=nonce)
    device.cpu.spawn("mp", mp.run, priority=50)
    device.sim.run(until=device.sim.now + 100)
    return mp.record


class TestMeasurementSoundness:
    @settings(max_examples=20, deadline=None)
    @given(
        block=st.integers(min_value=0, max_value=7),
        offset=st.integers(min_value=0, max_value=15),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_any_single_bit_flip_changes_the_digest(self, block, offset,
                                                    bit):
        """Soundness at bit granularity: there is no byte anywhere in
        attested memory the measurement is blind to."""
        device = fresh_device()
        baseline = measure_now(device, nonce=b"a").digest
        original = bytearray(device.memory.read_block(block))
        original[offset] ^= 1 << bit
        device.memory.write(block, bytes(original), "flip")
        flipped = measure_now(device, nonce=b"a").digest
        assert flipped != baseline

    @settings(max_examples=15, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.binary(min_size=16, max_size=16),
            ),
            max_size=6,
        )
    )
    def test_revert_restores_digest(self, writes):
        """Measurements depend only on contents, not history."""
        device = fresh_device()
        baseline = measure_now(device, nonce=b"b").digest
        snapshots = {}
        for block, data in writes:
            snapshots.setdefault(block, device.memory.read_block(block))
            device.memory.write(block, data, "scramble")
        for block, original in snapshots.items():
            device.memory.write(block, original, "restore")
        assert measure_now(device, nonce=b"b").digest == baseline

    @settings(max_examples=15, deadline=None)
    @given(seed=st.binary(min_size=1, max_size=16))
    def test_shuffled_digest_matches_verifier_recomputation(self, seed):
        device = fresh_device()
        record = measure_now(device, nonce=seed, order="shuffled")
        verifier = Verifier(device.sim)
        verifier.enroll(device)
        assert verifier.verify_record(record).value == "healthy"

    @settings(max_examples=20, deadline=None)
    @given(
        blocks=st.lists(
            st.integers(min_value=0, max_value=31),
            min_size=1, max_size=16, unique=True,
        ),
        seed=st.binary(min_size=1, max_size=8),
    )
    def test_traversal_order_is_permutation(self, blocks, seed):
        order = traversal_order(blocks, "shuffled", seed)
        assert sorted(order) == sorted(blocks)


class TestCpuConservation:
    @settings(max_examples=20, deadline=None)
    @given(
        tasks=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10),  # priority
                st.floats(min_value=0.01, max_value=2.0),  # compute
                st.floats(min_value=0.0, max_value=1.0),  # initial sleep
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_cpu_time_conserved_under_preemption(self, tasks):
        """Every process eventually receives exactly the compute time
        it asked for, and total busy time never exceeds wall time."""
        sim = Simulator()
        cpu = CPU(sim)
        spawned = []

        for index, (priority, work, delay) in enumerate(tasks):
            def body(proc, work=work, delay=delay):
                if delay > 0:
                    yield Sleep(delay)
                yield Compute(work)

            spawned.append(
                cpu.spawn(f"t{index}", body, priority=priority)
            )
        sim.run()
        for proc, (priority, work, delay) in zip(spawned, tasks):
            assert proc.cpu_time == pytest.approx(work, rel=1e-9)
            assert proc.finished_at is not None
        total_work = sum(work for _, work, _ in tasks)
        assert sim.now >= total_work - 1e-9


class TestLockingAutomata:
    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(list(range(6))))
    def test_dec_lock_monotone_release(self, order):
        device = Device(Simulator(), block_count=6, block_size=16)
        policy = DecLock()
        policy.reset(device, order)
        policy.on_start()
        counts = [sum(device.mpu.lock_bits)]
        for block in order:
            policy.before_block(block)
            policy.after_block(block)
            counts.append(sum(device.mpu.lock_bits))
        policy.on_end()
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 6 and counts[-1] == 0

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(list(range(6))))
    def test_inc_lock_monotone_acquire(self, order):
        device = Device(Simulator(), block_count=6, block_size=16)
        policy = IncLock()
        policy.reset(device, order)
        policy.on_start()
        counts = [sum(device.mpu.lock_bits)]
        for block in order:
            policy.before_block(block)
            policy.after_block(block)
            counts.append(sum(device.mpu.lock_bits))
        assert counts == sorted(counts)
        assert counts[-1] == 6
        policy.on_end()
        assert sum(device.mpu.lock_bits) == 0

    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(
            ["no-lock", "all-lock", "dec-lock", "inc-lock",
             "all-lock-ext", "inc-lock-ext"]
        ),
        order=st.permutations(list(range(5))),
    )
    def test_every_policy_leaves_no_locks_after_full_cycle(self, name,
                                                           order):
        device = Device(Simulator(), block_count=5, block_size=16)
        policy = make_policy(name)
        policy.reset(device, order)
        policy.on_start()
        for block in order:
            policy.before_block(block)
            policy.after_block(block)
        policy.on_end()
        policy.on_release()
        assert sum(device.mpu.lock_bits) == 0


class TestQoAClassification:
    @settings(max_examples=50, deadline=None)
    @given(
        t_m=st.floats(min_value=0.5, max_value=10.0),
        start=st.floats(min_value=0.0, max_value=50.0),
        dwell=st.floats(min_value=0.01, max_value=30.0),
    )
    def test_detection_matches_brute_force(self, t_m, start, dwell):
        params = QoAParameters(t_m=t_m, t_c=1000.0)
        horizon = 100.0
        timeline = QoATimeline(params, horizon,
                               collection_times=[horizon])
        outcome = timeline.add_infection(
            InfectionEvent(start, start + dwell)
        )
        grid = [k * t_m for k in range(int(horizon / t_m) + 1)]
        covered = any(start <= g <= start + dwell for g in grid)
        assert (outcome.covering_measurement is not None) == covered
