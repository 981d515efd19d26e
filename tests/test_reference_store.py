"""ReferenceStore: byte identity and sharing.

The cold-path layer is pure memoization: every byte and every audit
hash the store hands out must equal what the uncached generators
produce, the interned image must actually be *shared* (one copy per
process, not per device), and none of it may leak across ``seed`` /
``block_size`` or show up in simulated time.
"""

import tracemalloc

import pytest

from repro.core.tradeoff import ScenarioConfig
from repro.errors import ConfigurationError
from repro.perf.reference_store import (
    AUDIT_LEN,
    ReferenceStore,
    raw_benign_fill,
    set_reference_store,
)
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.scenario import Scenario
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.memory import (
    FINGERPRINT_LEN,
    Memory,
    benign_fill,
    content_fingerprint,
)


@pytest.fixture
def fresh_store():
    """Swap in an empty process store; restore the global afterwards."""
    store = ReferenceStore()
    previous = set_reference_store(store)
    try:
        yield store
    finally:
        set_reference_store(previous)


# -- interning is pure memoization ----------------------------------------


class TestByteIdentity:
    def test_block_matches_raw_generator(self, fresh_store):
        for index in (0, 1, 7):
            assert fresh_store.block(index, 64, seed=7) == \
                raw_benign_fill(index, 64, 7)

    def test_benign_fill_is_memoized_raw(self, fresh_store):
        first = benign_fill(3, 32, seed=9)
        assert first == raw_benign_fill(3, 32, 9)
        # second call returns the interned object itself
        assert benign_fill(3, 32, seed=9) is first

    def test_audit_matches_content_fingerprint(self, fresh_store):
        image = fresh_store.image(7, 64)
        for index in range(4):
            assert image.audit(index) == \
                content_fingerprint(image.block(index))

    def test_audit_len_matches_memory_fingerprint_len(self):
        # the import direction (sim.memory -> perf.reference_store)
        # forbids sharing the constant; pin the equality instead
        assert AUDIT_LEN == FINGERPRINT_LEN


# -- isolation and bounding -----------------------------------------------


class TestIsolation:
    def test_no_leak_across_seed(self, fresh_store):
        assert fresh_store.block(0, 64, seed=1) != \
            fresh_store.block(0, 64, seed=2)
        assert fresh_store.block(0, 64, seed=1) == raw_benign_fill(0, 64, 1)
        assert fresh_store.block(0, 64, seed=2) == raw_benign_fill(0, 64, 2)

    def test_no_leak_across_block_size(self, fresh_store):
        # interning at one block_size must not truncate/extend answers
        # for the other: each equals its own raw generation
        small = fresh_store.block(0, 32, seed=7)
        large = fresh_store.block(0, 64, seed=7)
        assert len(small) == 32 and len(large) == 64
        assert small == raw_benign_fill(0, 32, 7)
        assert large == raw_benign_fill(0, 64, 7)

    def test_images_keyed_per_seed_and_size(self, fresh_store):
        a = fresh_store.image(1, 32)
        b = fresh_store.image(2, 32)
        c = fresh_store.image(1, 64)
        assert a is not b and a is not c
        assert fresh_store.image(1, 32) is a

    def test_lru_eviction_at_image_granularity(self):
        store = ReferenceStore(capacity=2)
        store.image(1, 32)
        store.image(2, 32)
        store.image(1, 32)  # refresh; (2, 32) is now LRU
        store.image(3, 32)
        assert store.evictions == 1
        assert store.stats()["images"] == 2
        # the evicted image regenerates correctly on re-request
        assert store.block(0, 32, seed=2) == raw_benign_fill(0, 32, 2)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ReferenceStore(capacity=0)


# -- cross-device sharing -------------------------------------------------


class TestSharing:
    def make_memory(self, seed=7):
        return Memory(16, block_size=64, seed=seed)

    def test_devices_share_one_interned_tuple(self, fresh_store):
        first, second = self.make_memory(), self.make_memory()
        assert first.reference_blocks() is second.reference_blocks()
        for index in range(16):
            assert first.benign_block(index) is second.benign_block(index)
            # pristine reads alias the interned bytes: zero-copy and
            # identity-comparable against the reference
            assert first.read_block(index) is second.read_block(index)

    def test_write_unshares_only_the_written_block(self, fresh_store):
        memory = self.make_memory()
        other = self.make_memory()
        memory.write(3, b"\xaa" * 64, actor="test")
        assert memory.read_block(3) != other.read_block(3)
        assert memory.read_block(4) is other.read_block(4)
        # the interned reference is untouched by the device write
        assert other.read_block(3) == raw_benign_fill(3, 64, 7)

    def test_n_devices_one_reference_image_tracemalloc(self, fresh_store):
        image_bytes = 128 * 128
        self.warm = Memory(128, block_size=128, seed=11)  # warm the store
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            memories = [
                Memory(128, block_size=128, seed=11) for _ in range(8)
            ]
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        grown = sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if stat.traceback[0].filename.endswith("reference_store.py")
        )
        # regenerating per device would allocate >= 8 images inside
        # reference_store.py; sharing allocates none of them
        assert grown < image_bytes // 2
        assert all(
            memory.reference_blocks() is memories[0].reference_blocks()
            for memory in memories
        )


# -- the measurement step's interned audit reuse -------------------------


def run_measurement(device, config=None, until=100.0):
    config = config or MeasurementConfig()
    mp = MeasurementProcess(device, config, nonce=b"n", counter=1,
                            mechanism="test")
    device.cpu.spawn("mp", mp.run, priority=config.priority)
    device.sim.run(until=until)
    assert mp.record is not None
    return mp.record


class TestMissPathGolden:
    """A traversal reuses the interned audit for still-benign blocks and
    hashes everything else; either way the record must match what an
    independent hash of the measured content gives."""

    def test_dirty_blocks_do_not_reuse_benign_audit(self):
        device = Device(Simulator(), block_count=24, block_size=32)
        device.memory.write(5, b"\xee" * 32, actor="malware")
        record = run_measurement(device)
        memory = device.memory
        # the dirty block's audit is of the *measured* content, not the
        # interned reference
        assert record.audit_block_hashes[5] == \
            content_fingerprint(memory.read_block(5))
        assert record.audit_block_hashes[5] != memory.reference_audits()[5]
        # every clean block's reused audit equals a fresh hash of it
        assert record.audit_block_hashes == tuple(
            content_fingerprint(block) for block in memory.snapshot()
        )

    def test_store_state_never_leaks_into_sim_time(self):
        """A warm process store and a cold one produce byte-identical
        runs: interning is invisible in simulated time."""
        config = ScenarioConfig(block_count=24, horizon=25.0,
                                t_c=20.0)

        def run_smarm():
            scenario = Scenario.build("smarm", config=config)
            scenario.run()
            return scenario.device.trace.render(), [
                result.verdict for result in scenario.verifier.results
            ]

        warm = run_smarm()  # global store already warm from other tests
        previous = set_reference_store(ReferenceStore())
        try:
            cold = run_smarm()
        finally:
            set_reference_store(previous)
        assert warm == cold
