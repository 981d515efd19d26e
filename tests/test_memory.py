"""Block memory: geometry, regions, writes, snapshots, audit log."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressError, ConfigurationError, MemoryFault
from repro.sim.engine import Simulator
from repro.sim.memory import (
    Memory,
    MemoryImage,
    Region,
    WriteRecord,
    benign_fill,
    content_fingerprint,
)
from repro.sim.mpu import FaultPolicy, MemoryProtectionUnit


def make_memory(block_count=8, block_size=16, **kwargs):
    return Memory(block_count, block_size, **kwargs)


class TestGeometry:
    def test_sizes(self):
        memory = make_memory(8, 16)
        assert memory.total_size == 128
        assert memory.total_sim_size == 128

    def test_sim_size_decoupled(self):
        memory = make_memory(8, 16, sim_block_size=1024)
        assert memory.total_size == 128
        assert memory.total_sim_size == 8 * 1024

    def test_sim_block_smaller_than_real_rejected(self):
        with pytest.raises(ConfigurationError):
            make_memory(8, 16, sim_block_size=8)

    def test_zero_blocks_rejected(self):
        with pytest.raises(ConfigurationError):
            make_memory(0, 16)

    def test_zero_block_size_rejected(self):
        with pytest.raises(ConfigurationError):
            make_memory(8, 0)


class TestBenignContents:
    def test_initialized_to_benign_image(self):
        memory = make_memory()
        assert memory.snapshot() == memory.benign_image()

    def test_benign_fill_deterministic(self):
        assert benign_fill(3, 16, 7) == benign_fill(3, 16, 7)

    def test_benign_fill_varies_by_block(self):
        assert benign_fill(0, 16, 7) != benign_fill(1, 16, 7)

    def test_benign_fill_varies_by_seed(self):
        assert benign_fill(0, 16, 7) != benign_fill(0, 16, 8)

    def test_no_dirty_blocks_initially(self):
        assert make_memory().dirty_blocks() == []


class TestReadWrite:
    def test_write_then_read(self):
        memory = make_memory()
        memory.write(2, b"\xAB" * 16, "tester")
        assert memory.read_block(2) == b"\xAB" * 16

    def test_write_wrong_size_rejected(self):
        with pytest.raises(AddressError):
            make_memory().write(0, b"short", "tester")

    def test_out_of_range_read(self):
        with pytest.raises(AddressError):
            make_memory(8).read_block(8)

    def test_out_of_range_write(self):
        with pytest.raises(AddressError):
            make_memory(8).write(-1, b"\x00" * 16, "t")

    def test_patch_partial(self):
        memory = make_memory()
        original = memory.read_block(1)
        memory.patch(1, 4, b"\xFF\xFF", "tester")
        patched = memory.read_block(1)
        assert patched[4:6] == b"\xFF\xFF"
        assert patched[:4] == original[:4]
        assert patched[6:] == original[6:]

    def test_patch_out_of_bounds(self):
        with pytest.raises(AddressError):
            make_memory().patch(0, 15, b"\x00\x00", "t")

    def test_dirty_blocks_reflect_writes(self):
        memory = make_memory()
        memory.write(5, b"\x01" * 16, "t")
        memory.write(2, b"\x02" * 16, "t")
        assert memory.dirty_blocks() == [2, 5]

    def test_write_back_benign_cleans(self):
        memory = make_memory()
        memory.write(5, b"\x01" * 16, "t")
        memory.write(5, memory.benign_block(5), "t")
        assert memory.dirty_blocks() == []


class TestWriteLog:
    def test_log_records_time_actor_fingerprint(self):
        sim = Simulator()
        memory = make_memory()
        memory.sim = sim
        sim.schedule(2.0, memory.write, 3, b"\xCD" * 16, "writer")
        sim.run()
        assert len(memory.write_log) == 1
        record = memory.write_log[0]
        assert record.time == 2.0
        assert record.block == 3
        assert record.actor == "writer"
        assert record.fingerprint == content_fingerprint(b"\xCD" * 16)

    def test_writes_in_window(self):
        sim = Simulator()
        memory = make_memory()
        memory.sim = sim
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, memory.write, 0, b"\x00" * 16, "w")
        sim.run()
        assert len(memory.writes_in(1.5, 2.5)) == 1

    def test_patch_logs_resulting_fingerprint(self):
        memory = make_memory()
        memory.patch(0, 0, b"\xFF", "w")
        expected = content_fingerprint(memory.read_block(0))
        assert memory.write_log[-1].fingerprint == expected


class TestWriteLogContents:
    """Each logged write keeps the block's contents after it, and its
    fingerprint, derived on read, is the fingerprint of that block as
    read right after the write."""

    def test_fingerprint_matches_block_read_after_each_write(self):
        sim = Simulator()
        memory = make_memory()
        memory.mpu = MemoryProtectionUnit(sim, 8, FaultPolicy.DROP)
        memory.mpu.lock(6)
        seen = []

        def read_back(block):
            seen.append(content_fingerprint(memory.read_block(block)))

        memory.write(2, b"\x11" * 16, "w")
        read_back(2)
        memory.patch(2, 3, b"\xEE\xEF", "p")
        read_back(2)
        memory.write(6, b"\x22" * 16, "denied")
        memory.patch(5, 15, bytearray(b"\x01"), "p")
        read_back(5)
        memory.write(2, bytearray(b"\x33" * 16), "w")
        read_back(2)

        assert [rec.block for rec in memory.write_log] == [2, 2, 5, 2]
        assert "denied" not in [rec.actor for rec in memory.write_log]
        assert [rec.fingerprint for rec in memory.write_log] == seen

    def test_content_is_the_frozen_snapshot(self):
        memory = make_memory()
        payload = bytearray(b"\x44" * 16)
        memory.write(1, payload, "w")
        payload[0] = 0  # the caller's buffer is not the record's
        record = memory.write_log[-1]
        assert record.content is memory.read_block(1)
        assert record.content == b"\x44" * 16
        memory.patch(1, 0, b"\x55", "p")
        assert memory.write_log[-1].content is memory.read_block(1)
        assert record.content == b"\x44" * 16


class TestWriteLogView:
    """``write_log``, built from the raw columns on each read, is the
    :class:`WriteRecord` sequence the memory used to append one per
    committed write: same fields, and each ``content`` the very snapshot
    ``read_block`` returned right after that write."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["write", "patch"]),
            st.integers(0, 7),
            st.integers(0, 15),
            st.binary(min_size=1, max_size=4),
            st.sampled_from([0.0, 0.25, 1.0]),
        ),
        max_size=40,
    ))
    def test_view_equals_the_appended_records(self, ops):
        sim = Simulator()
        memory = make_memory()
        memory.sim = sim
        memory.mpu = MemoryProtectionUnit(sim, 8, FaultPolicy.DROP)
        memory.mpu.lock(6)  # writes to block 6 are dropped, not logged
        expected = []

        def apply(op, block, offset, data):
            generation = memory.generations[block]
            if op == "write":
                memory.write(block, (data * 16)[:16], op)
            else:
                memory.patch(block, min(offset, 16 - len(data)), data, op)
            if memory.generations[block] != generation:
                expected.append(WriteRecord(
                    sim.now, block, op, memory.read_block(block)
                ))

        time = 0.0
        for op, block, offset, data, gap in ops:
            time += gap
            sim.schedule_at(time, apply, op, block, offset, data)
        sim.run()

        log = memory.write_log
        assert log == expected
        assert all(a.content is b.content for a, b in zip(log, expected))
        for low, high in ((0.0, 0.0), (0.25, 2.0), (0.0, time)):
            assert memory.writes_in(low, high) == [
                rec for rec in expected if low <= rec.time <= high
            ]


class TestMpuIntegration:
    def make_locked(self):
        sim = Simulator()
        memory = make_memory()
        memory.mpu = MemoryProtectionUnit(sim, 8, FaultPolicy.RAISE)
        memory.mpu.lock(3)
        return memory

    def test_locked_write_faults(self):
        memory = self.make_locked()
        with pytest.raises(MemoryFault):
            memory.write(3, b"\x00" * 16, "t")

    def test_locked_write_not_applied(self):
        memory = self.make_locked()
        before = memory.read_block(3)
        with pytest.raises(MemoryFault):
            memory.write(3, b"\x00" * 16, "t")
        assert memory.read_block(3) == before

    def test_locked_write_not_logged(self):
        memory = self.make_locked()
        with pytest.raises(MemoryFault):
            memory.write(3, b"\x00" * 16, "t")
        assert memory.write_log == []

    def test_try_write_returns_false_on_fault(self):
        memory = self.make_locked()
        assert memory.try_write(3, b"\x00" * 16, "t") is False
        assert memory.try_write(4, b"\x00" * 16, "t") is True

    def test_reads_never_blocked(self):
        memory = self.make_locked()
        memory.read_block(3)

    def test_drop_policy_discards_silently(self):
        sim = Simulator()
        memory = make_memory()
        memory.mpu = MemoryProtectionUnit(sim, 8, FaultPolicy.DROP)
        memory.mpu.lock(3)
        before = memory.read_block(3)
        memory.write(3, b"\x11" * 16, "t")  # no exception
        assert memory.read_block(3) == before
        assert memory.write_log == []


class TestGenerations:
    """Per-block generations move exactly when a mutation is applied:
    a write commits iff its block's generation moved."""

    def test_write_patch_load_image_bump(self):
        memory = make_memory(8, 32)
        assert memory.generations == [0] * 8
        memory.write(2, b"\xaa" * 32, actor="test")
        assert memory.generation(2) == 1
        memory.patch(2, 4, b"\xbb\xbb", actor="test")
        assert memory.generation(2) == 2
        memory.load_image(memory.snapshot())
        assert all(g >= 1 for g in memory.generations)
        assert memory.generation(2) == 3

    def test_blocked_write_does_not_bump(self):
        memory = make_memory(8, 32)
        memory.mpu = MemoryProtectionUnit(Simulator(), 8, FaultPolicy.RAISE)
        memory.mpu.lock(3)
        with pytest.raises(MemoryFault):
            memory.write(3, b"\xcc" * 32, actor="malware")
        assert memory.generation(3) == 0
        assert not memory.try_write(3, b"\xcc" * 32, actor="malware")
        assert memory.generation(3) == 0


class TestRegions:
    def test_add_and_lookup(self):
        memory = make_memory()
        region = memory.add_region(Region("code", 0, 4))
        assert memory.region_of(2) is region
        assert memory.region_of(5) is None

    def test_contains(self):
        region = Region("r", 2, 3)
        assert 2 in region and 4 in region
        assert 5 not in region and 1 not in region

    def test_overlap_rejected(self):
        memory = make_memory()
        memory.add_region(Region("a", 0, 4))
        with pytest.raises(ConfigurationError):
            memory.add_region(Region("b", 3, 2))

    def test_out_of_range_rejected(self):
        memory = make_memory(8)
        with pytest.raises(AddressError):
            memory.add_region(Region("big", 4, 8))

    def test_region_blocks(self):
        assert list(Region("r", 2, 3).blocks()) == [2, 3, 4]


class TestSnapshots:
    def test_snapshot_is_immutable_copy(self):
        memory = make_memory()
        snap = memory.snapshot()
        memory.write(0, b"\xEE" * 16, "t")
        assert snap[0] != memory.read_block(0)

    def test_load_image_restores(self):
        memory = make_memory()
        snap = memory.snapshot()
        memory.write(0, b"\xEE" * 16, "t")
        memory.load_image(snap)
        assert memory.snapshot() == snap

    def test_load_image_wrong_count_rejected(self):
        memory = make_memory(8)
        with pytest.raises(ConfigurationError):
            memory.load_image(MemoryImage([b"\x00" * 16] * 7))

    def test_load_image_wrong_block_size_rejected(self):
        memory = make_memory(8, 16)
        with pytest.raises(ConfigurationError):
            memory.load_image(MemoryImage([b"\x00" * 15] * 8))

    def test_image_replace(self):
        image = MemoryImage([b"\x00" * 4, b"\x11" * 4])
        replaced = image.replace(1, b"\x22" * 4)
        assert replaced[1] == b"\x22" * 4
        assert image[1] == b"\x11" * 4

    def test_image_replace_out_of_range(self):
        with pytest.raises(AddressError):
            MemoryImage([b"\x00"]).replace(3, b"\x01")

    def test_image_equality_and_hash(self):
        a = MemoryImage([b"\x00", b"\x01"])
        b = MemoryImage([b"\x00", b"\x01"])
        assert a == b
        assert hash(a) == hash(b)
        assert a != MemoryImage([b"\x00", b"\x02"])

    def test_fingerprint_stable(self):
        image = MemoryImage([b"ab", b"cd"])
        assert image.fingerprint() == MemoryImage([b"ab", b"cd"]).fingerprint()

    @given(
        st.lists(st.binary(min_size=4, max_size=4), min_size=1, max_size=8),
    )
    def test_image_roundtrip_through_memory(self, blocks):
        memory = Memory(len(blocks), 4)
        memory.load_image(MemoryImage(blocks))
        assert list(memory.snapshot()) == [bytes(b) for b in blocks]

    @settings(max_examples=25)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.binary(min_size=16, max_size=16),
            ),
            max_size=20,
        )
    )
    def test_write_sequence_final_state_matches_last_writes(self, writes):
        memory = make_memory()
        last = {}
        for block, data in writes:
            memory.write(block, data, "h")
            last[block] = data
        for block in range(8):
            expected = last.get(block, memory.benign_block(block))
            assert memory.read_block(block) == expected
