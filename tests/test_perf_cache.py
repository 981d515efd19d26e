"""Digest-cache correctness: unit semantics plus golden equality.

The cache is an opt-in wall-clock optimization; nothing it does may be
visible in simulated time.  The contract tested here:

* :class:`DigestCache` LRU/counter semantics in isolation;
* generation bookkeeping in :class:`Memory` (every applied mutation
  bumps, an MPU-blocked write does not, ``bump_all_generations``
  mutates in place so the measurement loop's alias stays live);
* ``Device.reset`` orphans *and* frees cached entries;
* byte-identical traces and identical verdicts cache-on vs cache-off
  for every Table-1 mechanism, including under self-relocating malware
  (whose writes must invalidate by construction) and a mid-run
  brownout;
* ERASMUS coupled with on-demand attestation on the same device,
  parametrized over the digest algorithms, yields byte-identical
  reports and availability metrics either way.
"""

import pytest

from repro.apps.firealarm import FireAlarmApp
from repro.apps.metrics import summarize_tasks
from repro.core.tradeoff import ScenarioConfig
from repro.errors import ConfigurationError, MemoryFault
from repro.perf.digest_cache import DigestCache
from repro.ra.erasmus import CollectorVerifier, ErasmusService
from repro.ra.locking import make_policy
from repro.ra.measurement import MeasurementConfig, MeasurementProcess
from repro.ra.report import audit_hash
from repro.ra.service import OnDemandVerifier
from repro.ra.verifier import Verifier
from repro.scenario import Scenario
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.memory import Memory
from repro.sim.network import Channel
from repro.sim.trace import Trace


# -- DigestCache unit semantics -------------------------------------------


class TestDigestCacheUnit:
    def key(self, block=0, gen=0):
        return (block, gen, "sha256", b"k")

    def test_store_then_lookup_hit(self):
        cache = DigestCache()
        cache.store(self.key(), b"content", b"audit")
        assert cache.lookup(self.key()) == (b"content", b"audit")
        assert cache.hits == 1 and cache.misses == 0
        assert len(cache) == 1

    def test_miss_counts(self):
        cache = DigestCache()
        assert cache.lookup(self.key()) is None
        assert cache.misses == 1 and cache.hits == 0
        assert cache.hit_rate == 0.0

    def test_generation_bump_orphans_entry(self):
        cache = DigestCache()
        cache.store(self.key(gen=0), b"old", b"a0")
        assert cache.lookup(self.key(gen=1)) is None

    def test_lru_eviction_order(self):
        cache = DigestCache(capacity=2)
        cache.store(self.key(0), b"c0", b"a0")
        cache.store(self.key(1), b"c1", b"a1")
        cache.lookup(self.key(0))  # refresh 0; 1 is now LRU
        cache.store(self.key(2), b"c2", b"a2")
        assert cache.evictions == 1
        assert cache.lookup(self.key(1)) is None
        assert cache.lookup(self.key(0)) is not None
        assert cache.lookup(self.key(2)) is not None

    def test_invalidate_clears_and_counts(self):
        cache = DigestCache()
        cache.store(self.key(0), b"c", b"a")
        cache.store(self.key(1), b"c", b"a")
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.invalidations == 1
        # empty invalidate is not an invalidation event
        assert cache.invalidate() == 0
        assert cache.invalidations == 1

    def test_stats_shape(self):
        cache = DigestCache(capacity=8)
        cache.store(self.key(), b"c", b"a")
        cache.lookup(self.key())
        cache.lookup(self.key(1))
        stats = cache.stats()
        assert stats["size"] == 1 and stats["capacity"] == 8
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            DigestCache(capacity=0)
        with pytest.raises(ConfigurationError):
            DigestCache(capacity=-3)


# -- Memory generation bookkeeping ----------------------------------------


class TestGenerations:
    def make_device(self, **kw):
        sim = Simulator()
        device = Device(sim, block_count=8, block_size=32, **kw)
        device.standard_layout()
        return sim, device

    def test_write_patch_load_image_bump(self):
        sim, device = self.make_device()
        memory = device.memory
        assert memory.generations == [0] * 8
        memory.write(2, b"\xaa" * 32, actor="test")
        assert memory.generation(2) == 1
        memory.patch(2, 4, b"\xbb\xbb", actor="test")
        assert memory.generation(2) == 2
        memory.load_image(memory.snapshot())
        assert all(g >= 1 for g in memory.generations)
        assert memory.generation(2) == 3

    def test_blocked_write_does_not_bump(self):
        sim, device = self.make_device()
        device.mpu.lock(3)
        with pytest.raises(MemoryFault):
            device.memory.write(3, b"\xcc" * 32, actor="malware")
        assert device.memory.generation(3) == 0
        assert not device.memory.try_write(3, b"\xcc" * 32, actor="malware")
        assert device.memory.generation(3) == 0

    def test_bump_all_mutates_in_place(self):
        sim, device = self.make_device()
        alias = device.memory.generations  # measurement loop holds this
        device.memory.bump_all_generations()
        assert alias is device.memory.generations
        assert alias == [1] * 8

    def test_device_reset_bumps_and_invalidates(self):
        cache = DigestCache()
        sim, device = self.make_device(digest_cache=cache)
        cache.store((0, 0, "sha256", device.key_fingerprint), b"c", b"a")
        before = list(device.memory.generations)
        device.reset()
        assert len(cache) == 0
        assert all(
            after > prior
            for after, prior in zip(device.memory.generations, before)
        )


# -- Golden equality across the mechanism matrix --------------------------


MECHANISMS = [
    "no-lock", "all-lock", "dec-lock", "inc-lock",
    "smart", "smarm", "erasmus", "seed",
]


def run_scenario(mechanism, cache, config=None, **build_kw):
    config = config or ScenarioConfig(block_count=24, horizon=25.0,
                                      erasmus_collect_at=20.0)
    scenario = Scenario.build(
        mechanism, digest_cache=cache, config=config, **build_kw
    )
    if scenario.driver is not None:
        # on-demand mechanisms measure only when challenged; two
        # requests make the second traversal exercise the cache
        scenario.schedule_request(config.request_at)
        scenario.schedule_request(config.request_at + 8.0)
    scenario.run()
    return scenario


def verdicts(scenario):
    return [result.verdict for result in scenario.verifier.results]


#: direct-MP cases: clean memory, a dirty code block plus a mid-run
#: data write, then that on a ring-buffer trace, under each treatment
#: of the mutable region, and under a real locking policy
RECORD_CASES = [
    "clean", "dirty", "ring-trace", "normalize", "attach", "inc-lock",
]


def measure_twice(case, cache):
    """Two back-to-back measurements on one device; the second one
    re-walks the blocks the first filled into the cache."""
    sim = Simulator()
    device = Device(
        sim, block_count=16, block_size=32,
        trace=Trace(max_records=40) if case == "ring-trace" else None,
        digest_cache=DigestCache() if cache else None,
    )
    device.standard_layout()
    if case != "clean":
        device.memory.write(2, b"\x5a" * 32, actor="malware")
        # lands mid-traversal, on a data block not yet measured
        block_time = device.hash_time("blake2s", device.memory.sim_block_size)
        sim.schedule_at(
            5.5 * block_time, device.memory.try_write, 12, b"\x11" * 32, "app"
        )
    records = []
    for counter in (1, 2):
        config = MeasurementConfig(
            normalize_mutable=case == "normalize",
            attach_mutable=case == "attach",
            locking=make_policy("inc-lock") if case == "inc-lock" else None,
        )
        mp = MeasurementProcess(
            device, config, nonce=b"golden", counter=counter
        )
        device.cpu.spawn(f"mp{counter}", mp.run, priority=config.priority)
        sim.run(until=sim.now + 100.0)
        records.append(mp.record)
    return device, records


class TestGoldenEquality:
    @pytest.mark.parametrize("case", RECORD_CASES)
    def test_measurement_records_identical(self, case):
        off_device, off = measure_twice(case, cache=False)
        on_device, on = measure_twice(case, cache=True)
        for rec_off, rec_on in zip(off, on):
            assert rec_off.digest == rec_on.digest
            assert rec_off.audit_block_times == rec_on.audit_block_times
            assert rec_off.audit_block_hashes == rec_on.audit_block_hashes
            assert rec_off.data_copy == rec_on.data_copy
        assert off == on  # every other MeasurementRecord field too
        assert off_device.trace.render() == on_device.trace.render()
        assert off_device.trace.dropped == on_device.trace.dropped
        assert on_device.digest_cache.hits > 0
        if case == "ring-trace":
            assert on_device.trace.dropped > 0
        if case == "attach":
            assert off[0].data_copy
        if case == "clean":
            # an independent reference: hash the benign image here
            # instead of trusting the interned audits the step reuses
            expected = tuple(
                audit_hash(block)
                for block in off_device.memory.benign_image()
            )
            for record in off + on:
                assert record.audit_block_hashes == expected

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_trace_and_verdicts_identical(self, mechanism):
        off = run_scenario(mechanism, cache=False)
        on = run_scenario(mechanism, cache=True)
        assert off.device.trace.render() == on.device.trace.render()
        assert verdicts(off) == verdicts(on)
        assert on.digest_cache is not None
        # the fast path actually engaged: repeat traversals hit
        assert on.digest_cache.hits > 0

    def test_cache_off_device_has_no_cache(self):
        off = run_scenario("erasmus", cache=False)
        assert off.device.digest_cache is None
        assert off.digest_cache is None


class TestRelocatingMalwareInvalidation:
    """Satellite: relocation writes bump generations, so a cached run
    must detect a moved agent exactly when an uncached run does."""

    @pytest.mark.parametrize("mechanism", ["smarm", "erasmus", "smart"])
    def test_equal_under_relocation(self, mechanism):
        kw = dict(malware="relocating",
                  malware_options={"strategy": "to-measured",
                                   "rng_seed": 99})
        off = run_scenario(mechanism, cache=False, **kw)
        on = run_scenario(mechanism, cache=True, **kw)
        assert off.device.trace.render() == on.device.trace.render()
        assert verdicts(off) == verdicts(on)

    def test_relocation_misses_stale_entries(self):
        on = run_scenario("erasmus", cache=True, malware="relocating")
        cache = on.digest_cache
        # relocation rewrote blocks between rounds: not every repeat
        # traversal can be a pure hit
        assert cache.misses > on.device.block_count

    def test_reset_mid_run_equivalence(self):
        def with_reset(cache):
            config = ScenarioConfig(block_count=24, horizon=25.0,
                                    erasmus_collect_at=20.0)
            scenario = Scenario.build("erasmus", digest_cache=cache,
                                      config=config)
            scenario.sim.schedule_at(11.3, scenario.device.reset)
            scenario.run()
            return scenario

        off = with_reset(False)
        on = with_reset(True)
        assert off.device.trace.render() == on.device.trace.render()
        assert verdicts(off) == verdicts(on)
        assert on.digest_cache.invalidations >= 1


# -- ERASMUS + on-demand on one device, per algorithm ---------------------


def coupled_run(algorithm, cache):
    sim = Simulator()
    device = Device(sim, block_count=12, block_size=32,
                    digest_cache=DigestCache() if cache else None)
    device.standard_layout()
    channel = Channel(sim, latency=0.002)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    service = ErasmusService(
        device, period=2.0,
        config=MeasurementConfig(algorithm=algorithm, atomic=True,
                                 priority=50, normalize_mutable=True),
        on_demand=True,
    )
    service.start()
    driver = OnDemandVerifier(verifier, channel, endpoint_name="vrf-od")
    collector = CollectorVerifier(verifier, channel,
                                  endpoint_name="vrf-collect")
    app = FireAlarmApp(device, period=0.25, sample_wcet=0.002,
                       priority=100, data_block=device.block_count - 1)
    exchanges = []
    sim.schedule_at(
        5.3, lambda: exchanges.append(driver.request(device.name))
    )
    sim.schedule_at(9.0, collector.collect, device.name)
    sim.run(until=12.0)
    availability = summarize_tasks(device, [app.task])
    return {
        "trace": device.trace.render(),
        "verdicts": [r.verdict for r in verifier.results],
        "reports": [
            bytes(record.canonical_bytes())
            for collection in collector.collections
            for record in collection.records
        ],
        "exchange_report": [
            bytes(record.canonical_bytes())
            for record in exchanges[0].report.records
        ],
        "availability": availability.to_dict(),
        "served": service.on_demand_served,
        "cache": device.digest_cache,
    }


class TestCoupledOnDemandEquality:
    @pytest.mark.parametrize(
        "algorithm", ["sha256", "sha512", "blake2b", "blake2s"]
    )
    def test_reports_and_availability_identical(self, algorithm):
        off = coupled_run(algorithm, cache=False)
        on = coupled_run(algorithm, cache=True)
        assert off["trace"] == on["trace"]
        assert off["verdicts"] == on["verdicts"]
        assert off["reports"] == on["reports"]
        assert off["reports"]  # the collection actually carried records
        assert off["exchange_report"] == on["exchange_report"]
        assert off["availability"] == on["availability"]
        assert off["served"] == on["served"] == 1
        assert on["cache"].hits > 0
