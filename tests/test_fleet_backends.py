"""Executor backends: serial and process pool, and backend resolution."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    ProcessPoolBackend,
    RunResult,
    RunSpec,
    SerialBackend,
    make_shards,
    resolve_backend,
)
from repro.units import MiB


def fast_spec(**overrides) -> RunSpec:
    fields = dict(
        mechanism="smart",
        adversary="none",
        block_count=8,
        sim_block_size=MiB,
        horizon=10.0,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def synthetic_runner(spec: RunSpec) -> RunResult:
    return RunResult(
        run_id=spec.run_id,
        spec=spec.to_dict(),
        detected=spec.seed % 2 == 0,
        measurements=1,
    )


def run_backend(backend, specs, shard_size=2, runner=synthetic_runner):
    shards = make_shards(specs, shard_size)
    return list(backend.execute(shards, runner=runner))


class TestMakeShards:
    def test_partitions_in_plan_order(self):
        specs = [fast_spec(seed=i) for i in range(7)]
        shards = make_shards(specs, 3)
        assert [shard.index for shard in shards] == [0, 1, 2]
        assert [len(shard) for shard in shards] == [3, 3, 1]
        assert [s.run_id for shard in shards for s in shard.specs] == [
            s.run_id for s in specs
        ]

    def test_invalid_shard_size(self):
        with pytest.raises(ConfigurationError):
            make_shards([fast_spec()], 0)


class TestSerialBackend:
    def test_yields_outcomes_in_order(self):
        specs = [fast_spec(seed=i) for i in range(5)]
        outcomes = run_backend(SerialBackend(), specs)
        assert [o.shard.index for o in outcomes] == [0, 1, 2]
        assert all(not o.degraded for o in outcomes)
        flat = [r.run_id for o in outcomes for r in o.results]
        assert flat == [s.run_id for s in specs]


class TestProcessPoolBackend:
    def test_pool_unavailable_degrades_to_serial(self):
        def no_pool(workers):
            raise OSError("no processes for you")

        backend = ProcessPoolBackend(workers=4, pool_factory=no_pool)
        specs = [fast_spec(seed=i) for i in range(3)]
        outcomes = run_backend(backend, specs)
        assert backend.mode == "serial"
        assert backend.workers == 1
        assert all(o.degraded for o in outcomes)
        # degradation loses no results and keeps order
        flat = [r.run_id for o in outcomes for r in o.results]
        assert flat == [s.run_id for s in specs]

    def test_degraded_results_match_serial(self):
        def no_pool(workers):
            raise OSError("nope")

        specs = [fast_spec(seed=i) for i in range(4)]
        degraded = run_backend(
            ProcessPoolBackend(workers=2, pool_factory=no_pool), specs
        )
        serial = run_backend(SerialBackend(), specs)
        assert [
            r.to_json_line() for o in degraded for r in o.results
        ] == [r.to_json_line() for o in serial for r in o.results]


class TestResolveBackend:
    def test_serial(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)

    def test_process_with_worker_count(self):
        backend = resolve_backend("process:5")
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 5

    def test_process_defaults_to_cpu_count(self):
        backend = resolve_backend("process")
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers >= 2

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("quantum")
        with pytest.raises(ConfigurationError):
            resolve_backend("serial:2")
        for bad_count in ("process:abc", "process:0", "process:-3"):
            with pytest.raises(ConfigurationError, match="positive"):
                resolve_backend(bad_count)
        with pytest.raises(ConfigurationError,
                           match=r"known: serial, process\[:N\]$"):
            resolve_backend("spool:/tmp/x")
