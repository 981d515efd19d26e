"""Executor backends: where shards actually run.

The *execute* stage of the campaign pipeline is a small protocol --
:class:`ExecutorBackend` -- so the same plan/shard/stream/reduce
machinery drives an in-process loop or a local process pool without
caring which:

* :class:`SerialBackend` -- in-process, the debugging/test baseline;
* :class:`ProcessPoolBackend` -- shards over a ``ProcessPoolExecutor``,
  with per-shard degradation to in-process execution when a worker
  crashes and wholesale degradation to serial when no pool exists.

Backends *yield* one :class:`ShardOutcome` at a time, as soon as it
completes, so the downstream streaming reducer never needs the whole
campaign in RAM.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
)

from repro.errors import ConfigurationError
from repro.fleet.campaign import RunSpec
from repro.fleet.executor import Runner, _run_shard, execute_run
from repro.fleet.telemetry import RunResult

if TYPE_CHECKING:  # the serial backend never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

LogFn = Callable[[str], None]


@dataclass
class Shard:
    """One plan-order slice of a campaign: the unit of dispatch,
    checkpointing and resume."""

    index: int
    specs: List[RunSpec]

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    def __getitem__(self, item: Any) -> Any:
        return self.specs[item]


@dataclass
class ShardOutcome:
    """One executed shard: its results, and how it got them."""

    shard: Shard
    results: List[RunResult]
    #: the shard lost its preferred executor and fell back (e.g. a
    #: pool worker crashed and the shard re-ran in-process)
    degraded: bool = False


class ExecutorBackend(Protocol):
    """Anything that can turn shards into shard outcomes.

    ``execute`` is a generator: outcomes must be yielded as they
    complete so the streaming reducer can checkpoint and fold without
    holding the campaign in memory.  ``mode`` and ``workers`` describe
    what actually happened (after any degradation) and are read once
    the iterator is exhausted.
    """

    mode: str
    workers: int

    def execute(
        self,
        shards: Sequence[Shard],
        *,
        retries: int = 1,
        runner: Runner = execute_run,
        log: Optional[LogFn] = None,
    ) -> Iterator[ShardOutcome]:
        ...


def make_shards(
    specs: Sequence[RunSpec], shard_size: int
) -> List[Shard]:
    """Partition ``specs`` into plan-order shards of ``shard_size``."""
    if shard_size <= 0:
        raise ConfigurationError("shard_size must be positive")
    return [
        Shard(index=index // shard_size,
              specs=list(specs[index:index + shard_size]))
        for index in range(0, len(specs), shard_size)
    ]


# ---------------------------------------------------------------------------
# In-process serial
# ---------------------------------------------------------------------------


class SerialBackend:
    """Execute every shard in this process, in plan order."""

    def __init__(self) -> None:
        self.mode = "serial"
        self.workers = 1

    def execute(
        self,
        shards: Sequence[Shard],
        *,
        retries: int = 1,
        runner: Runner = execute_run,
        log: Optional[LogFn] = None,
    ) -> Iterator[ShardOutcome]:
        for shard in shards:
            yield ShardOutcome(
                shard=shard,
                results=_run_shard(shard.specs, retries, runner),
            )


# ---------------------------------------------------------------------------
# Local process pool
# ---------------------------------------------------------------------------


def _default_pool_factory(workers: int) -> ProcessPoolExecutor:
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


class ProcessPoolBackend:
    """Shards over a local ``ProcessPoolExecutor``.

    Failure containment: a shard whose worker crashes
    (``BrokenProcessPool``) re-runs in-process and is marked degraded;
    once the pool breaks, every remaining shard degrades without
    waiting on dead futures; and if no pool can be created at all the
    whole campaign runs serially (``mode`` reports ``"serial"`` and
    every shard counts degraded).
    ``runner`` must be module-level (picklable) for pool dispatch.
    """

    def __init__(
        self,
        workers: int = 2,
        pool_factory: Callable[[int], ProcessPoolExecutor] = _default_pool_factory,
    ) -> None:
        self.workers = max(2, workers)
        self.pool_factory = pool_factory
        self.mode = "parallel"

    def execute(
        self,
        shards: Sequence[Shard],
        *,
        retries: int = 1,
        runner: Runner = execute_run,
        log: Optional[LogFn] = None,
    ) -> Iterator[ShardOutcome]:
        from concurrent.futures.process import BrokenProcessPool

        emit = log or (lambda message: None)
        pool = None
        try:
            pool = self.pool_factory(self.workers)
        except Exception as exc:  # no pool available: degrade to serial
            emit(f"process pool unavailable ({exc!r}); running serially")
            self.mode = "serial"
            self.workers = 1
            for shard in shards:
                yield ShardOutcome(
                    shard=shard,
                    results=_run_shard(shard.specs, retries, runner),
                    degraded=True,
                )
            return

        self.mode = "parallel"
        pool_broken = False
        try:
            futures = [
                pool.submit(_run_shard, shard.specs, retries, runner)
                for shard in shards
            ]
            for shard, future in zip(shards, futures):
                try:
                    if pool_broken:
                        raise BrokenProcessPool("pool already broken")
                    results = future.result()
                    degraded = False
                except (BrokenProcessPool, OSError) as exc:
                    pool_broken = True
                    emit(
                        f"shard {shard.index} lost its worker ({exc!r}); "
                        "re-running in-process"
                    )
                    results = _run_shard(shard.specs, retries, runner)
                    degraded = True
                yield ShardOutcome(
                    shard=shard, results=results, degraded=degraded
                )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# Backend resolution
# ---------------------------------------------------------------------------


def resolve_backend(
    name: str,
    pool_factory: Callable[[int], ProcessPoolExecutor] = _default_pool_factory,
) -> ExecutorBackend:
    """Parse a backend spec string into a backend instance.

    * ``"serial"`` -- :class:`SerialBackend`
    * ``"process"`` / ``"process:N"`` -- :class:`ProcessPoolBackend`
      with N workers (default: CPU count); N must be a positive integer
    """
    kind, _, arg = name.partition(":")
    if kind == "serial":
        if arg:
            raise ConfigurationError("serial backend takes no argument")
        return SerialBackend()
    if kind == "process":
        if not arg:
            workers = os.cpu_count() or 2
        elif arg.isdecimal() and int(arg) > 0:
            workers = int(arg)
        else:
            raise ConfigurationError(
                f"process backend needs a positive worker count "
                f"(process:N), got {name!r}"
            )
        return ProcessPoolBackend(workers=workers, pool_factory=pool_factory)
    raise ConfigurationError(
        f"unknown backend {name!r}; known: serial, process[:N]"
    )
