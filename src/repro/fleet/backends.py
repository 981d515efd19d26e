"""Executor backends: where shards actually run.

The *execute* stage of the campaign pipeline is a small protocol --
:class:`ExecutorBackend` -- so the same plan/shard/stream/reduce
machinery drives an in-process loop, a local process pool, or a fleet
of remote workers without caring which:

* :class:`SerialBackend` -- in-process, the debugging/test baseline;
* :class:`ProcessPoolBackend` -- shards over a ``ProcessPoolExecutor``,
  with per-shard degradation to in-process execution when a worker
  crashes and wholesale degradation to serial when no pool exists;
* :class:`SpoolBackend` -- a file-based remote-worker protocol: shards
  are spooled as claimable job files, any number of ``repro fleet
  worker`` processes (possibly on other machines sharing the
  directory) claim and execute them, and result files stream back.

Backends *yield* one :class:`ShardOutcome` at a time, as soon as it
completes, so the downstream streaming reducer never needs the whole
campaign in RAM.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
)

from repro.errors import ConfigurationError
from repro.fleet.campaign import RunSpec
from repro.fleet.clock import monotonic_time
from repro.fleet.executor import Runner, _run_shard, execute_run
from repro.fleet.telemetry import RunResult

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
# File-based remote-worker spool
# ---------------------------------------------------------------------------

#: spool sub-directories; a shared filesystem is the only transport
#: requirement, so "remote" can mean another process, container, or a
#: host mounting the same volume
SPOOL_DIRS = ("inbox", "claimed", "outbox")


def _atomic_write(path: Path, body: str) -> None:
    """Write-then-rename so claimers never observe a partial file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(body, encoding="utf-8")
    os.replace(tmp, path)


@dataclass
class SpoolJob:
    """One spooled shard: the wire form of a dispatch."""

    shard_index: int
    retries: int
    specs: List[Dict[str, Any]]

    def to_json(self) -> str:
        return json.dumps(
            {
                "shard_index": self.shard_index,
                "retries": self.retries,
                "specs": self.specs,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, body: str) -> "SpoolJob":
        data = json.loads(body)
        return cls(
            shard_index=int(data["shard_index"]),
            retries=int(data.get("retries", 1)),
            specs=list(data["specs"]),
        )


class SpoolWorker:
    """Claims and executes spooled shards: the remote half of
    :class:`SpoolBackend`.

    Claiming is an atomic rename from ``inbox/`` to ``claimed/`` --
    the filesystem arbitrates between competing workers, no locks.
    Results are written to ``outbox/`` via write-then-rename, one
    JSON result object per line (the *non*-deterministic projection:
    volatile fields like attempts survive the wire).
    """

    def __init__(self, root: Any, runner: Runner = execute_run) -> None:
        self.root = Path(root)
        self.runner = runner
        for name in SPOOL_DIRS:
            (self.root / name).mkdir(parents=True, exist_ok=True)

    def claim_one(self) -> Optional[Path]:
        for job_path in sorted((self.root / "inbox").glob("shard-*.json")):
            claimed = self.root / "claimed" / job_path.name
            try:
                os.replace(job_path, claimed)
            except OSError:
                continue  # another worker won the rename
            return claimed
        return None

    def process_one(self) -> bool:
        """Claim and execute one shard; returns False when idle."""
        claimed = self.claim_one()
        if claimed is None:
            return False
        job = SpoolJob.from_json(claimed.read_text(encoding="utf-8"))
        results = [
            # late import keeps the worker's import surface identical
            # to the in-process path
            _spool_run_one(spec_data, job.retries, self.runner)
            for spec_data in job.specs
        ]
        body = "".join(
            json.dumps(result.to_dict(), sort_keys=True) + "\n"
            for result in results
        )
        _atomic_write(
            self.root / "outbox" / f"shard-{job.shard_index:06d}.jsonl",
            body,
        )
        claimed.unlink(missing_ok=True)
        return True

    def run(
        self,
        once: bool = False,
        poll_interval: float = 0.05,
        idle_timeout: float = 0.0,
        log: Optional[LogFn] = None,
    ) -> int:
        """Worker loop; returns the number of shards processed.

        ``once`` drains the current inbox and exits.  ``idle_timeout``
        (seconds, 0 = forever) bounds how long a looping worker waits
        for new jobs before exiting.
        """
        emit = log or (lambda message: None)
        processed = 0
        idle_since = monotonic_time()
        while True:
            if self.process_one():
                processed += 1
                idle_since = monotonic_time()
                continue
            if once:
                return processed
            if idle_timeout > 0 and monotonic_time() - idle_since >= idle_timeout:
                emit(f"spool worker idle for {idle_timeout:g}s; exiting")
                return processed
            time.sleep(poll_interval)


def _spool_run_one(
    spec_data: Dict[str, Any], retries: int, runner: Runner
) -> RunResult:
    from repro.fleet.executor import run_one

    return run_one(RunSpec.from_dict(spec_data), retries=retries,
                   runner=runner)


class SpoolBackend:
    """Dispatch shards through a shared-directory spool.

    The "remote worker" stub of the backend protocol: shards are
    written as claimable job files and outcomes stream back as result
    files appear, in shard order.  With ``self_serve=True`` (the
    default, and what keeps tests and single-host runs hermetic) the
    backend runs an embedded :class:`SpoolWorker` whenever it is
    waiting, so a campaign completes even with no external workers
    attached -- real deployments point ``repro fleet worker --spool``
    processes at the same directory and the backend's embedded worker
    simply never wins a claim.
    """

    def __init__(
        self,
        root: Any,
        self_serve: bool = True,
        poll_interval: float = 0.05,
        timeout: float = 600.0,
    ) -> None:
        self.root = Path(root)
        self.self_serve = self_serve
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.mode = "spool"
        self.workers = 0  # unknown: workers are external by design

    def execute(
        self,
        shards: Sequence[Shard],
        *,
        retries: int = 1,
        runner: Runner = execute_run,
        log: Optional[LogFn] = None,
    ) -> Iterator[ShardOutcome]:
        emit = log or (lambda message: None)
        worker = SpoolWorker(self.root, runner=runner)  # also mkdirs
        for shard in shards:
            job = SpoolJob(
                shard_index=shard.index,
                retries=retries,
                specs=[spec.to_dict() for spec in shard.specs],
            )
            _atomic_write(
                self.root / "inbox" / f"shard-{shard.index:06d}.json",
                job.to_json(),
            )
        emit(
            f"spooled {len(shards)} shard(s) to {self.root / 'inbox'}"
        )
        for shard in shards:
            out_path = self.root / "outbox" / f"shard-{shard.index:06d}.jsonl"
            deadline = monotonic_time() + self.timeout
            while not out_path.exists():
                busy = self.self_serve and worker.process_one()
                if not busy:
                    if monotonic_time() >= deadline:
                        raise TimeoutError(
                            f"no worker produced {out_path.name} within "
                            f"{self.timeout:g}s"
                        )
                    time.sleep(self.poll_interval)
            results = [
                RunResult.from_dict(json.loads(line))
                for line in out_path.read_text(encoding="utf-8").splitlines()
                if line.strip()
            ]
            yield ShardOutcome(shard=shard, results=results)


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
      with N workers (default: CPU count)
    * ``"spool:DIR"`` -- :class:`SpoolBackend` rooted at DIR
    """
    kind, _, arg = name.partition(":")
    if kind == "serial":
        if arg:
            raise ConfigurationError("serial backend takes no argument")
        return SerialBackend()
    if kind == "process":
        workers = int(arg) if arg else (os.cpu_count() or 2)
        return ProcessPoolBackend(workers=workers, pool_factory=pool_factory)
    if kind == "spool":
        if not arg:
            raise ConfigurationError(
                "spool backend needs a directory: spool:DIR"
            )
        return SpoolBackend(arg)
    raise ConfigurationError(
        f"unknown backend {name!r}; known: serial, process[:N], spool:DIR"
    )
