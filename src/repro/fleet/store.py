"""Incremental run-result store: reuse artifacts instead of re-simulating.

Fleet runs are deterministic twice over: a :class:`~repro.fleet.campaign.RunSpec`'s
``run_id`` is a content hash of every parameter that can influence the
simulation, and ``runs.jsonl`` holds only the deterministic projection
of each result.  Re-executing an unchanged spec with unchanged code
therefore reproduces the exact line already on disk -- pure wall-clock
waste at campaign scale.  ``repro fleet run --incremental`` short-cuts
that: a prior artifact directory acts as a cache, and a planned run is
*skipped* when

* a result with the same ``run_id`` exists in ``runs.jsonl``,
* that result is ``ok`` (failures and timeouts are always retried), and
* the manifest's ``code_fingerprint`` matches the current source tree
  (:func:`source_fingerprint`), so any edit under ``repro/`` -- timing
  model, mechanism logic, serialization -- busts the whole cache.

Reused results are marked ``cache_hit=True``, which is *volatile*
telemetry (excluded from ``runs.jsonl``): an incremental pass over an
unchanged campaign rewrites byte-identical canonical artifacts.

This is the deliberately conservative cousin of ``--resume``: resume
trusts any prior artifacts for the same run ids; incremental also
demands the code that wrote them is the code that would re-run them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.fleet.campaign import RunSpec
from repro.fleet.results import (
    artifact_paths,
    read_manifest,
    read_results_jsonl,
)
from repro.fleet.telemetry import RunResult


def source_fingerprint(root: Optional[Any] = None) -> str:
    """SHA-256 over the ``repro`` package sources (paths + contents).

    Deterministic across machines: files are visited in sorted
    relative-path order and separated by NUL bytes so neither
    concatenation ambiguity nor directory enumeration order can alias
    two different trees.  ``root`` overrides the tree for tests.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    else:
        root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


class RunResultStore:
    """Read-side of an artifact directory, indexed by ``run_id``.

    Loads ``runs.jsonl`` and the manifest (if present) once at
    construction; :meth:`cached` then partitions a plan into reusable
    results and specs that still need to execute.
    """

    def __init__(self, out_dir: Any, campaign_name: str) -> None:
        self.paths = artifact_paths(out_dir, campaign_name)
        self.results: Dict[str, RunResult] = {}
        self.code_fingerprint: str = ""
        if self.paths.runs.exists():
            for result in read_results_jsonl(self.paths.runs):
                self.results[result.run_id] = result
        if self.paths.manifest.exists():
            manifest = read_manifest(self.paths.manifest)
            self.code_fingerprint = manifest.code_fingerprint

    def __len__(self) -> int:
        return len(self.results)

    def cached(
        self, specs: Sequence[RunSpec], fingerprint: str
    ) -> Tuple[List[RunResult], List[RunSpec]]:
        """Partition ``specs`` into ``(hits, pending)``.

        ``hits`` are prior *ok* results for specs in the plan, each
        marked ``cache_hit=True``; ``pending`` is everything that must
        run.  An empty store, a manifest written by different code, or
        a manifest predating fingerprints (``""``) yields zero hits.
        """
        if (
            not self.results
            or not fingerprint
            or self.code_fingerprint != fingerprint
        ):
            return [], list(specs)
        hits: List[RunResult] = []
        pending: List[RunSpec] = []
        for spec in specs:
            result = self.results.get(spec.run_id)
            if result is not None and result.ok:
                result.cache_hit = True
                hits.append(result)
            else:
                pending.append(spec)
        return hits, pending


# ---------------------------------------------------------------------------
# Shard checkpoints: the resume substrate of the streaming pipeline
# ---------------------------------------------------------------------------

#: checkpoint metadata format version
CHECKPOINT_VERSION = 1


def plan_hash(specs: Sequence[RunSpec]) -> str:
    """Content hash of an *ordered* plan.

    Covers every ``run_id`` in plan order, so any change to the
    campaign -- an edited axis, a different seed list, reordered
    cohorts -- invalidates prior shard checkpoints wholesale.
    """
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(spec.run_id.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


class ShardCheckpointStore:
    """Per-shard result checkpoints under ``<out>/<campaign>/shards/``.

    The streaming pipeline checkpoints every completed shard as a
    run_id-sorted JSONL file (written atomically: tmp + rename, so a
    kill mid-write never leaves a half shard).  A later ``--resume``
    reloads the checkpoint set instead of re-executing, provided the
    ``checkpoint.json`` metadata still matches: same campaign, same
    ordered plan, same shard size, and -- because checkpoints are
    keyed by :func:`source_fingerprint` -- the same source tree.
    After a successful finalize the directory is deleted; its absence
    plus a final ``runs.jsonl`` is what "campaign complete" looks like
    on disk.
    """

    def __init__(
        self,
        out_dir: Any,
        campaign_name: str,
        spec_hash: str,
        specs: Sequence[RunSpec],
        shard_size: int,
        code_fingerprint: str,
    ) -> None:
        self.root = Path(out_dir) / campaign_name / "shards"
        self.meta = {
            "version": CHECKPOINT_VERSION,
            "campaign": campaign_name,
            "spec_hash": spec_hash,
            "plan_hash": plan_hash(specs),
            "shard_size": int(shard_size),
            "code_fingerprint": code_fingerprint,
        }
        self.meta_path = self.root / "checkpoint.json"

    # -- write side -----------------------------------------------------

    def open(self) -> None:
        """Create the checkpoint directory and stamp its metadata.

        Stale checkpoints (metadata mismatch) are discarded here, so a
        changed plan or source tree can never resurrect old shards.
        """
        if self.root.exists() and not self._meta_matches():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        if not self.meta_path.exists():
            tmp = self.meta_path.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(self.meta, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, self.meta_path)

    def shard_path(self, index: int) -> Path:
        return self.root / f"shard-{index:06d}.jsonl"

    def write_shard(
        self, index: int, results: Sequence[RunResult]
    ) -> Path:
        """Checkpoint one completed shard, sorted by ``run_id``.

        Atomic: a kill lands either before the rename (shard re-runs
        on resume) or after (shard restored verbatim) -- never on a
        torn file.  Only the deterministic projection is stored; that
        is exactly what the canonical artifacts need, and it makes a
        resumed campaign's artifacts byte-identical by construction.
        """
        ordered = sorted(results, key=lambda r: r.run_id)
        path = self.shard_path(index)
        tmp = path.with_suffix(".jsonl.tmp")
        lines = [result.to_json_line() for result in ordered]
        body = "\n".join(lines) + "\n" if lines else ""
        tmp.write_text(body, encoding="utf-8")
        os.replace(tmp, path)
        return path

    # -- read side ------------------------------------------------------

    def _meta_matches(self) -> bool:
        if not self.meta_path.exists():
            return False
        try:
            on_disk = json.loads(self.meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False
        return on_disk == self.meta

    def completed_shards(self) -> Dict[int, Path]:
        """Index -> checkpoint path for every valid completed shard;
        empty when the metadata does not match the current plan."""
        if not self._meta_matches():
            return {}
        completed: Dict[int, Path] = {}
        for path in sorted(self.root.glob("shard-*.jsonl")):
            stem = path.stem  # shard-000123
            try:
                index = int(stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            completed[index] = path
        return completed

    def read_shard(self, index: int) -> Iterator[RunResult]:
        """Stream one checkpointed shard's results (run_id-sorted)."""
        with open(self.shard_path(index), "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield RunResult.from_json_line(line)

    def discard(self) -> None:
        """Remove the checkpoint directory (after a finalize, or when
        the caller decides the checkpoints are unusable)."""
        if self.root.exists():
            shutil.rmtree(self.root)
