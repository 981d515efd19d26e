"""The repository benchmark: host time of the simulator, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-qoa --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, a table each
    python3 perfbench/run.py --workload smarm-mc --trace 1   # per-layer split

Every workload runs in fresh child processes (``child.py``), one at a
time: a few that only set up, for ``setup_s``, and one that measures.
With ``--trace 1`` a single child runs the traced pass instead.  The
last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed``/``attempted`` is the failure fraction: failed campaign
runs, rejected or unaccounted reports, and every op of a pass whose
output check failed.  See ``perfbench/README.md`` for the workloads,
metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH_ROOT = ROOT / ".perfbench_tmp"

WORKLOAD_NAMES = ("smarm-mc", "fleet-qoa", "fleet-locking", "serve-storm1k")

#: the seed to develop against (claims are confirmed on seed 7, which
#: is kept back; see README.md)
DEV_SEED = 1

#: set-up-only children per measured run; set-up is the median of
#: these plus the measuring child's own
SETUP_REPLICAS = 8

#: which quantile of a unit's repeated timings stands for the unit
UNIT_QUANTILE = 0.25

#: wall budget of one workload's children; a run must end within 180 s
WORKLOAD_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}

LAYER_UNITS = {
    "calls": "count", "bytes": "bytes", "events_fired": "count",
    "resumes": "count", "runs": "count", "blocks": "count",
    "reads": "count", "writes": "count", "reports": "count",
    "submitted": "count", "rejected": "count", "max_queue_depth": "count",
    "messages": "count", "us_per_event": "us", "us_per_report": "us",
    "hit_ratio": "ratio", "write_commit_ratio": "ratio",
    "queue_latency_p99_sim_s": "sim_s", "overhead_pct": "%",
}


class BenchError(Exception):
    """A child failed or the checkout cannot run the benchmark."""


def layer_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    return LAYER_UNITS.get(tail, "ms")


def quantile(values: List[float], q: float) -> float:
    """Linearly interpolated quantile over the whole population."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_child(workload: str, seed: int, seconds: float, mode: str,
              scratch: Path, deadline: float) -> Tuple[float, dict]:
    """Start one child, wait for it (killing it at the monotonic
    ``deadline``); return (spawn stamp, its JSON)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
        "--scratch", str(scratch),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(
            f"{workload} {mode} child ran past the "
            f"{WORKLOAD_BUDGET_S:.0f}s budget"
        ) from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} {mode} child exited {proc.returncode}:\n"
            f"{proc.stderr.strip()}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} child printed nothing")
    return spawned, json.loads(lines[-1])


def summarize_passes(passes: List[dict]) -> Tuple[int, int, List[str], str]:
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [text for p in passes for text in p["problems"]]
    digests = sorted({p["digest"] for p in passes})
    return attempted, failed, problems, ",".join(d[:16] for d in digests)


def end_to_end(workload: str, seed: int, seconds: float,
               scratch: Path, deadline: float) -> dict:
    setups: List[float] = []
    for mode in ["setup"] * SETUP_REPLICAS + ["measure"]:
        spawned, out = run_child(
            workload, seed, seconds, mode, scratch, deadline
        )
        setups.append((out["setup_end"] - spawned) * out["setup_factor"])

    passes = out["passes"]
    attempted, failed, problems, digest = summarize_passes(passes)
    if len({len(p["unit_ms"]) for p in passes}) != 1:
        raise BenchError(f"{workload}: passes timed different unit counts")
    # every pass repeats the same units.  Other machines' load slows a
    # repeat (and the calibration only partly corrects it), never speeds
    # it up, so a unit's time is the lower quartile of its repeats, and
    # the pass is the sum of those
    unit_ms = [quantile(times, UNIT_QUANTILE)
               for times in zip(*(p["unit_ms"] for p in passes))]
    other_ms = quantile([p["other_ms"] for p in passes], UNIT_QUANTILE)
    pass_ms = sum(unit_ms) + other_ms
    good_ops = statistics.median(p["ops"] - p["failed"] for p in passes)
    if passes[0]["units_are_ops"]:
        op_ms = unit_ms
    else:  # batched ops: every op costs the run phase's mean
        op_ms = [sum(unit_ms) / max(1, good_ops)]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": good_ops / (pass_ms / 1e3),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": quantile(op_ms, 0.90),
        "peak_rss_mib": out["peak_rss_mib"],
    }
    info = {
        "passes": len(passes),
        "timed units per pass": len(unit_ms),
        "setup samples": len(setups),
        "digest": digest,
    }
    return {
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "attempted": attempted, "failed": failed,
        "problems": problems, "info": info,
    }


def traced(workload: str, seed: int, seconds: float, scratch: Path,
           deadline: float) -> dict:
    _spawned, out = run_child(
        workload, seed, seconds, "trace", scratch, deadline
    )
    attempted, failed, problems, digest = summarize_passes(out["passes"])
    layers = dict(out["layers"])
    layers["setup.import_ms"] = out["import_ms"]
    layers["setup.build_ms"] = out["build_ms"]
    return {
        "metrics": {k: (v, layer_unit(k)) for k, v in layers.items()},
        "attempted": attempted, "failed": failed,
        "problems": problems, "info": {"digest": digest},
    }


def render(workload: str, result: dict, trace: bool) -> str:
    lines = [f"== {workload} ({'traced' if trace else 'end to end'})"]
    metrics = result["metrics"]
    wall = metrics.get("trace.wall_ms", (0.0, ""))[0]
    for name, (value, unit) in metrics.items():
        share = ""
        if trace and unit == "ms" and wall and name != "trace.wall_ms":
            share = f"  {100.0 * value / wall:5.1f}%"
        lines.append(f"  {name:<36} {value:>14.4f} {unit:<6}{share}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(
        f"  {'failed_frac':<36} {failed / max(1, attempted):>14.4f} "
        f"({failed}/{attempted})"
    )
    for key, value in result["info"].items():
        lines.append(f"  {key:<36} {value}")
    verdict = "ok" if not result["problems"] else "FAILED"
    lines.append(f"  output checks: {verdict}")
    lines.extend(f"    - {text}" for text in result["problems"])
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))
    results: Dict[str, dict] = {}
    try:
        for name in names:
            measure = traced if args.trace else end_to_end
            deadline = time.monotonic() + WORKLOAD_BUDGET_S
            results[name] = measure(
                name, args.seed, args.seconds, scratch, deadline
            )
            print(render(name, results[name], bool(args.trace)), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run still owns a scratch directory

    def metric_key(workload: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{workload}/{metric}"

    summary = {
        "correct": all(not r["problems"] and r["failed"] == 0
                       for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            metric_key(workload, metric): {"value": value, "unit": unit}
            for workload, result in results.items()
            for metric, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
