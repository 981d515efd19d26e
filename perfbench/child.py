"""One workload in one fresh process; ``run.py`` starts this.

Modes:

* ``setup``   -- import and set up, report when set-up ended, exit;
* ``measure`` -- set up, then run untraced passes for ``--seconds``;
* ``trace``   -- set up, run two untraced passes (the second is the
  overhead baseline), then one pass under the per-layer tracer.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, PassResult, clock  # noqa: E402

#: a measure run plays at least this many passes, whatever --seconds is
MIN_PASSES = 3


def pass_record(result: PassResult, reference: str) -> dict:
    """A pass as JSON, its digest checked against the first pass."""
    problems = list(result.problems)
    failed = result.failed
    if result.digest != reference:
        problems.append(
            f"digest {result.digest[:12]} differs from the first pass "
            f"({reference[:12]})"
        )
        failed = result.ops
    return {
        "ops": result.ops,
        "unit_ms": result.unit_ms,
        "units_are_ops": result.units_are_ops,
        "other_ms": result.other_ms,
        "failed": failed,
        "digest": result.digest,
        "problems": problems,
    }


def set_up(args: argparse.Namespace):
    workload = WORKLOADS[args.workload](args.seed, Path(args.scratch))
    began = clock()
    for module in workload.modules:
        importlib.import_module(module)
    imported = clock()
    workload.setup()
    done = clock()
    setup_end = time.monotonic()
    factor = workload.speed.settled_factor()
    timing = {
        "setup_end": setup_end,
        "setup_factor": factor,
        "import_ms": (imported - began) * 1e3 * factor,
        "build_ms": (done - imported) * 1e3 * factor,
    }
    return workload, timing


def measure(workload, seconds: float) -> dict:
    passes = []
    reference = None
    start = clock()
    while True:
        result = workload.run_pass()
        reference = reference or result.digest
        passes.append(pass_record(result, reference))
        if len(passes) >= MIN_PASSES and clock() - start >= seconds:
            break
    return {
        "passes": passes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def trace(workload) -> dict:
    from repro.obs.core import Observability
    from repro.obs.metrics import MetricsRegistry
    from tracer import LAYERS, Tracer, instrument, layer_metrics

    speed = workload.speed
    warm = workload.run_pass()
    calibration = speed.sample()
    began = clock()
    base = workload.run_pass()
    base_wall = clock() - began
    base_wall *= speed.factor(calibration, speed.sample())

    tracer = Tracer()
    profiler = instrument(tracer)
    workload.obs_factory = lambda: Observability(
        metrics=MetricsRegistry(), profiler=profiler
    )
    try:
        calibration = speed.sample()
        tracer.enter("other")
        traced = workload.run_pass()
        traced_wall = tracer.exit()
        factor = speed.factor(calibration, speed.sample())
    finally:
        tracer.restore()
        workload.obs_factory = None

    metrics = layer_metrics(tracer, profiler, traced_wall)
    metrics.update(workload.service_stats())
    # one reference-speed factor for the whole traced pass keeps the
    # layer times summing to the traced wall time
    for name in metrics:
        if name.endswith("_ms") or ".us_per_" in name:
            metrics[name] *= factor
    metrics["trace.overhead_pct"] = (
        metrics["trace.wall_ms"] / (base_wall * 1e3) - 1.0
    ) * 100.0
    attributed = sum(tracer.layer_s.get(layer, 0.0) for layer in LAYERS)
    passes = [pass_record(r, warm.digest) for r in (warm, base, traced)]
    if abs(attributed - traced_wall) > 1e-6 * max(1.0, traced_wall):
        passes[-1]["problems"].append(
            f"layer self times sum to {attributed * 1e3:.3f} ms, "
            f"traced wall is {traced_wall * 1e3:.3f} ms"
        )
    return {"passes": passes, "layers": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    workload, timing = set_up(args)
    out = dict(timing)
    if args.mode == "measure":
        out.update(measure(workload, args.seconds))
    elif args.mode == "trace":
        out.update(trace(workload))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
