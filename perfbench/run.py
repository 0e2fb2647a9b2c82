#!/usr/bin/env python3
"""The repository's benchmark: serving throughput and CHT extraction.

Run from the repository root::

    python3 perfbench/run.py --workload strong-paxos --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (``ops_per_s``, ``setup_s``,
``peak_rss_mib``): the workload's fixed batch is rebuilt and rerun at the
same seed until ``--seconds`` have been measured, and every rerun must
reproduce the first one's exact counts. ``--trace 1`` runs the batch once
untraced and once under ``cProfile`` and reports the per-layer metrics; the
traced run must reproduce the untraced run's exact counts.

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the machine and the execution path. See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from pacing import measure

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Fresh processes that import repro and build the batch, each timing itself;
#: setup_s is their median.
SETUP_REPS = 5
SETUP_TIMEOUT_S = 120


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Paced set-up times of fresh processes that import repro and build
    the batch."""
    times = []
    for __ in range(SETUP_REPS):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            check=True,
            timeout=SETUP_TIMEOUT_S,
            capture_output=True,
            text=True,
        )
        times.append(float(child.stdout))
    return times


def end_to_end(name: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """Rerun the batch until ``seconds`` paced seconds are measured;
    end-to-end metrics."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    runs = []
    while not runs or sum(batch.paced_s for batch in runs) < seconds:
        runs.append(workload.run(workload.build(seed, scale)))
    first = runs[0]
    problems = [p for batch in runs for p in batch.problems]
    if any(batch.counts != first.counts for batch in runs):
        problems.append("a rerun at the same seed changed the exact counts")
    wall = sum(batch.wall_s for batch in runs)
    paced = sum(batch.paced_s for batch in runs)
    return {
        "attempted": sum(batch.attempted for batch in runs),
        "failed": sum(batch.failed for batch in runs),
        "problems": problems,
        "ops_per_s": sum(batch.ops for batch in runs) / paced,
        "raw_ops_per_s": sum(batch.ops for batch in runs) / wall,
        "batch_wall_s": [batch.wall_s for batch in runs],
        "batch_paced_s": [batch.paced_s for batch in runs],
        "counts": first.counts,
        "paths": first.paths,
    }


def per_layer(name: str, seed: int, scale: float = 1.0) -> dict:
    """One untraced and one profiled run of the batch; per-layer metrics."""
    from layers import call_count, fold
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    plain = workload.run(workload.build(seed, scale), sampling=False)
    built = workload.build(seed, scale)
    profile = cProfile.Profile()
    profile.enable()
    traced = workload.run(built, sampling=False)
    profile.disable()
    stats = pstats.Stats(profile).stats

    problems = plain.problems + traced.problems
    if traced.counts != plain.counts:
        problems.append(
            f"tracing changed the run: {traced.counts} != {plain.counts}"
        )
    counts = plain.counts
    ops = max(plain.attempted, 1)
    metrics: dict[str, tuple[float, str]] = {}
    for layer, row in fold(stats).items():
        metrics[f"{layer}.self_s"] = (row["self_s"], "s")
        metrics[f"{layer}.share"] = (row["share"], "ratio")
        metrics[f"{layer}.calls_in"] = (row["calls_in"], "count")
    metrics.update(
        {
            "sim.steps": (counts["steps"], "count"),
            "sim.msgs_per_op": (counts["messages"] / ops, "msgs/op"),
            "workload.retries_per_op": (counts["retries"] / ops, "retries/op"),
            "workload.lat_p50_ticks": (counts["lat_p50_ticks"], "ticks"),
            "workload.lat_p99_ticks": (counts["lat_p99_ticks"], "ticks"),
            "cht.extractions": (counts["extractions"], "count"),
            "snapshot.calls": (
                call_count(stats, "copy", "deepcopy", primitive=True), "count"
            ),
            "rng.draws": (
                call_count(stats, "repro.sim.types", "stable_hash"), "count"
            ),
            "trace.overhead": (traced.wall_s / plain.wall_s, "x"),
        }
    )
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "problems": problems,
        "metrics": metrics,
        "counts": counts,
        "paths": plain.paths,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        with measure() as unit:
            from workloads import WORKLOADS

            WORKLOADS[args.workload].build(args.seed)
        print(unit.paced_s)
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {list(WORKLOADS)}")
    if args.trace:
        result = per_layer(args.workload, args.seed)
        metrics = result["metrics"]
    else:
        setups = setup_seconds(args.workload, args.seed)
        result = end_to_end(args.workload, args.seed, args.seconds)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "ops_per_s": (result["ops_per_s"], "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }
        result["setup_s_each"] = setups
    correct = not result["problems"] and result["failed"] == 0
    info = {
        key: value for key, value in result.items() if key != "metrics"
    }
    print(json.dumps({"machine": machine(), "workload": args.workload, **info}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
