#!/usr/bin/env python3
"""Tuning sweep: scan-vs-heap cutover for the fused loop's idle query.

When the fused round-robin loop hits an idle (or crash-gated) tick it must
find the next actionable tick. Two interchangeable answers exist — a direct
O(n) scan over the per-process cursor indexes (``next_timeout`` /
``_local_event`` / ``_next_at``) and the lazy-heap ``_next_event_query`` —
and both compute the identical target, so the choice is perf-only. The
engine picks the scan at ``n <= SCAN_EVENT_CUTOVER``.

This sweep measures that constant instead of guessing it: for each n in the
sweep it runs the same staggered-timeout, idle-heavy scenario twice, once
with the scan forced (``sim._scan_cutover = huge``) and once with the heap
forced (``= 0``), interleaved best-of-``TRIALS`` timing, and reports the
per-n throughput ratio plus the largest n where the scan still wins. The
timeout intervals scale with n (``2n + stagger``) so the idle-query density
stays roughly constant across the sweep while the scan cost grows O(n) —
the regime the ROADMAP's "hundreds of processes may prefer scanning" note
is about. Each pair is also digest-checked: forcing either path must not
change the trajectory.

Not a gated floor — a noisy crossover must not flake CI — but emitted as a
CI artifact (``bench_scan_cutover.json``) so the committed
``SCAN_EVENT_CUTOVER`` in ``src/repro/sim/kernel.py`` can be audited
against fresh measurements per runner. When the compiled loop is built the
sweep covers it too (its scan is C, so it wins far longer than the Python
loop's).

Usage::

    PYTHONPATH=src python benchmarks/bench_scan_cutover.py [--ticks N]
                                                           [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.sim import (
    HAS_COMPILED,
    SCAN_EVENT_CUTOVER,
    FixedDelay,
    Process,
    Simulation,
    run_digest,
)

SWEEP_N = (4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256)
TICKS = 40_000
#: interleaved timing trials per (n, path); best-of, as in bench_dataplane.
TRIALS = 3
FORCE_SCAN = 10**9
FORCE_HEAP = 0


class Ring(Process):
    """One message to the next peer per timeout: sparse, staggered traffic."""

    def on_timeout(self, ctx):
        ctx.send((ctx.pid + 1) % ctx.n, ("ping", ctx.time))

    def on_message(self, ctx, sender, payload):
        pass


def build(n: int, kernel: str, cutover: int) -> Simulation:
    # Distinct per-pid intervals near 2n keep the mean gap between system
    # events ~2 ticks at every n: the idle query fires at a steady rate
    # while its scan cost grows linearly with n.
    intervals = [2 * n + (7 * p) % n for p in range(n)]
    sim = Simulation(
        [Ring() for _ in range(n)],
        delay_model=FixedDelay(2),
        timeout_interval=intervals,
        seed=3,
        record="metrics",
        kernel=kernel,
    )
    sim._scan_cutover = cutover
    return sim


def timed(n: int, kernel: str, cutover: int, ticks: int):
    sim = build(n, kernel, cutover)
    start = time.perf_counter()
    sim.run_until(ticks)
    return sim, time.perf_counter() - start


def sweep_kernel(kernel: str, ticks: int) -> dict:
    rows = []
    for n in SWEEP_N:
        best = {FORCE_SCAN: float("inf"), FORCE_HEAP: float("inf")}
        digests = {}
        for _ in range(TRIALS):
            for cutover in (FORCE_SCAN, FORCE_HEAP):
                sim, elapsed = timed(n, kernel, cutover, ticks)
                best[cutover] = min(best[cutover], elapsed)
                digests[cutover] = run_digest(sim)
        if digests[FORCE_SCAN] != digests[FORCE_HEAP]:
            raise SystemExit(
                f"FAIL: scan/heap trajectories diverged at n={n} on the "
                f"{kernel} kernel — the cutover must be perf-only"
            )
        scan_tps = ticks / best[FORCE_SCAN]
        heap_tps = ticks / best[FORCE_HEAP]
        rows.append(
            {
                "n": n,
                "scan_tps": round(scan_tps),
                "heap_tps": round(heap_tps),
                "ratio": round(scan_tps / heap_tps, 3),
            }
        )
    wins = [row["n"] for row in rows if row["ratio"] >= 1.0]
    return {
        "rows": rows,
        "largest_scan_win": max(wins) if wins else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ticks", type=int, default=TICKS)
    parser.add_argument("--out", default=None, help="write results as JSON")
    args = parser.parse_args()

    kernels = ["packed"]
    if HAS_COMPILED:
        kernels.append("compiled-loop")
    results = {
        "ticks": args.ticks,
        "committed_cutover": SCAN_EVENT_CUTOVER,
        "kernels": {},
    }
    for kernel in kernels:
        results["kernels"][kernel] = sweep_kernel(kernel, args.ticks)

    for kernel in kernels:
        data = results["kernels"][kernel]
        print(f"{kernel}: scan-vs-heap throughput on the idle-heavy sweep")
        print("      n |   scan tps |   heap tps | scan/heap")
        for row in data["rows"]:
            print(
                f"  {row['n']:5d} | {row['scan_tps']:10,d} | "
                f"{row['heap_tps']:10,d} | {row['ratio']:9.3f}"
            )
        print(
            f"  largest n where the scan wins: {data['largest_scan_win']} "
            f"(committed cutover: {SCAN_EVENT_CUTOVER})"
        )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
