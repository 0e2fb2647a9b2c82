"""Wall times corrected for the speed the machine had while they were taken.

The machine this benchmark was tuned on is a shared VM whose speed drifts
by up to ±20% within seconds, so raw wall times of the same work spread too
widely to compare two commits. While a unit of work is timed, a fixed
reference loop that uses no repository code is run every
``SAMPLE_PERIOD_S`` from a ``SIGALRM`` handler, and once before and once
after the unit. The unit's wall time, less the time spent in the handler,
is scaled by ``REF_NOMINAL_S`` over the mean reference time. The result is
in seconds at the speed at which the reference loop takes ``REF_NOMINAL_S``,
about its median time on the machine the baseline was measured on. A change
to the repository cannot move the reference, so the correction can neither
hide a regression nor fake a gain.

The loop does the kind of work the simulator does: it allocates and hashes
frozen-dataclass keys, updates a dict and pushes and pops a small heap. Its
memory stays bounded, so it never sets the peak RSS.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

REF_ROUNDS = 8_000
REF_NOMINAL_S = 0.02
SAMPLE_PERIOD_S = 0.25


@dataclass(frozen=True)
class _Key:
    slot: int
    tag: tuple


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    counts: dict[_Key, int] = {}
    heap: list[int] = []
    for i in range(REF_ROUNDS):
        key = _Key(i % 509, (i % 7, "k"))
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (i * 7919) % 10007)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


@dataclass
class Unit:
    """The times of one measured unit of work."""

    wall_s: float = 0.0
    paced_s: float = 0.0
    samples: int = 0


@contextmanager
def measure(*, sampling: bool = True) -> Iterator[Unit]:
    """Time the ``with`` body; ``paced_s`` is its speed-corrected time.

    ``sampling=False`` leaves the body alone and sets ``paced_s`` to the
    wall time, for runs under a profiler.
    """
    unit = Unit()
    samples: list[float] = []
    in_handler = 0.0

    def sample(signum, frame) -> None:
        nonlocal in_handler
        began = time.perf_counter()
        samples.append(reference_s())
        in_handler += time.perf_counter() - began

    if sampling:
        samples.append(reference_s())
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    began = time.perf_counter()
    try:
        yield unit
    finally:
        if sampling:
            # Stop the timer before reading the clock: a sample that ran after
            # the reading would be subtracted from time it was not part of.
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        unit.wall_s = time.perf_counter() - began - in_handler
        unit.paced_s = unit.wall_s
        if sampling:
            samples.append(reference_s())
            unit.samples = len(samples)
            unit.paced_s *= REF_NOMINAL_S / statistics.fmean(samples)
