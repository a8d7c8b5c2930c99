"""Summary statistics shared by the workloads and the traced run."""

from __future__ import annotations

import hashlib
import heapq
import math
import statistics
import sys
import time
from typing import Iterable, List, Optional, Sequence

#: Candidate tail percentiles, highest first: p99 when the run is large
#: enough, a lower one named after itself otherwise.
TAIL_PERCENTILES = (99.0, 95.0, 90.0)
#: A tail percentile is reported only if at least this many samples lie
#: beyond it.
MIN_BEYOND = 10
#: Host seconds :func:`reference_work` takes on an idle 2-vCPU x86 VM
#: under CPython 3.11. Normalised host times read as if every interval
#: had run at this speed.
REFERENCE_S = 0.015


def rank(p: float, n: int) -> int:
    """1-based nearest-rank index of percentile *p* among *n* samples."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile *p* of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` of *n* samples strictly beyond its nearest-rank
    sample, or ``None`` if even the lowest has fewer."""
    for p in TAIL_PERCENTILES:
        if n - rank(p, n) >= MIN_BEYOND:
            return p
    return None


def tail_label(p: float) -> str:
    """Metric-name form of a percentile: 99.0 -> ``p99``, 99.9 -> ``p99.9``."""
    return f"p{p:g}"


def count_failed(statuses: Iterable[str]) -> int:
    """Operations whose terminal status is anything but ``ok``; a
    ``timeout`` (no terminal status within the wait) is a failure."""
    return sum(1 for status in statuses if status != "ok")


def slowdowns(reference_s: Sequence[float]) -> List[float]:
    """How much slower than nominal the machine ran in each interval."""
    return [seconds / REFERENCE_S for seconds in reference_s]


def median_rate(counts: Sequence[float], seconds: Sequence[float],
                slowdown: Optional[Sequence[float]] = None) -> float:
    """Median over chunks of ``count / seconds``, each rate scaled up by
    its chunk's *slowdown* when given: one burst of host noise moves one
    chunk, not the reported rate, and a slow machine reads like a
    nominal one."""
    if slowdown is None:
        slowdown = [1.0] * len(seconds)
    rates: List[float] = [c / s * f for c, s, f
                          in zip(counts, seconds, slowdown) if s > 0]
    if not rates:
        raise ValueError("no timed chunk")
    return statistics.median(rates)


def reference_work() -> int:
    """A fixed slice of interpreter work shaped like the simulation's:
    tuple allocation, dict updates, heap traffic and small hashes. It
    never changes, so its host time measures the machine, not the code."""
    heap: List[tuple] = []
    table: dict = {}
    for i in range(10000):
        key = f"n{i % 251:04d}"
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (i * 7919 % 1009, i, key))
    while heap:
        heapq.heappop(heap)
    digest = b"perfbench"
    for _ in range(1200):
        digest = hashlib.sha256(digest).digest()
    return len(table) + digest[0]


def serve() -> None:
    """The probe process of :class:`workloads.HostClock`: for every line
    read, time :func:`reference_work` once and print its seconds."""
    for _ in sys.stdin:
        begin = time.perf_counter()
        reference_work()
        print(time.perf_counter() - begin, flush=True)


if __name__ == "__main__":
    serve()
