"""Pure helpers of the benchmark: percentiles, interval arithmetic,
self time.  No imports from ``repro``, so the unit
tests of the benchmark's own logic run without the program.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer make the estimate a guess at one or two outliers.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported(n: int, q: float) -> bool:
    """Whether *n* samples leave at least :data:`MIN_BEYOND` beyond *q*."""
    return n * (100.0 - q) / 100.0 >= MIN_BEYOND


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile, refusing a sample too small to support it."""
    if not supported(len(values), q):
        raise ValueError(
            f"{len(values)} samples leave fewer than {MIN_BEYOND} beyond p{q:g}"
        )
    return percentile(values, q)


def _merge(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Disjoint, sorted intervals covering the same points as *intervals*."""
    out: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    return sum(end - start for start, end in _merge(intervals))


def overlap(a: Iterable[tuple[float, float]], b: Iterable[tuple[float, float]]) -> float:
    """Length covered by both the union of *a* and the union of *b*."""
    a, b = _merge(a), _merge(b)
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        total += max(0.0, min(a[i][1], b[j][1]) - max(a[i][0], b[j][0]))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def coverage(
    operations: Sequence[tuple[float, float]], spans: Sequence[tuple[float, float]]
) -> float:
    """Share of the operations' wall time that some span covers."""
    total = union_length(operations)
    return overlap(operations, spans) / total if total > 0 else 0.0


def self_time(span: tuple[float, float], children: Sequence[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (span[1] - span[0]) - overlap([span], children)
