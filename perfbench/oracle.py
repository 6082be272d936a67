"""Reference answers the benchmark checks the program's outputs against.

The oracle is the one the differential test suites use: the element-wise
interpreter (``simulate_state(..., fast=False)``) and the O(N²)
textbook LRU stack distances (``stack_distances_bruteforce``).
"""

from __future__ import annotations

import random

from repro.apps import hdiff
from repro.simulation import MemoryModel, simulate_state
from repro.simulation.cache import CacheModel
from repro.simulation.movement import per_container_misses
from repro.simulation.stackdist import line_trace, stack_distances_bruteforce
from repro.tool import Session
from repro.transforms.protocol import Match, get_transform

#: The oracle's cost grows with the trace; points beyond this many
#: iterations (I*J*K) are not sampled, to keep a check under a second.
MAX_ORACLE_VOLUME = 16 * 12 * 6


def reference_view(params: dict, line_size: int, capacity: int) -> dict:
    """The local-view body fields the oracle determines, per container."""
    sdfg = hdiff.build_sdfg()
    result = simulate_state(sdfg, params, fast=False)
    memory = MemoryModel(sdfg, params, line_size=line_size)
    distances = stack_distances_bruteforce(line_trace(result.events, memory))
    misses = per_container_misses(
        result.events, memory, CacheModel(line_size=line_size, capacity_lines=capacity), distances
    )
    containers = {
        name: {
            "hits": c.hits,
            "cold": c.cold,
            "capacity": c.capacity,
            "conflict": c.conflict,
            "misses": c.misses,
            "moved_bytes": c.misses * line_size,
        }
        for name, c in misses.items()
    }
    return {"total_accesses": len(result.events), "containers": containers}


def compare_view(payload: dict, line_size: int, capacity: int) -> str | None:
    """None when a local-view body matches the oracle, else the difference."""
    expected = reference_view(payload["params"], line_size, capacity)
    if payload["total_accesses"] != expected["total_accesses"]:
        return f"{payload['params']}: accesses {payload['total_accesses']} != {expected['total_accesses']}"
    got = {k: v for k, v in payload["containers"].items() if v["hits"] or v["misses"]}
    if got != expected["containers"]:
        return f"{payload['params']}: per-container misses differ from the oracle"
    return None


def sample(points: list[dict], count: int, seed: int) -> list[dict]:
    """A seeded sample of the points small enough for the oracle."""
    small = [p for p in points if p["I"] * p["J"] * p["K"] <= MAX_ORACLE_VOLUME]
    small.sort(key=lambda p: sorted(p.items()))
    return random.Random(seed).sample(small, min(count, len(small)))


def _as_tuple(value):
    if isinstance(value, list):
        return tuple(_as_tuple(v) for v in value)
    return value


def rescore(sequence: list[dict], params: dict, line_size: int, capacity: int) -> int:
    """Moved bytes of a transform sequence, replayed on a fresh hdiff in
    a fresh session (no state shared with the search that found it)."""
    sdfg = hdiff.build_sdfg()
    for step in sequence:
        match = Match(step["transform"], _as_tuple(step["descriptor"]), step.get("detail", ""))
        get_transform(step["transform"], line_size).apply(sdfg, match)
    point = Session(sdfg).sweep([params], line_size=line_size, capacity_lines=capacity)[0]
    return point.total_moved_bytes
