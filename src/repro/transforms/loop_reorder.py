"""Map-parameter (loop-order) permutation.

Map scopes are semantically order-free (every iteration is independent),
but the *simulated playback order* — and on real hardware the executed
loop-nest order — follows the parameter order.  Reordering parameters so
the innermost one walks the contiguous dimension is the hdiff case study's
second optimization (Fig. 8b).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import TransformError
from repro.sdfg.nodes import MapEntry
from repro.transforms.report import TransformReport

__all__ = ["reorder_map"]


def reorder_map(
    entry: MapEntry, order: Sequence[int] | Sequence[str]
) -> TransformReport:
    """Permute the parameter order of a map scope, in place.

    *order* is either a permutation of indices (``[2, 0, 1]``) or the
    parameter names in their new order (``["k", "i", "j"]``).  The map
    object is shared by the entry and exit, so both see the change; no
    memlet is touched (accesses are unchanged, only their sequence).
    Returns a report of the modified scope.
    """
    map_obj = entry.map
    if order and isinstance(order[0], str):
        try:
            indices = [map_obj.params.index(p) for p in order]  # type: ignore[arg-type]
        except ValueError as exc:
            raise TransformError(f"unknown parameter in {order!r}: {exc}") from exc
    else:
        indices = [int(i) for i in order]  # type: ignore[arg-type]
    if sorted(indices) != list(range(len(map_obj.params))):
        raise TransformError(
            f"invalid parameter order {order!r} for map {map_obj.label!r}"
        )
    map_obj.params = [map_obj.params[i] for i in indices]
    map_obj.ranges = [map_obj.ranges[i] for i in indices]
    return TransformReport(
        "reorder_map",
        detail=f"map {map_obj.label!r} -> params {list(map_obj.params)}",
    )
