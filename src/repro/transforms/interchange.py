"""Move a sequential loop into the map it wraps (loop/map interchange).

In this IR a sequential loop over one parameter is modeled as a
single-parameter map scope whose playback order is outermost (the
frontend and the builder place it outside the parallel map it drives):

    MapEntry(loop: jk)
      MapEntry(blocks: jn)
        ... body ...
      MapExit(blocks)
    MapExit(loop)

:func:`move_loop_into_map` is the analog of dace's ``MoveLoopIntoMap``
transformation: the loop parameter moves *inside* the map, producing one
flat scope whose parameter order is ``map params, then loop param`` — the
loop now runs innermost per map iteration.  The access *set* is
unchanged (logical analyses are invariant); only the playback sequence —
and with it the physical locality — changes.  The flattened scope also
unlocks :func:`~repro.transforms.loop_reorder.reorder_map` over the
combined parameters, which is how the auto-tuner composes schedules.
"""

from __future__ import annotations

from repro.errors import TransformError
from repro.sdfg.nodes import Map, MapEntry, MapExit
from repro.sdfg.state import SDFGState
from repro.transforms.report import TransformReport

__all__ = ["find_loop_map_nests", "move_loop_into_map"]


def _nest_of(state: SDFGState, outer: MapEntry) -> MapEntry | None:
    """The single inner map entry of a clean ``loop { map }`` nest, else None."""
    if len(outer.map.params) != 1:
        return None
    if outer.exit_node is None:
        return None
    children = state.scope_children().get(outer, [])
    entries = [n for n in children if isinstance(n, MapEntry)]
    exits = [n for n in children if isinstance(n, MapExit)]
    if len(entries) != 1 or len(children) != len(entries) + len(exits):
        return None  # stray tasklets/access nodes directly in the loop scope
    inner = entries[0]
    if exits != [inner.exit_node]:
        return None
    if outer.map.params[0] in inner.map.params:
        return None  # parameter name clash
    # Clean wiring: the inner scope talks only to the outer scope nodes.
    if any(e.src is not outer for e in state.in_edges(inner)):
        return None
    if any(e.dst is not outer.exit_node for e in state.out_edges(inner.exit_node)):
        return None
    return inner


def find_loop_map_nests(state: SDFGState) -> list[MapEntry]:
    """Outer (single-parameter) map entries of clean ``loop { map }`` nests."""
    return [
        entry for entry in state.map_entries() if _nest_of(state, entry) is not None
    ]


def move_loop_into_map(state: SDFGState, outer: MapEntry) -> TransformReport:
    """Merge the single-parameter loop scope *outer* into its inner map.

    The nest is flattened into one scope (the outer entry/exit nodes are
    kept, the inner pair dissolves) iterating ``inner params, then the
    loop param`` — the loop becomes the innermost playback dimension.
    Memlets are untouched: inner edges already carry the precise
    per-iteration subsets, and the edges outside the nest cover the same
    combined iteration space as before.
    """
    inner = _nest_of(state, outer)
    if inner is None:
        raise TransformError(
            f"map {outer.map.label!r} is not a single-parameter loop wrapping "
            "exactly one inner map"
        )
    outer_exit = outer.exit_node
    inner_exit = inner.exit_node
    assert outer_exit is not None and inner_exit is not None

    merged = Map(
        inner.map.label,
        list(inner.map.params) + list(outer.map.params),
        list(inner.map.ranges) + list(outer.map.ranges),
    )

    # Dissolve the inner entry: its outputs re-source from the outer entry
    # (same connector, same precise memlet); its inputs vanish with it.
    for edge in list(state.out_edges(inner)):
        state.add_edge(outer, edge.data.src_conn, edge.dst,
                       edge.data.dst_conn, edge.data.memlet)
        state.remove_edge(edge)
    for edge in list(state.in_edges(inner)):
        state.remove_edge(edge)

    # Dissolve the inner exit symmetrically.
    for edge in list(state.in_edges(inner_exit)):
        state.add_edge(edge.src, edge.data.src_conn, outer_exit,
                       edge.data.dst_conn, edge.data.memlet)
        state.remove_edge(edge)
    for edge in list(state.out_edges(inner_exit)):
        state.remove_edge(edge)

    state.remove_node(inner)
    state.remove_node(inner_exit)
    outer.map = merged
    outer_exit.map = merged
    return TransformReport(
        "move_loop_into_map",
        modified_states=(state.name,),
        detail=(
            f"loop {merged.params[-1]!r} moved into map {merged.label!r} "
            f"-> params {list(merged.params)}"
        ),
    )
