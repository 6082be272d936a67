"""Dataflow graph node types.

Node taxonomy (mirroring SDFGs):

- :class:`AccessNode` — a read/write point of a named data container.
- :class:`Tasklet` — a fine-grained computation with named connectors and a
  Python-expression code body (the unit the arithmetic-operation counter
  analyzes).
- :class:`MapEntry` / :class:`MapExit` — the boundary of a *parametric
  parallel scope* ("parallel loops ... shown as boxes with trapezoidal
  header bars", paper Section V-A).  Both share one :class:`Map` object
  holding the parameters and their symbolic ranges.
- :class:`NestedSDFG` — a whole SDFG embedded as a node (graph folding in
  the global view collapses these).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Mapping, Sequence

from repro import mutation
from repro.errors import ReproError
from repro.symbolic.expr import Expr, ExprLike
from repro.symbolic.ranges import Range, Subset

if TYPE_CHECKING:  # pragma: no cover
    from repro.sdfg.sdfg import SDFG

__all__ = ["Node", "AccessNode", "Tasklet", "Map", "MapEntry", "MapExit", "NestedSDFG"]

_node_counter = itertools.count()


class Node:
    """Base class of dataflow nodes.

    Nodes have identity semantics (two access nodes for the same array are
    distinct graph nodes) plus a process-local unique id used for
    deterministic ordering.  Connector lists are tuples; adding a
    connector to an observed node bumps the IR mutation counter
    (:mod:`repro.mutation`).
    """

    __slots__ = ("uid", "_in_connectors", "_out_connectors", "_observed")

    in_connectors = mutation.tracked("_in_connectors", tuple)
    out_connectors = mutation.tracked("_out_connectors", tuple)

    def __init__(
        self,
        in_connectors: Sequence[str] = (),
        out_connectors: Sequence[str] = (),
    ):
        self.uid = next(_node_counter)
        self._in_connectors: tuple[str, ...] = tuple(in_connectors)
        self._out_connectors: tuple[str, ...] = tuple(out_connectors)
        self._observed = False

    def add_in_connector(self, name: str) -> str:
        if name not in self._in_connectors:
            self.in_connectors = self._in_connectors + (name,)
        return name

    def add_out_connector(self, name: str) -> str:
        if name not in self._out_connectors:
            self.out_connectors = self._out_connectors + (name,)
        return name

    @property
    def label(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label}, uid={self.uid})"


class AccessNode(Node):
    """A point where a named data container is read or written."""

    __slots__ = ("data",)

    def __init__(self, data: str):
        super().__init__()
        if not data:
            raise ReproError("AccessNode requires a container name")
        self.data = data

    @property
    def label(self) -> str:
        return self.data


class Tasklet(Node):
    """A fine-grained computation.

    The *code* is a single Python expression statement of the form
    ``out_conn = <expression over in connectors>`` (or several such
    statements separated by semicolons/newlines).  Connector names bind the
    code to incoming/outgoing memlets.
    """

    __slots__ = ("name", "_code")

    code = mutation.tracked("_code")

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        code: str,
    ):
        super().__init__(in_connectors=inputs, out_connectors=outputs)
        self.name = name
        if not outputs:
            raise ReproError(f"tasklet {name!r} requires at least one output")
        self._code = code

    @property
    def label(self) -> str:
        return self.name


class Map:
    """A parametric parallel iteration space shared by an entry/exit pair.

    ``params`` and ``ranges`` are tuples; assigning either (the
    loop-reorder transform does) on an observed map bumps the IR
    mutation counter.
    """

    __slots__ = ("label", "_params", "_ranges", "_observed")

    params = mutation.tracked("_params", tuple)
    ranges = mutation.tracked("_ranges", tuple)

    def __init__(self, label: str, params: Sequence[str], ranges: Sequence[Range]):
        if len(params) != len(ranges):
            raise ReproError(
                f"map {label!r}: {len(params)} params but {len(ranges)} ranges"
            )
        if len(set(params)) != len(params):
            raise ReproError(f"map {label!r} has duplicate parameters")
        self.label = label
        self._params: tuple[str, ...] = tuple(params)
        self._ranges: tuple[Range, ...] = tuple(ranges)
        self._observed = False

    @property
    def iteration_space(self) -> Subset:
        """The map's iteration space as a subset (one range per param)."""
        return Subset(self.ranges)

    def num_iterations(self) -> Expr:
        """Symbolic total number of iterations."""
        return self.iteration_space.num_elements()

    def range_of(self, param: str) -> Range:
        try:
            return self.ranges[self.params.index(param)]
        except ValueError:
            raise ReproError(f"map {self.label!r} has no parameter {param!r}") from None

    def reordered(self, order: Sequence[int]) -> "Map":
        """A copy with permuted parameter order (the loop-reorder transform)."""
        if sorted(order) != list(range(len(self.params))):
            raise ReproError(f"invalid parameter order {order!r}")
        return Map(
            self.label,
            [self.params[i] for i in order],
            [self.ranges[i] for i in order],
        )

    def subs(self, mapping: Mapping[str, ExprLike]) -> "Map":
        """Substitute symbols in the ranges (not the parameter names)."""
        return Map(self.label, self.params, [r.subs(mapping) for r in self.ranges])

    def __repr__(self) -> str:
        space = ", ".join(f"{p}={r}" for p, r in zip(self.params, self.ranges))
        return f"Map({self.label}: {space})"


class MapEntry(Node):
    """Scope-opening node of a parallel map.

    Connector convention: data entering the scope arrives at ``IN_<name>``
    and leaves toward the scope body from ``OUT_<name>``.
    """

    __slots__ = ("_map", "exit_node")

    map = mutation.tracked("_map")

    def __init__(self, map_obj: Map):
        super().__init__()
        self._map = map_obj
        #: Set by the state when the matching exit is created.
        self.exit_node: "MapExit | None" = None

    @property
    def label(self) -> str:
        return self.map.label


class MapExit(Node):
    """Scope-closing node of a parallel map (connectors mirror the entry)."""

    __slots__ = ("_map", "entry_node")

    map = mutation.tracked("_map")

    def __init__(self, map_obj: Map, entry: MapEntry):
        super().__init__()
        self._map = map_obj
        self.entry_node = entry
        entry.exit_node = self

    @property
    def label(self) -> str:
        return self.map.label


class NestedSDFG(Node):
    """An SDFG embedded as a single dataflow node.

    ``symbol_mapping`` maps inner symbol names to outer expressions,
    enabling the parametric analyses to see through the nesting.
    """

    __slots__ = ("sdfg", "symbol_mapping")

    def __init__(
        self,
        sdfg: "SDFG",
        inputs: Sequence[str],
        outputs: Sequence[str],
        symbol_mapping: Mapping[str, ExprLike] | None = None,
    ):
        super().__init__(in_connectors=inputs, out_connectors=outputs)
        self.sdfg = sdfg
        self.symbol_mapping: dict[str, ExprLike] = dict(symbol_mapping or {})

    @property
    def label(self) -> str:
        return self.sdfg.name
