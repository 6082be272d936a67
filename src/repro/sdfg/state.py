"""Dataflow state: an acyclic multigraph of nodes connected by memlets."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro import mutation
from repro.errors import GraphError, ReproError
from repro.graph import Edge, OrderedMultiDiGraph, topological_sort
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    Map,
    MapEntry,
    MapExit,
    NestedSDFG,
    Node,
    Tasklet,
)
from repro.sdfg.propagation import propagate_memlet
from repro.symbolic.ranges import Range

if TYPE_CHECKING:  # pragma: no cover
    from repro.sdfg.sdfg import SDFG

__all__ = ["Connection", "SDFGState"]


class Connection:
    """Edge payload: connector names plus the memlet moving along the edge.

    Replacing the memlet (layout transforms rewrite subsets this way) of
    an observed connection bumps the IR mutation counter.
    """

    __slots__ = ("src_conn", "dst_conn", "_memlet", "_observed")

    memlet = mutation.tracked("_memlet")

    def __init__(self, src_conn: str | None, dst_conn: str | None, memlet: Memlet | None):
        self.src_conn = src_conn
        self.dst_conn = dst_conn
        self._memlet = memlet
        self._observed = False

    def __repr__(self) -> str:
        return f"Connection({self.src_conn!r} -> {self.dst_conn!r}: {self.memlet!r})"


#: Type alias for edges in a state graph.
StateEdge = Edge[Node, Connection]


class SDFGState:
    """A single dataflow graph within an SDFG.

    The state owns an ordered multigraph of :class:`~repro.sdfg.nodes.Node`
    objects whose edges carry :class:`Connection` payloads (connector names
    plus a memlet).  Convenience constructors build common structures —
    in particular :meth:`add_mapped_tasklet`, which assembles the canonical
    "map over a tasklet" pattern with correctly propagated outer memlets.

    The state's content fingerprint is memoized on the state itself
    (``_fingerprints``, see :mod:`repro.sdfg.serialize`); the memo never
    crosses a pickle or copy.
    """

    def __init__(self, name: str, sdfg: "SDFG | None" = None):
        if not name:
            raise ReproError("state requires a name")
        self.name = name
        self.sdfg = sdfg
        self.graph: OrderedMultiDiGraph[Node, Connection] = OrderedMultiDiGraph()
        self._fingerprints = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_fingerprints"] = None
        return state

    # -- nodes --------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        return self.graph.add_node(node)

    def remove_node(self, node: Node) -> None:
        self.graph.remove_node(node)

    def nodes(self) -> list[Node]:
        return self.graph.nodes()

    def edges(self) -> list[StateEdge]:
        return self.graph.edges()

    def in_edges(self, node: Node) -> list[StateEdge]:
        return self.graph.in_edges(node)

    def out_edges(self, node: Node) -> list[StateEdge]:
        return self.graph.out_edges(node)

    def topological_nodes(self) -> list[Node]:
        return topological_sort(self.graph)

    def data_nodes(self) -> list[AccessNode]:
        """All access nodes in the state."""
        return [n for n in self.graph.nodes() if isinstance(n, AccessNode)]

    def tasklets(self) -> list[Tasklet]:
        return [n for n in self.graph.nodes() if isinstance(n, Tasklet)]

    def map_entries(self) -> list[MapEntry]:
        return [n for n in self.graph.nodes() if isinstance(n, MapEntry)]

    # -- convenience constructors --------------------------------------------
    def add_access(self, data: str) -> AccessNode:
        """Add (and return) an access node for container *data*."""
        if self.sdfg is not None and data not in self.sdfg.arrays:
            raise ReproError(
                f"container {data!r} is not defined in SDFG {self.sdfg.name!r}"
            )
        node = AccessNode(data)
        self.graph.add_node(node)
        return node

    def add_tasklet(
        self,
        name: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        code: str,
    ) -> Tasklet:
        node = Tasklet(name, inputs, outputs, code)
        self.graph.add_node(node)
        return node

    def add_map(
        self, label: str, iteration: Mapping[str, Range | str]
    ) -> tuple[MapEntry, MapExit]:
        """Add a map scope; *iteration* maps parameter names to ranges."""
        params = list(iteration)
        ranges = [
            Range.from_string(r) if isinstance(r, str) else r
            for r in iteration.values()
        ]
        map_obj = Map(label, params, ranges)
        entry = MapEntry(map_obj)
        exit_ = MapExit(map_obj, entry)
        self.graph.add_node(entry)
        self.graph.add_node(exit_)
        return entry, exit_

    def add_nested_sdfg(
        self,
        sdfg: "SDFG",
        inputs: Sequence[str],
        outputs: Sequence[str],
        symbol_mapping: Mapping[str, object] | None = None,
    ) -> NestedSDFG:
        node = NestedSDFG(sdfg, inputs, outputs, symbol_mapping)
        self.graph.add_node(node)
        return node

    # -- edges ----------------------------------------------------------------
    def add_edge(
        self,
        src: Node,
        src_conn: str | None,
        dst: Node,
        dst_conn: str | None,
        memlet: Memlet | None,
    ) -> StateEdge:
        """Add a dataflow edge; registers the connectors on the endpoints."""
        for node in (src, dst):
            if not self.graph.has_node(node):
                raise GraphError(f"node {node!r} is not in state {self.name!r}")
        if src_conn is not None:
            src.add_out_connector(src_conn)
        if dst_conn is not None:
            dst.add_in_connector(dst_conn)
        return self.graph.add_edge(src, dst, Connection(src_conn, dst_conn, memlet))

    def remove_edge(self, edge: StateEdge) -> None:
        self.graph.remove_edge(edge)

    def add_memlet_path(
        self,
        *path: Node,
        memlet: Memlet,
        src_conn: str | None = None,
        dst_conn: str | None = None,
    ) -> list[StateEdge]:
        """Thread a memlet through a chain of nodes, across scope boundaries.

        The innermost segment carries *memlet* verbatim; every map
        entry/exit crossed toward the outside propagates the memlet (union
        subset, multiplied volume).  Scope nodes get paired
        ``IN_<data>`` / ``OUT_<data>`` connectors.

        The path must run either from outside into a scope (reads:
        ``access -> entry -> ... -> tasklet``) or from inside out (writes:
        ``tasklet -> ... -> exit -> access``).
        """
        if len(path) < 2:
            raise ReproError("memlet path requires at least two nodes")
        data = memlet.data

        # Determine which segment is innermost: for reads the last edge,
        # for writes the first edge.  Build memlets from the inside out.
        is_read = not isinstance(path[0], (Tasklet, MapExit, NestedSDFG))
        edges: list[StateEdge] = []
        if is_read:
            # Innermost edge is the last one; propagate backwards.
            memlets = [memlet]
            for node in reversed(path[1:-1]):
                if isinstance(node, MapEntry):
                    memlets.append(propagate_memlet(memlets[-1], node.map))
                else:
                    memlets.append(memlets[-1])
            memlets.reverse()
            for i, (u, v) in enumerate(zip(path[:-1], path[1:])):
                sconn = src_conn if i == 0 else f"OUT_{data}"
                dconn = dst_conn if i == len(path) - 2 else f"IN_{data}"
                edges.append(self.add_edge(u, sconn, v, dconn, memlets[i]))
        else:
            memlets = [memlet]
            for node in path[1:-1]:
                if isinstance(node, MapExit):
                    memlets.append(propagate_memlet(memlets[-1], node.map))
                else:
                    memlets.append(memlets[-1])
            for i, (u, v) in enumerate(zip(path[:-1], path[1:])):
                sconn = src_conn if i == 0 else f"OUT_{data}"
                dconn = dst_conn if i == len(path) - 2 else f"IN_{data}"
                edges.append(self.add_edge(u, sconn, v, dconn, memlets[i]))
        return edges

    def add_mapped_tasklet(
        self,
        name: str,
        iteration: Mapping[str, Range | str],
        inputs: Mapping[str, Memlet],
        code: str,
        outputs: Mapping[str, Memlet],
        input_nodes: Mapping[str, AccessNode] | None = None,
        output_nodes: Mapping[str, AccessNode] | None = None,
    ) -> tuple[Tasklet, MapEntry, MapExit]:
        """Build ``accesses -> map entry -> tasklet -> map exit -> accesses``.

        *inputs* / *outputs* map tasklet connector names to per-iteration
        memlets; outer edges receive propagated memlets automatically.
        Existing access nodes may be supplied via *input_nodes* /
        *output_nodes* (keyed by container name) to chain computations.
        """
        entry, exit_ = self.add_map(name, iteration)
        tasklet = self.add_tasklet(name, list(inputs), list(outputs), code)
        input_nodes = dict(input_nodes or {})
        output_nodes = dict(output_nodes or {})

        if inputs:
            for conn, memlet in inputs.items():
                src = input_nodes.get(memlet.data)
                if src is None:
                    src = self.add_access(memlet.data)
                    input_nodes[memlet.data] = src
                self.add_memlet_path(src, entry, tasklet, memlet=memlet, dst_conn=conn)
        else:
            # Keep the scope connected even without data inputs.
            self.add_edge(entry, None, tasklet, None, None)

        for conn, memlet in outputs.items():
            dst = output_nodes.get(memlet.data)
            if dst is None:
                dst = self.add_access(memlet.data)
                output_nodes[memlet.data] = dst
            self.add_memlet_path(tasklet, exit_, dst, memlet=memlet, src_conn=conn)
        return tasklet, entry, exit_

    # -- scopes -----------------------------------------------------------------
    def scope_dict(self) -> dict[Node, MapEntry | None]:
        """Innermost enclosing map entry for every node (None = top level).

        Scope membership follows dataflow: nodes reachable from a map entry
        before its exit belong to that scope.
        """
        result: dict[Node, MapEntry | None] = {}
        for node in self.topological_nodes():
            # A node's scope is determined by its predecessors.
            preds = self.graph.predecessors(node)
            if not preds:
                result[node] = None
                continue
            scopes: set[MapEntry | None] = set()
            for pred in preds:
                if isinstance(pred, MapEntry):
                    scopes.add(pred)
                elif isinstance(pred, MapExit):
                    scopes.add(result.get(pred.entry_node))
                else:
                    scopes.add(result.get(pred))
            if isinstance(node, MapExit):
                # The exit belongs to the same scope as its entry.
                result[node] = result.get(node.entry_node)
                continue
            scopes.discard(None) if len(scopes) > 1 else None
            if len(scopes) > 1:
                raise ReproError(
                    f"node {node!r} has ambiguous scope membership: {scopes}"
                )
            result[node] = next(iter(scopes)) if scopes else None
        return result

    def scope_children(self) -> dict[MapEntry | None, list[Node]]:
        """Nodes directly contained in each scope (inverse of scope_dict)."""
        sdict = self.scope_dict()
        children: dict[MapEntry | None, list[Node]] = {None: []}
        for entry in self.map_entries():
            children[entry] = []
        for node, scope in sdict.items():
            children.setdefault(scope, []).append(node)
        return children

    def all_memlets(self) -> Iterator[tuple[StateEdge, Memlet]]:
        """All (edge, memlet) pairs with a non-empty memlet."""
        for edge in self.graph.edges():
            if edge.data is not None and edge.data.memlet is not None:
                yield edge, edge.data.memlet

    def __repr__(self) -> str:
        return (
            f"SDFGState({self.name!r}, nodes={self.graph.number_of_nodes}, "
            f"edges={self.graph.number_of_edges})"
        )
