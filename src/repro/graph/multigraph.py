"""An insertion-ordered multi-digraph with first-class edge objects."""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, TypeVar

from repro import mutation
from repro.errors import GraphError

__all__ = ["Edge", "OrderedMultiDiGraph"]

NodeT = TypeVar("NodeT", bound=Hashable)
EdgeT = TypeVar("EdgeT")


class Edge(Generic[NodeT, EdgeT]):
    """A directed edge ``src -> dst`` carrying a *data* payload.

    Edge objects have identity semantics: two parallel edges with equal
    payloads are still distinct edges.
    """

    __slots__ = ("src", "dst", "data")

    def __init__(self, src: NodeT, dst: NodeT, data: EdgeT = None):
        self.src = src
        self.dst = dst
        self.data = data

    def __repr__(self) -> str:
        return f"Edge({self.src!r} -> {self.dst!r}, {self.data!r})"


class OrderedMultiDiGraph(Generic[NodeT, EdgeT]):
    """Directed multigraph preserving node and edge insertion order.

    Nodes may be any hashable objects; parallel edges and self-loops are
    allowed.  All iteration orders are deterministic (insertion order),
    which makes downstream layouts and serializations reproducible.
    Every structural edit of an observed graph bumps the IR mutation
    counter (:mod:`repro.mutation`).
    """

    def __init__(self) -> None:
        # dict preserves insertion order; values are (in_edges, out_edges).
        self._nodes: dict[NodeT, tuple[list[Edge[NodeT, EdgeT]], list[Edge[NodeT, EdgeT]]]] = {}
        self._edges: list[Edge[NodeT, EdgeT]] = []
        self._observed = False

    # -- nodes ------------------------------------------------------------
    def add_node(self, node: NodeT) -> NodeT:
        """Add *node* (idempotent) and return it."""
        if node not in self._nodes:
            self._nodes[node] = ([], [])
            mutation.changed(self)
        return node

    def remove_node(self, node: NodeT) -> None:
        """Remove *node* and all incident edges."""
        if node not in self._nodes:
            raise GraphError(f"node {node!r} is not in the graph")
        in_edges, out_edges = self._nodes[node]
        incident: list[Edge[NodeT, EdgeT]] = []
        for edge in list(in_edges) + list(out_edges):
            # A self-loop appears in both lists; remove it only once.
            if not any(edge is e for e in incident):
                incident.append(edge)
        for edge in incident:
            self.remove_edge(edge)
        del self._nodes[node]
        mutation.changed(self)

    def has_node(self, node: NodeT) -> bool:
        return node in self._nodes

    def nodes(self) -> list[NodeT]:
        """All nodes in insertion order."""
        return list(self._nodes)

    @property
    def number_of_nodes(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._nodes

    def __iter__(self) -> Iterator[NodeT]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- edges ------------------------------------------------------------
    def add_edge(self, src: NodeT, dst: NodeT, data: EdgeT = None) -> Edge[NodeT, EdgeT]:
        """Add an edge ``src -> dst``; endpoints are added if missing."""
        self.add_node(src)
        self.add_node(dst)
        edge = Edge(src, dst, data)
        self._edges.append(edge)
        self._nodes[dst][0].append(edge)
        self._nodes[src][1].append(edge)
        mutation.changed(self)
        return edge

    def remove_edge(self, edge: Edge[NodeT, EdgeT]) -> None:
        """Remove a specific edge object."""
        try:
            self._edges.remove(edge)
        except ValueError:
            raise GraphError(f"edge {edge!r} is not in the graph") from None
        self._nodes[edge.dst][0].remove(edge)
        self._nodes[edge.src][1].remove(edge)
        mutation.changed(self)

    def edges(self) -> list[Edge[NodeT, EdgeT]]:
        """All edges in insertion order."""
        return list(self._edges)

    @property
    def number_of_edges(self) -> int:
        return len(self._edges)

    def edges_between(self, src: NodeT, dst: NodeT) -> list[Edge[NodeT, EdgeT]]:
        """All parallel edges from *src* to *dst*."""
        if src not in self._nodes:
            return []
        return [e for e in self._nodes[src][1] if e.dst == dst]

    def has_edge(self, src: NodeT, dst: NodeT) -> bool:
        return bool(self.edges_between(src, dst))

    # -- incidence --------------------------------------------------------
    def in_edges(self, node: NodeT) -> list[Edge[NodeT, EdgeT]]:
        self._require(node)
        return list(self._nodes[node][0])

    def out_edges(self, node: NodeT) -> list[Edge[NodeT, EdgeT]]:
        self._require(node)
        return list(self._nodes[node][1])

    def all_edges(self, node: NodeT) -> list[Edge[NodeT, EdgeT]]:
        """Incoming followed by outgoing edges of *node*."""
        return self.in_edges(node) + self.out_edges(node)

    def in_degree(self, node: NodeT) -> int:
        self._require(node)
        return len(self._nodes[node][0])

    def out_degree(self, node: NodeT) -> int:
        self._require(node)
        return len(self._nodes[node][1])

    def predecessors(self, node: NodeT) -> list[NodeT]:
        """Unique predecessors, ordered by first incoming edge."""
        seen: dict[NodeT, None] = {}
        for e in self.in_edges(node):
            seen.setdefault(e.src)
        return list(seen)

    def successors(self, node: NodeT) -> list[NodeT]:
        """Unique successors, ordered by first outgoing edge."""
        seen: dict[NodeT, None] = {}
        for e in self.out_edges(node):
            seen.setdefault(e.dst)
        return list(seen)

    def source_nodes(self) -> list[NodeT]:
        """Nodes without incoming edges."""
        return [n for n in self._nodes if not self._nodes[n][0]]

    def sink_nodes(self) -> list[NodeT]:
        """Nodes without outgoing edges."""
        return [n for n in self._nodes if not self._nodes[n][1]]

    # -- helpers ----------------------------------------------------------
    def _require(self, node: NodeT) -> None:
        if node not in self._nodes:
            raise GraphError(f"node {node!r} is not in the graph")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.number_of_nodes}, "
            f"edges={self.number_of_edges})"
        )
