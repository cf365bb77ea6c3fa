"""Directed graph model shared by the dot writer/parser and the layout
engine.

A MAL plan's dot file is a DAG: one node per instruction (named ``n<pc>``,
labelled with the statement text) and one edge per dataflow dependency.
The Stethoscope keeps this structure in memory and navigates it, so the
model favours cheap neighbour queries and stable ordering.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import DotError


class Node:
    """A graph node with a label and free-form string attributes."""

    __slots__ = ("node_id", "attrs")

    def __init__(self, node_id: str, attrs: Optional[Dict[str, str]] = None) -> None:
        self.node_id = node_id
        self.attrs: Dict[str, str] = dict(attrs or {})

    @property
    def label(self) -> str:
        """The node's label (defaults to its id, like GraphViz)."""
        return self.attrs.get("label", self.node_id)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Node({self.node_id})"


class Edge:
    """A directed edge with free-form string attributes."""

    __slots__ = ("src", "dst", "attrs")

    def __init__(self, src: str, dst: str,
                 attrs: Optional[Dict[str, str]] = None) -> None:
        self.src = src
        self.dst = dst
        self.attrs: Dict[str, str] = dict(attrs or {})

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Edge({self.src}->{self.dst})"


class Digraph:
    """A directed graph with named nodes.

    Node/edge insertion order is preserved; duplicate edges are allowed
    (dot permits them) but :meth:`add_node` rejects duplicate ids.
    """

    def __init__(self, name: str = "G",
                 attrs: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, str] = dict(attrs or {})
        self.nodes: Dict[str, Node] = {}
        self.edges: List[Edge] = []
        self._out: Dict[str, List[str]] = {}
        self._in: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(self, node_id: str,
                 attrs: Optional[Dict[str, str]] = None) -> Node:
        """Add a node; raises DotError on a duplicate id."""
        if node_id in self.nodes:
            raise DotError(f"duplicate node id {node_id!r}")
        node = Node(node_id, attrs)
        self.nodes[node_id] = node
        self._out[node_id] = []
        self._in[node_id] = []
        return node

    def add_edge(self, src: str, dst: str,
                 attrs: Optional[Dict[str, str]] = None) -> Edge:
        """Add a directed edge, declaring endpoints as needed (dot
        semantics: mentioning a node in an edge declares it)."""
        if src not in self.nodes:
            self.add_node(src)
        if dst not in self.nodes:
            self.add_node(dst)
        edge = Edge(src, dst, attrs)
        self.edges.append(edge)
        self._out[src].append(dst)
        self._in[dst].append(src)
        return edge

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def node(self, node_id: str) -> Node:
        """Look up a node; raises DotError when missing."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise DotError(f"no node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self.nodes

    def successors(self, node_id: str) -> List[str]:
        """Targets of out-edges, in insertion order."""
        return list(self._out.get(node_id, []))

    def predecessors(self, node_id: str) -> List[str]:
        """Sources of in-edges, in insertion order."""
        return list(self._in.get(node_id, []))

    def out_degree(self, node_id: str) -> int:
        return len(self._out.get(node_id, []))

    def in_degree(self, node_id: str) -> int:
        return len(self._in.get(node_id, []))

    def roots(self) -> List[str]:
        """Nodes with no incoming edges (plan sources: binds, mvc)."""
        return [n for n in self.nodes if not self._in[n]]

    def leaves(self) -> List[str]:
        """Nodes with no outgoing edges (plan sinks: result export)."""
        return [n for n in self.nodes if not self._out[n]]

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return len(self.edges)

    # ------------------------------------------------------------------
    # algorithms
    # ------------------------------------------------------------------

    def topological_order(self) -> List[str]:
        """Kahn's algorithm; raises DotError when the graph has a cycle."""
        indegree = {n: 0 for n in self.nodes}
        for edge in self.edges:
            indegree[edge.dst] += 1
        ready = deque(n for n in self.nodes if indegree[n] == 0)
        order: List[str] = []
        while ready:
            node_id = ready.popleft()
            order.append(node_id)
            for succ in self._out[node_id]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):
            raise DotError("graph contains a cycle")
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except DotError:
            return False

    def reachable_from(self, node_id: str) -> Set[str]:
        """All nodes reachable by following out-edges (incl. the start)."""
        seen: Set[str] = set()
        stack = [node_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._out.get(current, []))
        return seen

    def bfs_layers(self, starts: Optional[List[str]] = None) -> List[List[str]]:
        """Breadth-first layers from the roots (or given starts); used by
        the bird's-eye view to cluster the plan."""
        if starts is None:
            starts = self.roots() or list(self.nodes)[:1]
        seen: Set[str] = set(starts)
        layers = [list(starts)]
        frontier = list(starts)
        while frontier:
            nxt: List[str] = []
            for node_id in frontier:
                for succ in self._out.get(node_id, []):
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
            if nxt:
                layers.append(nxt)
            frontier = nxt
        return layers

    def subgraph(self, keep: Set[str]) -> "Digraph":
        """An induced subgraph over ``keep`` (pruning helper)."""
        out = Digraph(self.name, dict(self.attrs))
        for node_id, node in self.nodes.items():
            if node_id in keep:
                out.add_node(node_id, dict(node.attrs))
        for edge in self.edges:
            if edge.src in keep and edge.dst in keep:
                out.add_edge(edge.src, edge.dst, dict(edge.attrs))
        return out
