"""The layout engine: the full Sugiyama pipeline over a
:class:`~repro.dot.graph.Digraph`."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dot.graph import Digraph
from repro.layout.acyclic import acyclic_orientation
from repro.layout.geometry import (
    H_GAP,
    Layout,
    LayoutEdge,
    LayoutNode,
    node_size_for_label,
)
from repro.layout.ordering import (
    count_crossings,
    insert_virtual_nodes,
    minimize_crossings,
)
from repro.layout.position import assign_coordinates
from repro.layout.rank import assign_ranks, layers_from_ranks


class LayeredLayout:
    """Hierarchical layout; box sizes and gaps are the label-box model
    of :mod:`repro.layout.geometry`.

    Args:
        max_sweeps: barycenter sweep budget for crossing minimisation.
    """

    def __init__(self, max_sweeps: int = 8) -> None:
        self.max_sweeps = max_sweeps
        #: crossings in the final drawing (filled by :meth:`layout`).
        self.last_crossings: Optional[int] = None

    def layout(self, graph: Digraph) -> Layout:
        """Lay out ``graph``; every node gets a box, every edge a
        polyline: two points, three through a virtual node, or four,
        ``src, p, q, dst``, with a vertical run from p to q."""
        node_ids = list(graph.nodes)
        if not node_ids:
            return Layout({}, [], 0.0, 0.0)
        oriented, reversed_indices = acyclic_orientation(graph)
        rank = assign_ranks(node_ids, oriented)
        layers = layers_from_ranks(rank)
        # the phases below number the nodes: real ones 0 .. n-1 in graph
        # order, virtual, p- and q-vertices from n (repro.layout.ordering)
        number = {node_id: index for index, node_id in enumerate(node_ids)}
        segmented = insert_virtual_nodes(
            [rank[node_id] for node_id in node_ids],
            [[number[node_id] for node_id in layer] for layer in layers],
            [(number[src], number[dst]) for src, dst in oriented],
        )
        ordered = minimize_crossings(segmented, self.max_sweeps)
        self.last_crossings = count_crossings(
            ordered, segmented.edges + segmented.segments)

        labels = [graph.node(node_id).label for node_id in node_ids]
        virtual = segmented.size - len(node_ids)
        widths: List[float] = []
        heights: List[float] = []
        for label in labels:
            width, height = node_size_for_label(label)
            widths.append(width)
            heights.append(height)
        widths += [1.0] * virtual
        heights += [1.0] * virtual

        xs, ys = assign_coordinates(
            ordered, widths, heights, segmented.edges, segmented.segments)

        nodes: Dict[str, LayoutNode] = {}
        for index, node_id in enumerate(node_ids):
            nodes[node_id] = LayoutNode(
                node_id=node_id, x=xs[index], y=ys[index],
                width=widths[index], height=heights[index],
                label=labels[index], rank=rank[node_id],
            )

        # the bounds hold every box and every polyline point: a point is
        # a node's centre, a point on a box's border or a self-loop's tip
        # right of its box, and none lies below the lowest box
        width = max(max(node.right for node in nodes.values()), max(xs))
        # one point per node, shared by the polylines through it
        point_at = list(zip(xs, ys)).__getitem__
        edges: List[LayoutEdge] = []
        paths = iter(segmented.edge_paths)
        for index, edge in enumerate(graph.edges):
            if edge.src == edge.dst:
                # self-loop: a small triangle beside the node
                node = nodes[edge.src]
                tip = node.right + H_GAP
                width = max(width, tip)
                edges.append(LayoutEdge(edge.src, edge.dst, [
                    (node.right, node.y),
                    (tip, node.y),
                    (node.right, node.y + 4.0),
                ]))
                continue
            points = list(map(point_at, next(paths)))
            if index in reversed_indices:
                points.reverse()
            # clip endpoints to the node borders (vertical flow)
            src_node, dst_node = nodes[edge.src], nodes[edge.dst]
            (x, y), (_, next_y) = points[0], points[1]
            points[0] = (x, src_node.bottom if y <= next_y else src_node.top)
            (x, y), (_, prev_y) = points[-1], points[-2]
            points[-1] = (x, dst_node.top if y >= prev_y else dst_node.bottom)
            edges.append(LayoutEdge(edge.src, edge.dst, points))

        height = max(n.bottom for n in nodes.values())
        return Layout(nodes, edges, width, height)


def layout_graph(graph: Digraph) -> Layout:
    """One-shot convenience wrapper over :class:`LayeredLayout`."""
    return LayeredLayout().layout(graph)
