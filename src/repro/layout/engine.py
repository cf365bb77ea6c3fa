"""The layout engine: the full Sugiyama pipeline over a
:class:`~repro.dot.graph.Digraph`."""

from __future__ import annotations

from operator import add, sub
from typing import List, Optional, Tuple

from repro.dot.graph import Digraph
from repro.layout.acyclic import acyclic_orientation
from repro.layout.geometry import H_GAP, Layout, node_size_for_label
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
            return Layout([], [], [], [], [], [], [], [], [], [], 0.0, 0.0)
        oriented, reversed_indices = acyclic_orientation(graph)
        rank = assign_ranks(node_ids, oriented)
        layers = layers_from_ranks(rank)
        # the phases below number the nodes: real ones 0 .. n-1 in graph
        # order, virtual, p- and q-vertices from n (repro.layout.ordering)
        number = {node_id: index for index, node_id in enumerate(node_ids)}
        ranks = [rank[node_id] for node_id in node_ids]
        segmented = insert_virtual_nodes(
            ranks,
            [[number[node_id] for node_id in layer] for layer in layers],
            [(number[src], number[dst]) for src, dst in oriented],
        )
        ordered = minimize_crossings(segmented, self.max_sweeps)
        self.last_crossings = count_crossings(
            ordered, segmented.edges + segmented.segments)

        labels = [graph.node(node_id).label for node_id in node_ids]
        real = len(node_ids)
        widths: List[float] = []
        heights: List[float] = []
        for label in labels:
            width, height = node_size_for_label(label)
            widths.append(width)
            heights.append(height)
        widths += [1.0] * (segmented.size - real)
        heights += [1.0] * (segmented.size - real)

        xs, ys = assign_coordinates(
            ordered, widths, heights, segmented.edges, segmented.segments)
        # one point per node, shared by the polylines through it
        point_at = list(zip(xs, ys)).__getitem__
        # the bounds hold every box and every polyline point: a point is
        # a node's centre, a point on a box's border or a self-loop's tip
        # right of its box, and none lies below the lowest box
        width = max(xs)
        del xs[real:], ys[real:], widths[real:], heights[real:]
        rights = list(map(add, xs, [box_width / 2 for box_width in widths]))
        halves = [box_height / 2 for box_height in heights]
        tops = list(map(sub, ys, halves))
        bottoms = list(map(add, ys, halves))
        width = max(max(rights), width)

        srcs = [edge.src for edge in graph.edges]
        dsts = [edge.dst for edge in graph.edges]
        polylines: List[List[Tuple[float, float]]] = []
        paths = iter(segmented.edge_paths)
        for index, (src, dst) in enumerate(zip(srcs, dsts)):
            if src == dst:
                # self-loop: a small triangle beside the node
                node = number[src]
                right, y = rights[node], ys[node]
                tip = right + H_GAP
                width = max(width, tip)
                polylines.append([(right, y), (tip, y), (right, y + 4.0)])
                continue
            path = next(paths)
            if index in reversed_indices:
                path.reverse()
            points = list(map(point_at, path))
            # clip the ends to the borders of their boxes (vertical flow)
            first, last = path[0], path[-1]
            points[0] = (xs[first], bottoms[first]
                         if ys[first] <= points[1][1] else tops[first])
            points[-1] = (xs[last], tops[last]
                          if ys[last] >= points[-2][1] else bottoms[last])
            polylines.append(points)

        height = max(bottoms)
        return Layout(node_ids, xs, ys, widths, heights, labels, ranks,
                      srcs, dsts, polylines, width, height)


def layout_graph(graph: Digraph) -> Layout:
    """One-shot convenience wrapper over :class:`LayeredLayout`."""
    return LayeredLayout().layout(graph)
