"""Crossing minimisation: virtual-node insertion and barycenter sweeps.

Edges spanning more than one rank are broken into unit segments through
*virtual* nodes, then the per-layer orders are refined with alternating
down/up barycenter sweeps until the crossing count stops improving.

Nodes are integers here: :class:`~repro.layout.engine.LayeredLayout`
numbers the real nodes ``0 .. n-1`` in graph order, and
:func:`insert_virtual_nodes` numbers the virtual ones ``n, n+1, ...`` in
the order it inserts them, so a node's number indexes flat lists
(position, layer, adjacency) and no name can clash with a plan's own.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Segment = Tuple[int, int]


class SegmentedGraph:
    """The layered graph after virtual-node insertion.

    Attributes:
        layers: node numbers per rank; the real nodes of a rank come
            first, then its virtual nodes.
        segments: unit-length edges (src, dst) between adjacent ranks.
        edge_paths: for each layered (non-loop) edge, the full node
            chain ``[src, v1, ..., dst]`` its drawing will follow.
        size: how many nodes there are, real and virtual; every number
            is below it.
    """

    def __init__(self, layers: List[List[int]], segments: List[Segment],
                 edge_paths: List[List[int]], size: int) -> None:
        self.layers = layers
        self.segments = segments
        self.edge_paths = edge_paths
        self.size = size


def insert_virtual_nodes(rank: Sequence[int],
                         layers: List[List[int]],
                         edges: Sequence[Segment]) -> SegmentedGraph:
    """Split long edges into rank-adjacent segments via virtual nodes.

    ``rank[i]`` is real node ``i``'s rank, so ``len(rank)`` is the
    first virtual number.
    """
    layers = [list(layer) for layer in layers]
    segments: List[Segment] = []
    edge_paths: List[List[int]] = []
    size = len(rank)
    for src, dst in edges:
        r_src, r_dst = rank[src], rank[dst]
        if r_dst - r_src <= 1:
            segments.append((src, dst))
            edge_paths.append([src, dst])
            continue
        chain = [src]
        for middle_rank in range(r_src + 1, r_dst):
            layers[middle_rank].append(size)
            chain.append(size)
            size += 1
        chain.append(dst)
        segments.extend(zip(chain, chain[1:]))
        edge_paths.append(chain)
    return SegmentedGraph(layers, segments, edge_paths, size)


def _positions(layers: List[List[int]], size: int) -> List[int]:
    """Each node's index within its layer."""
    position = [0] * size
    for layer in layers:
        for pos, node in enumerate(layer):
            position[node] = pos
    return position


def _segments_by_gap(layers: List[List[int]], segments: Sequence[Segment],
                     size: int) -> List[Tuple[List[int], List[int]]]:
    """The segments leaving each layer, in ``segments`` order, as a
    list of sources and a parallel list of destinations."""
    layer_of = [0] * size
    for index, layer in enumerate(layers):
        for node in layer:
            layer_of[node] = index
    gaps: List[Tuple[List[int], List[int]]] = [([], []) for _layer in layers]
    for src, dst in segments:
        sources, destinations = gaps[layer_of[src]]
        sources.append(src)
        destinations.append(dst)
    return gaps


def _crossings(gaps: List[Tuple[List[int], List[int]]],
               position: List[int]) -> int:
    """Crossings summed over the gaps: O(E log V).

    Two segments of a gap cross when their source positions and their
    destination positions are strictly in opposite order.  Walking the
    segments sorted by (source, destination), each one crosses the
    earlier ones whose destination lies strictly to its right; a Fenwick
    tree over destination positions counts those.  Earlier segments from
    the same source end at or left of it, so they never count, and a gap
    whose destinations come out in order has no crossing at all.
    """
    total = 0
    at = position.__getitem__
    for sources, destinations in gaps:
        ends = [dst for _src, dst in
                sorted(zip(map(at, sources), map(at, destinations)))]
        if ends == sorted(ends):
            continue
        size = max(ends) + 1
        tree = [0] * (size + 1)
        for walked, dst in enumerate(ends):
            at_or_left = 0
            index = dst + 1
            while index:
                at_or_left += tree[index]
                index &= index - 1
            total += walked - at_or_left
            index = dst + 1
            while index <= size:
                tree[index] += 1
                index += index & -index
    return total


def count_crossings(layers: List[List[int]],
                    segments: Sequence[Segment]) -> int:
    """Total number of pairwise edge crossings between adjacent layers;
    the nodes of ``layers`` are numbered ``0 .. len - 1``."""
    size = sum(map(len, layers))
    return _crossings(_segments_by_gap(layers, segments, size),
                      _positions(layers, size))


def minimize_crossings(segmented: SegmentedGraph,
                       max_sweeps: int = 8) -> List[List[int]]:
    """Alternating barycenter sweeps; returns the improved layer orders."""
    size = segmented.size
    layers = [list(layer) for layer in segmented.layers]
    gaps = _segments_by_gap(layers, segmented.segments, size)
    position = _positions(layers, size)
    best_crossings = _crossings(gaps, position)
    if best_crossings == 0:
        return layers  # a sweep is only kept if it has fewer
    best = [list(layer) for layer in layers]
    down: List[List[int]] = [[] for _node in range(size)]
    up: List[List[int]] = [[] for _node in range(size)]
    for src, dst in segmented.segments:
        down[src].append(dst)
        up[dst].append(src)
    barycenter = [0.0] * size

    def sweep(direction: int) -> None:
        indices = range(1, len(layers)) if direction > 0 else range(
            len(layers) - 2, -1, -1
        )
        neighbours = up if direction > 0 else down
        for layer_index in indices:
            layer = layers[layer_index]
            for pos, node in enumerate(layer):
                adjacent = neighbours[node]
                # keep nodes without neighbours where they are
                barycenter[node] = (
                    sum([position[n] for n in adjacent]) / len(adjacent)
                    if adjacent else float(pos)
                )
            layer.sort(key=barycenter.__getitem__)
            for pos, node in enumerate(layer):
                position[node] = pos

    for sweep_index in range(max_sweeps):
        sweep(+1 if sweep_index % 2 == 0 else -1)
        crossings = _crossings(gaps, position)
        if crossings < best_crossings:
            best_crossings = crossings
            best = [list(layer) for layer in layers]
        if crossings == 0:
            break
    return best
