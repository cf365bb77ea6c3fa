"""Crossing minimisation: virtual-node insertion and barycenter sweeps.

Edges spanning more than one rank are broken into unit segments through
*virtual* nodes, then the per-layer orders are refined with alternating
down/up barycenter sweeps until the crossing count stops improving.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Set, Tuple


class SegmentedGraph:
    """The layered graph after virtual-node insertion.

    Attributes:
        layers: node ids per rank (virtual ids start with ``__v``).
        segments: unit-length edges (src, dst) between adjacent ranks.
        edge_paths: for each original edge index, the full node chain
            ``[src, v1, ..., dst]`` its drawing will follow.
        virtual: the set of virtual node ids.
    """

    def __init__(self, layers: List[List[str]],
                 segments: List[Tuple[str, str]],
                 edge_paths: List[List[str]],
                 virtual: Set[str]) -> None:
        self.layers = layers
        self.segments = segments
        self.edge_paths = edge_paths
        self.virtual = virtual


def insert_virtual_nodes(rank: Dict[str, int],
                         layers: List[List[str]],
                         edges: Sequence[Tuple[str, str]]) -> SegmentedGraph:
    """Split long edges into rank-adjacent segments via virtual nodes."""
    layers = [list(layer) for layer in layers]
    segments: List[Tuple[str, str]] = []
    edge_paths: List[List[str]] = []
    virtual: Set[str] = set()
    counter = itertools.count()
    for src, dst in edges:
        r_src, r_dst = rank[src], rank[dst]
        if r_dst - r_src <= 1:
            segments.append((src, dst))
            edge_paths.append([src, dst])
            continue
        chain = [src]
        previous = src
        for middle_rank in range(r_src + 1, r_dst):
            vid = f"__v{next(counter)}"
            while vid in rank:  # a plan may name a real node ``__v0``
                vid = f"__v{next(counter)}"
            virtual.add(vid)
            layers[middle_rank].append(vid)
            segments.append((previous, vid))
            chain.append(vid)
            previous = vid
        segments.append((previous, dst))
        chain.append(dst)
        edge_paths.append(chain)
    return SegmentedGraph(layers, segments, edge_paths, virtual)


def _positions(layers: List[List[str]]) -> Dict[str, int]:
    """Each node's index within its layer."""
    return {node: pos for layer in layers for pos, node in enumerate(layer)}


def _segments_by_gap(layers: List[List[str]],
                     segments: Sequence[Tuple[str, str]]
                     ) -> List[List[Tuple[str, str]]]:
    """The segments leaving each layer, in ``segments`` order."""
    layer_of = {node: index for index, layer in enumerate(layers)
                for node in layer}
    gaps: List[List[Tuple[str, str]]] = [[] for _layer in layers]
    for segment in segments:
        gaps[layer_of[segment[0]]].append(segment)
    return gaps


def _crossings(gaps: List[List[Tuple[str, str]]],
               position: Dict[str, int]) -> int:
    """Crossings summed over the gaps: O(E log V).

    Two segments of a gap cross when their source positions and their
    destination positions are strictly in opposite order.  Walking the
    segments sorted by (source, destination), each one crosses the
    earlier ones whose destination lies strictly to its right; a Fenwick
    tree over destination positions counts those.  Earlier segments from
    the same source end at or left of it, so they never count.
    """
    total = 0
    for gap in gaps:
        pairs = sorted([(position[src], position[dst]) for src, dst in gap])
        size = max((dst for _src, dst in pairs), default=0) + 1
        tree = [0] * (size + 1)
        for walked, (_src, dst) in enumerate(pairs):
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


def count_crossings(layers: List[List[str]],
                    segments: Sequence[Tuple[str, str]]) -> int:
    """Total number of pairwise edge crossings between adjacent layers."""
    return _crossings(_segments_by_gap(layers, segments), _positions(layers))


def minimize_crossings(segmented: SegmentedGraph,
                       max_sweeps: int = 8) -> List[List[str]]:
    """Alternating barycenter sweeps; returns the improved layer orders."""
    layers = [list(layer) for layer in segmented.layers]
    gaps = _segments_by_gap(layers, segmented.segments)
    position = _positions(layers)
    best_crossings = _crossings(gaps, position)
    if best_crossings == 0:
        return layers  # a sweep is only kept if it has fewer
    best = [list(layer) for layer in layers]
    down: Dict[str, List[str]] = {}
    up: Dict[str, List[str]] = {}
    for src, dst in segmented.segments:
        down.setdefault(src, []).append(dst)
        up.setdefault(dst, []).append(src)

    def sweep(direction: int) -> None:
        indices = range(1, len(layers)) if direction > 0 else range(
            len(layers) - 2, -1, -1
        )
        neighbours = up if direction > 0 else down
        for layer_index in indices:
            layer = layers[layer_index]
            barycenter: Dict[str, float] = {}
            for pos, node in enumerate(layer):
                adjacent = neighbours.get(node)
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
