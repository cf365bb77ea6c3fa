"""Crossing minimisation with long edges as segments.

An edge joining adjacent ranks stays as it is.  An edge spanning two
ranks gets one *virtual* node in the rank between.  An edge spanning
three or more becomes, after Eiglsperger, Siebenhaller & Kaufmann ("An
Efficient Implementation of Sugiyama's Algorithm for Layered Graph
Drawing", JGAA 2005), a *p-vertex* one rank below its source, a
*q-vertex* one rank above its target and one vertical *segment* between
them.  The ranks the segment passes hold no node for it: a layer is a
list whose items are node numbers and *containers*, non-empty lists of
the segments passing through between two of its nodes.  A segment is
numbered by its p-vertex.

Positions count a container's segments one each, so a node's position
is the one it would have if every segment left a virtual node in every
rank it crosses, and crossings are counted as in that graph.  The
Python work of a sweep is proportional to the nodes and containers of
the layers, not to the segments inside the containers: those move as
list slices, split where a node lands between two of them.

The orders are refined by alternating down/up barycenter sweeps until
the crossing count stops improving.  A sweep places a layer beside the
one placed before it: the segments crossing the gap between keep their
order, a node that ends one of them takes its place, and every other
node goes, in barycenter order, after the segments at or left of its
barycenter.  So segments never cross each other, and every arrangement
this module returns has the segments in one order in every rank they
share, which the crossing count relies on.  A graph without long edges
has no container, and its sweeps are the plain barycenter sweeps.

Nodes are integers: :class:`~repro.layout.engine.LayeredLayout` numbers
the real nodes ``0 .. n-1`` in graph order, and
:func:`insert_virtual_nodes` numbers the virtual, p- and q-vertices
``n, n+1, ...`` in the order it inserts them (a q-vertex is its
p-vertex plus one), so a node's number indexes flat lists and no name
can clash with a plan's own.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import repeat
from operator import itemgetter, sub
from typing import Iterable, Iterator, List, Sequence, Tuple

Edge = Tuple[int, int]
#: a layer: node numbers, and containers (lists of segment numbers)
Layer = list
#: the segments a layer shares with the next one, in order, and the
#: position of each in the layer
Shared = Tuple[List[int], List[int]]


class SegmentedGraph:
    """The layered graph with long edges as segments.

    Attributes:
        layers: the first arrangement: per rank its real nodes, then its
            virtual, p- and q-vertices in number order, with the segments
            passing through in containers among them by number.
        edges: edges between adjacent ranks (src, dst), segments aside.
        segments: (p, q) per edge spanning three ranks or more.
        edge_paths: for each layered (non-loop) edge, the nodes its
            drawing runs through: ``[src, dst]``, ``[src, v, dst]`` or
            ``[src, p, q, dst]``.
        size: how many nodes there are; every number is below it.
    """

    def __init__(self, layers: List[Layer], edges: List[Edge],
                 segments: List[Edge], edge_paths: List[List[int]],
                 size: int) -> None:
        self.layers = layers
        self.edges = edges
        self.segments = segments
        self.edge_paths = edge_paths
        self.size = size


def insert_virtual_nodes(rank: Sequence[int],
                         layers: List[List[int]],
                         edges: Sequence[Edge]) -> SegmentedGraph:
    """Give each edge spanning two ranks a virtual node and each longer
    edge a p-vertex, a q-vertex and a segment.

    ``rank[i]`` is real node ``i``'s rank, so ``len(rank)`` is the
    first number past the real nodes.
    """
    dummies: List[List[int]] = [[] for _layer in layers]
    short: List[Edge] = []
    segments: List[Edge] = []
    edge_paths: List[List[int]] = []
    # the segments entering / leaving the containers at each rank
    enter: List[List[int]] = [[] for _layer in layers]
    leave: List[List[int]] = [[] for _layer in layers]
    size = len(rank)
    for src, dst in edges:
        r_src, r_dst = rank[src], rank[dst]
        span = r_dst - r_src
        if span == 1:
            short.append((src, dst))
            edge_paths.append([src, dst])
        elif span == 2:
            dummies[r_src + 1].append(size)
            short += [(src, size), (size, dst)]
            edge_paths.append([src, size, dst])
            size += 1
        else:
            p, q = size, size + 1
            size += 2
            dummies[r_src + 1].append(p)
            dummies[r_dst - 1].append(q)
            short += [(src, p), (q, dst)]
            segments.append((p, q))
            edge_paths.append([src, p, q, dst])
            if span > 3:
                enter[r_src + 2].append(p)
                leave[r_dst - 1].append(p)
    arranged: List[Layer] = []
    passing: List[int] = []  # sorted: the segments crossing this rank
    for index, layer in enumerate(layers):
        for segment in enter[index]:
            insort(passing, segment)
        for segment in leave[index]:
            del passing[bisect_left(passing, segment)]
        items: Layer = list(layer)
        cut = 0
        for node in dummies[index]:
            end = bisect_left(passing, node, cut)
            if end > cut:
                items.append(passing[cut:end])
                cut = end
            items.append(node)
        if cut < len(passing):
            items.append(passing[cut:])
        arranged.append(items)
    return SegmentedGraph(arranged, short, segments, edge_paths, size)


def arrange(layer: Layer, position: List[int], top_of: List[int],
            bottom_of: List[int]) -> Tuple[Shared, Shared]:
    """Number the positions of ``layer``, a container's segments
    counting one each, and return the segments it shares with the layer
    below (its containers and p-vertices) and the layer above (its
    containers and q-vertices).  ``top_of`` / ``bottom_of`` give per
    node the segment it is the p- / q-vertex of, or -1."""
    below: Shared = ([], [])
    above: Shared = ([], [])
    down_segments, down_positions = below
    up_segments, up_positions = above
    at = 0
    for item in layer:
        if item.__class__ is int:
            position[item] = at
            if top_of[item] >= 0:
                down_segments.append(item)
                down_positions.append(at)
            elif bottom_of[item] >= 0:
                up_segments.append(bottom_of[item])
                up_positions.append(at)
            at += 1
        else:
            end = at + len(item)
            down_segments += item
            down_positions += range(at, end)
            up_segments += item
            up_positions += range(at, end)
            at = end
    return below, above


def segments_left_of(shared: Shared, positions: Iterable[int]
                     ) -> Iterator[int]:
    """For each node position, how many of the ``shared`` segments lie
    left of it."""
    return map(bisect_left, repeat(shared[1]), positions)


class _Arrangement:
    """Layers being ordered, with what the sweeps and the crossing
    count read of them: each node's position, the edges of each gap,
    which gaps segments cross, and per layer the segments it shares with
    the layer below (``below``) and above (``above``).

    Of ``edges``, those whose ends lie more than one layer apart are the
    segments through containers.  A segment whose p- and q-vertex are in
    adjacent layers passes no container and is ordered as an edge: its
    q-vertex's one neighbour above is its p-vertex, and the reverse.
    """

    def __init__(self, layers: List[Layer], edges: Sequence[Edge],
                 size: int) -> None:
        self.layers = layers
        self.position = [0] * size
        layer_of = [0] * size
        for index, layer in enumerate(layers):
            for item in layer:
                if item.__class__ is int:
                    layer_of[item] = index
        #: per gap below a layer: the edges crossing it, sources and
        #: destinations apart
        self.gaps: List[Tuple[List[int], List[int]]] = \
            [([], []) for _layer in layers]
        segments = []
        for src, dst in edges:
            if layer_of[dst] - layer_of[src] == 1:
                sources, destinations = self.gaps[layer_of[src]]
                sources.append(src)
                destinations.append(dst)
            else:
                segments.append((src, dst))
        #: per node: the segment it is the p- / q-vertex of, or -1
        self.top_of = [-1] * size
        self.bottom_of = [-1] * size
        #: per layer: how many segments cross the gap below it
        self.crossed = [0] * len(layers)
        for p, q in segments:
            self.top_of[p] = p
            self.bottom_of[q] = p
            self.crossed[layer_of[p]] += 1
            self.crossed[layer_of[q]] -= 1
        for index in range(1, len(layers)):
            self.crossed[index] += self.crossed[index - 1]
        self.below: List[Shared] = []
        self.above: List[Shared] = []
        for layer in layers:
            below, above = arrange(layer, self.position, self.top_of,
                                   self.bottom_of)
            self.below.append(below)
            self.above.append(above)

    def crossings(self) -> int:
        """Crossings summed over the gaps: O(E log E) per gap.

        Two edges of a gap cross when their upper positions and their
        lower positions are strictly in opposite order.  Walking the
        edges sorted by (upper, lower), each one crosses the earlier
        ones whose lower end lies strictly to its right; a Fenwick tree
        over lower positions counts those.  The segments crossing the
        gap keep their order, so an edge (u, v) crosses as many of them
        as lie left of u above and not left of v below, or the other way
        round: the difference of the two counts.
        """
        total = 0
        at = self.position.__getitem__
        for gap, (sources, destinations) in enumerate(self.gaps):
            uppers = list(map(at, sources))
            lowers = list(map(at, destinations))
            if self.crossed[gap]:
                total += sum(map(abs, map(
                    sub, segments_left_of(self.below[gap], uppers),
                    segments_left_of(self.above[gap + 1], lowers))))
            ends = list(map(itemgetter(1), sorted(zip(uppers, lowers))))
            if ends == sorted(ends):
                continue
            size = max(ends) + 1
            tree = [0] * (size + 1)
            for walked, low in enumerate(ends):
                at_or_left = 0
                index = low + 1
                while index:
                    at_or_left += tree[index]
                    index &= index - 1
                total += walked - at_or_left
                index = low + 1
                while index <= size:
                    tree[index] += 1
                    index += index & -index
        return total

    def sweep(self, downward: bool, neighbours: List[List[int]],
              barycenter: List[float]) -> None:
        """One barycenter sweep, down or up: each layer in turn is
        rearranged beside the one placed before it.  A node is sorted by
        the mean position of its ``neighbours`` there; a node without
        any keeps its own."""
        layers, position, crossed = self.layers, self.position, self.crossed
        at = position.__getitem__
        top_of, bottom_of = self.top_of, self.bottom_of
        if downward:
            indices = range(1, len(layers))
            shared, land, step = self.below, bottom_of, -1
        else:
            indices = range(len(layers) - 2, -1, -1)
            shared, land, step = self.above, top_of, 1
        for index in indices:
            free = layers[index]
            if not crossed[min(index, index + step)]:
                # nothing crosses the gap, so ``free`` holds no container
                # and no node that ends a segment crossing it
                for pos, node in enumerate(free):
                    adjacent = neighbours[node]
                    barycenter[node] = (
                        sum(map(at, adjacent)) / len(adjacent)
                        if adjacent else float(pos)
                    )
                items = sorted(free, key=barycenter.__getitem__)
                layers[index] = items
                # a layer no segment reaches needs only its positions
                if crossed[index] or index and crossed[index - 1]:
                    self.below[index], self.above[index] = arrange(
                        items, position, top_of, bottom_of)
                else:
                    for pos, node in enumerate(items):
                        position[node] = pos
                continue
            # The segments crossing the gap keep their order.  A node
            # that ends one of them takes its place; every other node
            # goes, in barycenter order, after the segments at or left
            # of its barycenter.
            segments, places = shared[index + step]
            measured = []
            landing = []
            for item in free:
                if item.__class__ is int:
                    if land[item] >= 0:
                        landing.append(item)
                        continue
                    adjacent = neighbours[item]
                    barycenter[item] = (
                        sum(map(at, adjacent)) / len(adjacent)
                        if adjacent else float(position[item])
                    )
                    measured.append(item)
            measured.sort(key=barycenter.__getitem__)
            # (how many segments lie at or left of its barycenter, node)
            placed = list(zip(map(bisect_right, repeat(places),
                                  map(barycenter.__getitem__, measured)),
                              measured))
            if landing:
                index_of = dict(zip(segments, range(len(segments))))
                # a node ending segment k has k segments before it and
                # goes after the nodes placed before segment k
                placed = sorted(placed + [(index_of[land[node]] + 0.5, node)
                                          for node in landing],
                                key=itemgetter(0))
            items = []
            cut = 0
            for slot, node in placed:
                end = int(slot)
                if end > cut:
                    items.append(segments[cut:end])
                    cut = end
                items.append(node)
                if end != slot:
                    cut += 1  # the segment this node ends
            if cut < len(segments):
                items.append(segments[cut:])
            layers[index] = items
            self.below[index], self.above[index] = arrange(
                items, position, top_of, bottom_of)


def count_crossings(layers: List[Layer], edges: Sequence[Edge]) -> int:
    """Total number of pairwise edge crossings between adjacent layers.

    ``layers`` may hold containers; an edge whose ends lie more than one
    layer apart is a segment (p, q) passing through containers between.
    The nodes of ``layers`` are numbered ``0 .. count - 1``.
    """
    size = sum(1 for layer in layers for item in layer
               if item.__class__ is int)
    return _Arrangement(layers, edges, size).crossings()


def minimize_crossings(segmented: SegmentedGraph,
                       max_sweeps: int = 8) -> List[Layer]:
    """Alternating barycenter sweeps; returns the improved layers."""
    size = segmented.size
    arrangement = _Arrangement(list(segmented.layers),
                               segmented.edges + segmented.segments, size)
    layers = arrangement.layers
    best_crossings = arrangement.crossings()
    if best_crossings == 0:
        return layers  # a sweep is only kept if it has fewer
    best = list(layers)
    down: List[List[int]] = [[] for _node in range(size)]
    up: List[List[int]] = [[] for _node in range(size)]
    for sources, destinations in arrangement.gaps:
        for src, dst in zip(sources, destinations):
            down[src].append(dst)
            up[dst].append(src)
    barycenter = [0.0] * size

    for sweep_index in range(max_sweeps):
        if sweep_index % 2 == 0:
            arrangement.sweep(True, up, barycenter)
        else:
            arrangement.sweep(False, down, barycenter)
        crossings = arrangement.crossings()
        if crossings < best_crossings:
            best_crossings = crossings
            best = list(layers)
        if crossings == 0:
            break
    return best
