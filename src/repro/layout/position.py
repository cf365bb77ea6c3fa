"""Coordinate assignment: x positions within each layer, y per rank.

The x positions follow Brandes & Köpf ("Fast and Simple Horizontal
Coordinate Assignment", GD 2001), run on the segmented layers of
:mod:`repro.layout.ordering`:

1. mark the edges that cross a segment (type-1 conflicts): they are
   never aligned, so segments stay straight;
2. four vertical alignments (towards the upper or the lower neighbours,
   from the left or from the right): each node joins the block of a
   median neighbour unless that would cross an earlier alignment or a
   conflict.  A segment's p- and q-vertex are always one block, so a
   long edge is drawn with one vertical run;
3. block compaction per alignment: each block as far towards its side
   as the blocks before it in every layer allow;
4. the four results aligned to the narrowest and balanced: each node
   takes the mean of its two median x values.

Every pass is linear in the nodes, edges and containers of the layers;
a container's segments are read only at its ends.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import add, itemgetter, sub
from typing import Dict, List, Sequence, Set, Tuple

from repro.layout.geometry import H_GAP, V_GAP
from repro.layout.ordering import (
    Edge,
    Layer,
    Shared,
    arrange,
    segments_left_of,
)


def assign_coordinates(
    layers: List[Layer],
    widths: Sequence[float],
    heights: Sequence[float],
    edges: Sequence[Edge],
    segments: Sequence[Edge],
) -> Tuple[List[float], List[float]]:
    """Compute centre coordinates for every node of the segmented
    layers; nodes are numbered ``0 .. len(widths) - 1``, ``edges`` join
    adjacent layers and ``segments`` are the (p, q) pairs.

    Returns:
        (xs, ys): centre x and y, indexed by node number.
    """
    size = len(widths)
    half = [width / 2 for width in widths]
    up: List[List[int]] = [[] for _node in range(size)]
    down: List[List[int]] = [[] for _node in range(size)]
    for src, dst in edges:
        down[src].append(dst)
        up[dst].append(src)
    top_of = [-1] * size
    bottom_of = [-1] * size
    partner = [-1] * size
    for p, q in segments:
        top_of[p] = bottom_of[q] = p
        partner[p], partner[q] = q, p
    position = [0] * size
    # per layer: the segments it shares with the layer below / above
    below: List[Shared] = []
    above: List[Shared] = []
    for layer in layers:
        shared_below, shared_above = arrange(layer, position, top_of,
                                             bottom_of)
        below.append(shared_below)
        above.append(shared_above)
    at = position.__getitem__
    for adjacent in up + down:
        if len(adjacent) > 1:
            adjacent.sort(key=at)

    conflicts = _conflicts(layers, up, position, below, above)
    lefts, rights, gaps = _separations(layers, half, top_of,
                                       bottom_of)
    results = []
    for order, shared, neighbours, land in (
            (layers, below, up, bottom_of),
            (layers[::-1], above[::-1], down, top_of)):
        for rightward in (False, True):
            root = _align(order, shared, neighbours, land, partner,
                          position, conflicts, rightward)
            if rightward:
                # mirrored: compact leftwards, then turn x round
                block_x = _compact(root, rights, lefts, gaps)
                results.append([-block_x[block] for block in root])
            else:
                block_x = _compact(root, lefts, rights, gaps)
                results.append(list(map(block_x.__getitem__, root)))

    # align the four to the narrowest, then take each node's two median
    # x values; every layout keeps the gaps, so their medians do too
    leftmost = [min(map(sub, xs, half)) for xs in results]
    rightmost = [max(map(add, xs, half)) for xs in results]
    narrowest = min(range(4), key=lambda k: rightmost[k] - leftmost[k])
    shifts = [leftmost[narrowest] - leftmost[k] if k % 2 == 0
              else rightmost[narrowest] - rightmost[k] for k in range(4)]
    shifted = [[x + shift for x in xs] if shift else xs
               for xs, shift in zip(results, shifts)]
    xs = [(a + b + c + d - max(a, b, c, d) - min(a, b, c, d)) / 2
          for a, b, c, d in zip(*shifted)]
    min_left = min(map(sub, xs, half))
    xs = [x - min_left for x in xs]

    ys = [0.0] * size
    cursor_y = 0.0
    for layer in layers:
        nodes = [item for item in layer if item.__class__ is int]
        layer_height = max(map(heights.__getitem__, nodes), default=1.0)
        centre = cursor_y + layer_height / 2
        for node in nodes:
            ys[node] = centre
        cursor_y += layer_height + V_GAP
    return xs, ys


def _conflicts(layers: List[Layer], up: List[List[int]],
               position: List[int], below: List[Shared],
               above: List[Shared]) -> Set[Edge]:
    """The edges that cross a segment, both ways round.

    Segments keep their order across a gap, so an edge (u, v) crosses
    one exactly when the segments left of u above are not the segments
    left of v below; counting them is a bisection over their positions.
    """
    conflicts: Set[Edge] = set()
    at = position.__getitem__
    for index, lower in enumerate(layers[1:]):
        if not below[index][0]:
            continue
        edges = [(upper, node) for node in lower if node.__class__ is int
                 for upper in up[node]]
        uppers = [upper for upper, _node in edges]
        lowers = [node for _upper, node in edges]
        for edge, left_above, left_below in zip(
                edges, segments_left_of(below[index], map(at, uppers)),
                segments_left_of(above[index + 1], map(at, lowers))):
            if left_above != left_below:
                conflicts.add(edge)
                conflicts.add(edge[::-1])
    return conflicts


def _separations(layers: List[Layer], half: List[float],
                 top_of: List[int], bottom_of: List[int]
                 ) -> Tuple[List[int], List[int], List[float]]:
    """Node pairs that share a layer, as parallel lists of the left
    node, the right node and the least distance between their centres,
    sorted by that distance: enough pairs that keeping all of them
    keeps every layer apart.

    A segment stands for itself by its p-vertex.  Besides neighbours at
    item boundaries, each segment end or container edge is paired with
    the last segment before it that goes on to the next layer: two
    segments next to each other inside a container were paired so in
    the topmost layer where nothing separates them, so the inside of a
    container is never read.
    """
    lefts: List[int] = []
    rights: List[int] = []
    for layer in layers:
        previous = going = -1
        for item in layer:
            if item.__class__ is int:
                first = last = item
                if going >= 0 and going != previous and (
                        top_of[item] >= 0 or bottom_of[item] >= 0):
                    lefts.append(going)
                    rights.append(item)
                if top_of[item] >= 0:
                    going = item
            else:
                first, last = item[0], item[-1]
                if going >= 0 and going != previous:
                    lefts.append(going)
                    rights.append(first)
                going = last
            if previous >= 0:
                lefts.append(previous)
                rights.append(first)
            previous = last
    gaps = [left + H_GAP + right for left, right in
            zip(map(half.__getitem__, lefts), map(half.__getitem__, rights))]
    order = sorted(range(len(gaps)), key=gaps.__getitem__)
    return ([lefts[pair] for pair in order], [rights[pair] for pair in order],
            [gaps[pair] for pair in order])


def _align(order: List[Layer], shared: List[Shared],
           neighbours: List[List[int]], land: List[int],
           partner: List[int], position: List[int], conflicts: Set[Edge],
           rightward: bool) -> List[int]:
    """One vertical alignment: each node's block root.

    ``order`` lists the layers in the direction of the alignment,
    ``shared[k]`` the segments ``order[k]`` shares with the next one,
    and ``neighbours`` gives each node's neighbours in the layer before
    it, sorted by position; ``land`` names the segment a node ends in
    that direction.
    """
    root = list(range(len(position)))
    if rightward:
        key_of = [-pos for pos in position]
        first, second = 1, 0  # try the right median first
    else:
        key_of = position
        first, second = 0, 1
    for previous, layer in enumerate(order[1:]):
        segments, places = shared[previous]
        if segments:
            # a segment crossing the gap is a bound for every alignment
            # after it: per item, the key of its last segment in the
            # direction of the alignment, or None for a node to align
            bound: List[object] = []
            index = 0
            for item in layer:
                if item.__class__ is int:
                    if land[item] < 0:
                        bound.append(None)
                        continue
                    root[item] = root[partner[item]]
                    last = index
                    index += 1
                else:
                    last = index if rightward else index + len(item) - 1
                    index += len(item)
                bound.append(-places[last] if rightward else places[last])
            items = zip(reversed(layer), reversed(bound)) if rightward \
                else zip(layer, bound)
        else:
            items = zip(reversed(layer) if rightward else layer,
                        repeat(None))
        reach = float("-inf")
        for node, limit in items:
            if limit is not None:
                reach = limit
                continue
            adjacent = neighbours[node]
            count = len(adjacent)
            if not count:
                continue
            medians = ((count - 1) >> 1, count >> 1)
            for median in (medians[first], medians[second]):
                u = adjacent[median]
                key = key_of[u]
                if reach < key and (not segments
                                    or (u, node) not in conflicts):
                    root[node] = root[u]
                    reach = key
                    break
    return root


def _compact(root: List[int], lefts: List[int], rights: List[int],
             gaps: List[float]) -> List[float]:
    """Block x coordinates, indexed by root: each block as far left as
    the blocks left of its members allow, taking blocks in topological
    order.  ``lefts[k]`` stays at least ``gaps[k]`` left of
    ``rights[k]``; the pairs come sorted by gap, so the last pair of two
    blocks is the widest, and each pair of blocks is relaxed once.
    ``x + max(gaps)`` is ``max(x + gap)`` to the bit, as rounding is
    monotone, and a block's x is a maximum over the blocks left of it,
    whatever order they come in."""
    widest = dict(zip(zip(map(root.__getitem__, lefts),
                          map(root.__getitem__, rights)), gaps))
    after: Dict[int, List[Tuple[int, float]]] = {}
    for (block, successor), gap in widest.items():
        if block in after:
            after[block].append((successor, gap))
        else:
            after[block] = [(successor, gap)]
    incoming = Counter(map(itemgetter(1), widest))
    x = [0.0] * len(root)
    ready = [block for block in after if block not in incoming]
    while ready:
        block = ready.pop()
        base = x[block]
        for successor, gap in after.get(block, ()):
            if x[successor] < base + gap:
                x[successor] = base + gap
            incoming[successor] -= 1
            if not incoming[successor]:
                ready.append(successor)
    return x
