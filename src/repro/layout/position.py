"""Coordinate assignment: x positions within each layer, y per rank.

Nodes are first packed left-to-right with their real widths, then nudged
toward the mean x of their neighbours for a few iterations (a light
version of the priority method) while never re-introducing overlaps.
"""

from __future__ import annotations

from operator import truediv
from typing import List, Sequence, Tuple


def assign_coordinates(
    layers: List[List[int]],
    widths: Sequence[float],
    heights: Sequence[float],
    segments: Sequence[Tuple[int, int]],
    h_gap: float = 30.0,
    v_gap: float = 40.0,
    iterations: int = 4,
) -> Tuple[List[float], List[float]]:
    """Compute centre coordinates for every (virtual) node; nodes are
    numbered ``0 .. len(widths) - 1``.

    Returns:
        (xs, ys): centre x and y, indexed by node number.
    """
    # a node's slot is its place in the layers laid end to end
    nodes = [node for layer in layers for node in layer]
    slot = [0] * len(nodes)
    for index, node in enumerate(nodes):
        slot[node] = index
    size = list(map(widths.__getitem__, nodes))
    half = [width / 2 for width in size]
    neighbours: List[List[int]] = [[] for _node in nodes]
    for src, dst in segments:
        neighbours[slot[src]].append(slot[dst])
        neighbours[slot[dst]].append(slot[src])

    # a layer owns the slots first .. end - 1; gaps[i] is the least
    # distance between the centres of slots i - 1 and i (never read for
    # a layer's first slot, whose left neighbour is another layer's)
    gaps = [0.0] + [left + h_gap + right
                    for left, right in zip(half, half[1:])]
    xs = [0.0] * len(nodes)
    # per layer: its slots' neighbours laid end to end, and per slot its
    # slice of them and their count.  A slot without neighbours stands
    # in for itself: (0.0 + x) / 1 is x for every x but -0.0, which no
    # packing, mean or overlap pass here produces.
    spans: List[Tuple[int, int, List[float], List[int], List[slice],
                      List[int]]] = []
    first = 0
    for layer in layers:
        end = first + len(layer)
        cursor = 0.0
        adjacent: List[int] = []
        parts: List[slice] = []
        counts: List[int] = []
        for index in range(first, end):
            xs[index] = cursor + half[index]
            cursor += size[index] + h_gap
            around = neighbours[index] or [index]
            parts.append(slice(len(adjacent), len(adjacent) + len(around)))
            adjacent += around
            counts.append(len(around))
        spans.append((first, end, gaps[first:end], adjacent, parts, counts))
        first = end

    x_at = xs.__getitem__
    for _round in range(iterations):
        for first, end, layer_gaps, adjacent, parts, counts in spans:
            # the mean x of each slot's neighbours, summed by ``sum`` in
            # segment order as always, so every mean is bit-equal
            around_x = list(map(x_at, adjacent))
            desired = list(map(truediv,
                               map(sum, map(around_x.__getitem__, parts)),
                               counts))
            xs[first:end] = _resolve_overlaps(desired, layer_gaps)

    # normalise to start at 0, back in node order
    min_left = min((x - h for x, h in zip(xs, half)), default=0.0)
    centre_x = [xs[index] - min_left for index in slot]

    ys = [0.0] * len(nodes)
    cursor_y = 0.0
    for layer in layers:
        layer_height = max(map(heights.__getitem__, layer), default=1.0)
        centre = cursor_y + layer_height / 2
        for node in layer:
            ys[node] = centre
        cursor_y += layer_height + v_gap
    return centre_x, ys


def _resolve_overlaps(desired: List[float],
                      gaps: List[float]) -> List[float]:
    """Place one layer's nodes as close to their desired x as possible,
    keeping their order and ``gaps[i]`` between the centres of i - 1
    and i (``gaps[0]`` is unused)."""
    count = len(desired)
    # forward: honour desired positions, never overlapping the left box
    pos = list(desired)
    for index in range(1, count):
        least = pos[index - 1] + gaps[index]
        if pos[index] < least:
            pos[index] = least
    # backward: pull boxes that drifted right back toward desired,
    # bounded by their right neighbour
    for index in range(count - 2, -1, -1):
        x, wanted = pos[index], desired[index]
        if x > wanted:
            limit = pos[index + 1] - gaps[index + 1]
            if limit < x:
                x = limit
            pos[index] = x if x > wanted else wanted
    # forward fix-up: the backward pass may have squeezed a left gap
    for index in range(1, count):
        least = pos[index - 1] + gaps[index]
        if pos[index] < least:
            pos[index] = least
    return pos
