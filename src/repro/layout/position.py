"""Coordinate assignment: x positions within each layer, y per rank.

Nodes are first packed left-to-right with their real widths, then nudged
toward the mean x of their neighbours for a few iterations (a light
version of the priority method) while never re-introducing overlaps.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def assign_coordinates(
    layers: List[List[str]],
    widths: Dict[str, float],
    heights: Dict[str, float],
    segments: Sequence[Tuple[str, str]],
    h_gap: float = 30.0,
    v_gap: float = 40.0,
    iterations: int = 4,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Compute centre coordinates for every (virtual) node.

    Returns:
        (xs, ys): centre x and y per node id.
    """
    nodes = [node for layer in layers for node in layer]
    slot = {node: index for index, node in enumerate(nodes)}
    size = [widths.get(node, 1.0) for node in nodes]
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
    spans: List[Tuple[int, int, List[float], List[List[int]]]] = []
    first = 0
    for layer in layers:
        end = first + len(layer)
        cursor = 0.0
        for index in range(first, end):
            xs[index] = cursor + half[index]
            cursor += size[index] + h_gap
        spans.append((first, end, gaps[first:end], neighbours[first:end]))
        first = end

    x_at = xs.__getitem__
    for _round in range(iterations):
        for first, end, layer_gaps, layer_neighbours in spans:
            desired = [
                sum(map(x_at, adjacent)) / len(adjacent) if adjacent else x
                for adjacent, x in zip(layer_neighbours, xs[first:end])
            ]
            xs[first:end] = _resolve_overlaps(desired, layer_gaps)

    # normalise to start at 0
    min_left = min((x - h for x, h in zip(xs, half)), default=0.0)
    centre_x = {node: x - min_left for node, x in zip(nodes, xs)}

    ys: Dict[str, float] = {}
    cursor_y = 0.0
    for layer in layers:
        layer_height = max((heights.get(n, 1.0) for n in layer), default=1.0)
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
