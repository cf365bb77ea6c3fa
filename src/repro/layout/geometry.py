"""Geometric primitives and the layout result model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass
class Layout:
    """The result of laying out a graph, as columns: node ``k`` is
    ``node_ids[k]``, a ``widths[k]`` x ``heights[k]`` box centred at
    ``(xs[k], ys[k])`` in rank ``ranks[k]`` holding ``labels[k]``; edge
    ``k`` runs from ``srcs[k]`` to ``dsts[k]`` along ``polylines[k]``,
    ``(x, y)`` points in layout coordinates (y grows downward, like
    SVG).  ``width`` and ``height`` hold every box and every point."""

    node_ids: List[str]
    xs: List[float]
    ys: List[float]
    widths: List[float]
    heights: List[float]
    labels: List[str]
    ranks: List[int]
    srcs: List[str]
    dsts: List[str]
    polylines: List[List[Tuple[float, float]]]
    width: float
    height: float

    @property
    def edges(self) -> List[Tuple[str, str]]:
        """Every edge's ``(src, dst)``, in drawing order."""
        return list(zip(self.srcs, self.dsts))


#: The label-box model, in layout units: a monospace label is
#: ``CHAR_WIDTH`` per character of its longest line and ``LINE_HEIGHT``
#: per line; its node's box pads that by ``PADDING`` on every side and
#: is at least ``MIN_WIDTH`` x ``MIN_HEIGHT``.  A text glyph measures
#: itself by the same model (repro.viz.glyph, repro.viz.vspace).
CHAR_WIDTH = 7.0
LINE_HEIGHT = 16.0
PADDING = 10.0
MIN_WIDTH = 40.0
MIN_HEIGHT = 30.0
#: The smallest horizontal gap between two boxes of a layer, and the
#: vertical gap between two layers.
H_GAP = 30.0
V_GAP = 40.0


def text_size(text: str) -> Tuple[float, float]:
    """Width and height of a label's text: its longest line times
    ``CHAR_WIDTH``, its line count times ``LINE_HEIGHT``."""
    if text.isprintable():  # no line break is printable: one line
        return len(text) * CHAR_WIDTH, LINE_HEIGHT
    lines = text.splitlines() or [""]
    return max(map(len, lines)) * CHAR_WIDTH, len(lines) * LINE_HEIGHT


def node_size_for_label(label: str) -> Tuple[float, float]:
    """A node's box size for its label text (monospace model)."""
    width, height = text_size(label)
    return (max(width + 2 * PADDING, MIN_WIDTH),
            max(height + 2 * PADDING, MIN_HEIGHT))
