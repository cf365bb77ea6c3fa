"""Geometric primitives and the layout result model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class LayoutNode:
    """A laid-out node: centre position, box size, label, rank."""

    node_id: str
    x: float
    y: float
    width: float
    height: float
    label: str = ""
    rank: int = 0

    @property
    def left(self) -> float:
        return self.x - self.width / 2

    @property
    def right(self) -> float:
        return self.x + self.width / 2

    @property
    def top(self) -> float:
        return self.y - self.height / 2

    @property
    def bottom(self) -> float:
        return self.y + self.height / 2

    def contains(self, x: float, y: float) -> bool:
        """Point-in-box test (the Stethoscope's click hit-testing)."""
        return self.left <= x <= self.right and self.top <= y <= self.bottom


@dataclass
class LayoutEdge:
    """A laid-out edge: a polyline from source box to target box, as
    ``(x, y)`` points in layout coordinates (y grows downward, like
    SVG)."""

    src: str
    dst: str
    points: List[Tuple[float, float]] = field(default_factory=list)


@dataclass
class Layout:
    """The result of laying out a graph."""

    nodes: Dict[str, LayoutNode]
    edges: List[LayoutEdge]
    width: float
    height: float


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
