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


def node_size_for_label(label: str, char_width: float = 7.0,
                        line_height: float = 16.0,
                        padding: float = 10.0) -> Tuple[float, float]:
    """Estimate a node's box size from its label text (monospace model)."""
    lines = label.splitlines() or [""]
    longest = max(len(line) for line in lines)
    width = max(longest * char_width + 2 * padding, 40.0)
    height = max(len(lines) * line_height + 2 * padding, 30.0)
    return width, height
