"""Geometric primitives and the layout result model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple


class Point(NamedTuple):
    """A 2D point in layout coordinates (y grows downward, like SVG);
    an ``(x, y)`` tuple, so a polyline is usable as a coordinate list
    as it stands."""

    x: float
    y: float

    def translated(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)


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
    """A laid-out edge: a polyline from source box to target box."""

    src: str
    dst: str
    points: List[Point] = field(default_factory=list)


@dataclass
class Layout:
    """The result of laying out a graph."""

    nodes: Dict[str, LayoutNode]
    edges: List[LayoutEdge]
    width: float
    height: float

    def node_at(self, x: float, y: float) -> Optional[LayoutNode]:
        """The topmost node whose box contains (x, y), if any."""
        for node in self.nodes.values():
            if node.contains(x, y):
                return node
        return None

    def bounds_of(self, node_ids) -> Tuple[float, float, float, float]:
        """Bounding box (left, top, right, bottom) of a set of nodes."""
        chosen = [self.nodes[n] for n in node_ids if n in self.nodes]
        if not chosen:
            return (0.0, 0.0, 0.0, 0.0)
        return (
            min(n.left for n in chosen),
            min(n.top for n in chosen),
            max(n.right for n in chosen),
            max(n.bottom for n in chosen),
        )


def node_size_for_label(label: str, char_width: float = 7.0,
                        line_height: float = 16.0,
                        padding: float = 10.0) -> Tuple[float, float]:
    """Estimate a node's box size from its label text (monospace model)."""
    lines = label.splitlines() or [""]
    longest = max(len(line) for line in lines)
    width = max(longest * char_width + 2 * padding, 40.0)
    height = max(len(lines) * line_height + 2 * padding, 30.0)
    return width, height
