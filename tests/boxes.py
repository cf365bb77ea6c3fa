"""A laid-out node or edge as one record, read off a ``Layout``'s
columns, for tests that assert per node or per edge."""

from typing import Dict, List, NamedTuple, Tuple


class Box(NamedTuple):
    node_id: str
    x: float
    y: float
    width: float
    height: float
    label: str
    rank: int

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
        return self.left <= x <= self.right and self.top <= y <= self.bottom


class Line(NamedTuple):
    src: str
    dst: str
    points: List[Tuple[float, float]]


def boxes(layout) -> Dict[str, Box]:
    """node id -> its box, in layout order."""
    return {row[0]: Box(*row) for row in zip(
        layout.node_ids, layout.xs, layout.ys, layout.widths,
        layout.heights, layout.labels, layout.ranks)}


def lines(layout) -> List[Line]:
    """Every edge with its polyline, in drawing order."""
    return [Line(*row) for row in zip(layout.srcs, layout.dsts,
                                      layout.polylines)]
