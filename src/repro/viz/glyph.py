"""Glyphs: the fundamental graphical objects (paper §3.1).

"ZGrviewer uses a glyph object each, to represent the shape, text, and
edge" — a two-node graph with one edge therefore holds five glyphs: two
shapes, two texts, one edge.  :func:`repro.viz.vspace.build_virtual_space`
reproduces exactly that object structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.layout.geometry import text_size
from repro.viz.color import BLACK, Color, WHITE

Bounds = Tuple[float, float, float, float]  # left, top, right, bottom


@dataclass
class Glyph:
    """Base glyph: identity, visibility and paint state."""

    glyph_id: str
    visible: bool = True

    def bounds(self) -> Bounds:
        raise NotImplementedError


@dataclass
class RectangleGlyph(Glyph):
    """A node's box shape."""

    x: float = 0.0  # centre
    y: float = 0.0  # centre
    width: float = 1.0
    height: float = 1.0
    fill: Color = WHITE
    stroke: Color = BLACK
    #: id of the owning graph node (shape glyphs belong to nodes)
    owner: Optional[str] = None

    def bounds(self) -> Bounds:
        return (
            self.x - self.width / 2, self.y - self.height / 2,
            self.x + self.width / 2, self.y + self.height / 2,
        )

    def contains(self, x: float, y: float) -> bool:
        left, top, right, bottom = self.bounds()
        return left <= x <= right and top <= y <= bottom


@dataclass
class TextGlyph(Glyph):
    """A node's label text, measured by the label-box model
    (:func:`repro.layout.geometry.text_size`)."""

    x: float = 0.0
    y: float = 0.0
    text: str = ""
    color: Color = BLACK
    owner: Optional[str] = None

    def bounds(self) -> Bounds:
        width, height = text_size(self.text)
        half_width, half_height = max(width / 2, 1.0), height / 2
        return (self.x - half_width, self.y - half_height,
                self.x + half_width, self.y + half_height)


@dataclass
class EdgeGlyph(Glyph):
    """An edge's polyline."""

    points: List[Tuple[float, float]] = field(default_factory=list)
    color: Color = BLACK
    src: Optional[str] = None
    dst: Optional[str] = None

    def bounds(self) -> Bounds:
        if not self.points:
            return (0.0, 0.0, 0.0, 0.0)
        xs, ys = zip(*self.points)
        return (min(xs), min(ys), max(xs), max(ys))
