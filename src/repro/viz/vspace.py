"""The virtual space: the canvas on which graphs are drawn (paper §3.1).

"Other important objects are a virtual space, which represents a canvas
on which graphs are drawn and a camera object, which shows different
views at different zoom levels, in a virtual space."
"""

from __future__ import annotations

from operator import add, sub
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import VizError
from repro.layout.geometry import Layout, text_size
from repro.viz.color import BLACK, WHITE
from repro.viz.glyph import (
    Bounds,
    EdgeGlyph,
    Glyph,
    RectangleGlyph,
    TextGlyph,
)


class VirtualSpace:
    """An ordered collection of glyphs with id-based access.

    A glyph's geometry and visibility are fixed once it is in the space
    (painting changes only colours): the space keeps its bounds and
    takes them again only after an :meth:`add` or a :meth:`remove`.
    """

    def __init__(self) -> None:
        self._glyphs: Dict[str, Glyph] = {}
        self._bounds: Optional[Bounds] = (0.0, 0.0, 0.0, 0.0)

    def add(self, glyph: Glyph) -> Glyph:
        """Add a glyph; ids must be unique."""
        if glyph.glyph_id in self._glyphs:
            raise VizError(f"duplicate glyph id {glyph.glyph_id!r}")
        self._glyphs[glyph.glyph_id] = glyph
        self._bounds = None
        return glyph

    def remove(self, glyph_id: str) -> None:
        """Remove a glyph; raises when absent."""
        if glyph_id not in self._glyphs:
            raise VizError(f"no glyph {glyph_id!r}")
        del self._glyphs[glyph_id]
        self._bounds = None

    def glyph(self, glyph_id: str) -> Glyph:
        try:
            return self._glyphs[glyph_id]
        except KeyError:
            raise VizError(f"no glyph {glyph_id!r}") from None

    def __iter__(self) -> Iterator[Glyph]:
        return iter(self._glyphs.values())

    def __len__(self) -> int:
        return len(self._glyphs)

    def __contains__(self, glyph_id: str) -> bool:
        return glyph_id in self._glyphs

    # ------------------------------------------------------------------
    # node-oriented accessors used by the Stethoscope
    # ------------------------------------------------------------------

    def shape_of(self, node_id: str) -> RectangleGlyph:
        """The shape glyph of a graph node."""
        glyph = self.glyph(f"shape:{node_id}")
        assert isinstance(glyph, RectangleGlyph)
        return glyph

    def text_of(self, node_id: str) -> TextGlyph:
        """The text glyph of a graph node."""
        glyph = self.glyph(f"text:{node_id}")
        assert isinstance(glyph, TextGlyph)
        return glyph

    def node_ids(self) -> List[str]:
        """Graph node ids present in the space (via their shape glyphs)."""
        return [
            g.owner for g in self._glyphs.values()
            if isinstance(g, RectangleGlyph) and g.owner
        ]

    def shape_at(self, x: float, y: float) -> Optional[RectangleGlyph]:
        """Topmost shape glyph containing the virtual-space point."""
        for glyph in self._glyphs.values():
            if isinstance(glyph, RectangleGlyph) and glyph.contains(x, y):
                return glyph
        return None

    def bounds(self) -> Bounds:
        """Bounding box of all visible glyphs (left, top, right, bottom):
        the union of their ``bounds()``."""
        if self._bounds is None:
            self._bounds = self._measure()
        return self._bounds

    def _measure(self) -> Bounds:
        """The union of the visible glyphs' ``bounds()``."""
        extents = [glyph.bounds() for glyph in self._glyphs.values()
                   if glyph.visible]
        if not extents:  # nothing visible
            return (0.0, 0.0, 0.0, 0.0)
        lefts, tops, rights, bottoms = zip(*extents)
        return _union(lefts, tops, rights, bottoms)


def _union(lefts: Sequence[float], tops: Sequence[float],
           rights: Sequence[float], bottoms: Sequence[float]) -> Bounds:
    """The box around the given extents; (0, 0, 0, 0) when there are
    none or only boxes of negative width."""
    if not lefts:
        return (0.0, 0.0, 0.0, 0.0)
    left, right = min(lefts), max(rights)
    if left > right:  # only boxes of negative width: taken as empty
        return (0.0, 0.0, 0.0, 0.0)
    return (left, min(tops), right, max(bottoms))


def build_virtual_space(layout: Layout) -> VirtualSpace:
    """Build the glyph scene for a laid-out plan.

    Exactly as the paper describes for ZGrviewer: one shape glyph and one
    text glyph per node, one edge glyph per edge, made straight from the
    layout's columns.  A layout's node ids are unique, so the glyph ids
    go straight into the space's index.  The space's bounds are taken
    from the same columns, with the glyphs' own arithmetic.
    """
    space = VirtualSpace()
    glyphs = space._glyphs
    # every field given in order: a glyph is built without parsing
    # keywords, 3 000 times for a 1 000-node plan
    for edge_index, (points, src, dst) in enumerate(
            zip(layout.polylines, layout.srcs, layout.dsts)):
        glyph_id = f"edge:{edge_index}"
        glyphs[glyph_id] = EdgeGlyph(glyph_id, True, points, BLACK, src, dst)
    xs, ys = layout.xs, layout.ys
    for node_id, x, y, width, height, label in zip(
            layout.node_ids, xs, ys, layout.widths, layout.heights,
            layout.labels):
        glyph_id = f"shape:{node_id}"
        glyphs[glyph_id] = RectangleGlyph(glyph_id, True, x, y, width,
                                          height, WHITE, BLACK, node_id)
        glyph_id = f"text:{node_id}"
        glyphs[glyph_id] = TextGlyph(glyph_id, True, x, y, label, BLACK,
                                     node_id)

    # every polyline point, then every box and every text, measured as
    # the glyphs' own bounds() measure them
    points = [point for polyline in layout.polylines for point in polyline]
    lefts = [x for x, _y in points]
    tops = [y for _x, y in points]
    rights, bottoms = lefts[:], tops[:]
    text_sizes = list(map(text_size, layout.labels))
    for half_widths, half_heights in (
            ([width / 2 for width in layout.widths],
             [height / 2 for height in layout.heights]),
            ([max(width / 2, 1.0) for width, _height in text_sizes],
             [height / 2 for _width, height in text_sizes])):
        lefts += map(sub, xs, half_widths)
        rights += map(add, xs, half_widths)
        tops += map(sub, ys, half_heights)
        bottoms += map(add, ys, half_heights)
    space._bounds = _union(lefts, tops, rights, bottoms)
    return space
