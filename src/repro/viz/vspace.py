"""The virtual space: the canvas on which graphs are drawn (paper §3.1).

"Other important objects are a virtual space, which represents a canvas
on which graphs are drawn and a camera object, which shows different
views at different zoom levels, in a virtual space."
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import VizError
from repro.layout.geometry import CHAR_WIDTH, LINE_HEIGHT, Layout, text_size
from repro.viz.glyph import EdgeGlyph, Glyph, RectangleGlyph, TextGlyph


class VirtualSpace:
    """An ordered collection of glyphs with id-based access."""

    def __init__(self) -> None:
        self._glyphs: Dict[str, Glyph] = {}

    def add(self, glyph: Glyph) -> Glyph:
        """Add a glyph; ids must be unique."""
        if glyph.glyph_id in self._glyphs:
            raise VizError(f"duplicate glyph id {glyph.glyph_id!r}")
        self._glyphs[glyph.glyph_id] = glyph
        return glyph

    def remove(self, glyph_id: str) -> None:
        """Remove a glyph; raises when absent."""
        if glyph_id not in self._glyphs:
            raise VizError(f"no glyph {glyph_id!r}")
        del self._glyphs[glyph_id]

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

    def bounds(self):
        """Bounding box of all visible glyphs (left, top, right, bottom):
        the union of their ``bounds()``, with the three glyph kinds'
        arithmetic written out in one pass."""
        lefts: List[float] = []
        tops: List[float] = []
        rights: List[float] = []
        bottoms: List[float] = []
        half_char, half_line = CHAR_WIDTH / 2, LINE_HEIGHT / 2
        for glyph in self._glyphs.values():
            if not glyph.visible:
                continue
            if isinstance(glyph, EdgeGlyph):
                if glyph.points:
                    xs, ys = zip(*glyph.points)
                    lefts += xs
                    rights += xs
                    tops += ys
                    bottoms += ys
                    continue
            elif isinstance(glyph, RectangleGlyph):
                x, y = glyph.x, glyph.y
                half_width, half_height = glyph.width / 2, glyph.height / 2
                lefts.append(x - half_width)
                rights.append(x + half_width)
                tops.append(y - half_height)
                bottoms.append(y + half_height)
                continue
            elif isinstance(glyph, TextGlyph):
                x, y, text = glyph.x, glyph.y, glyph.text
                # text_size's one-line case, inlined: every save_svg
                # and fit_all measures every node's text here
                if text.isprintable():
                    half_width = max(len(text) * half_char, 1.0)
                    half_height = half_line
                else:
                    width, height = text_size(text)
                    half_width, half_height = max(width / 2, 1.0), height / 2
                lefts.append(x - half_width)
                rights.append(x + half_width)
                tops.append(y - half_height)
                bottoms.append(y + half_height)
                continue
            left, top, right, bottom = glyph.bounds()
            lefts.append(left)
            rights.append(right)
            tops.append(top)
            bottoms.append(bottom)
        if not lefts:  # nothing visible
            return (0.0, 0.0, 0.0, 0.0)
        left, right = min(lefts), max(rights)
        if left > right:  # only boxes of negative width: taken as empty
            return (0.0, 0.0, 0.0, 0.0)
        return (left, min(tops), right, max(bottoms))


def build_virtual_space(layout: Layout) -> VirtualSpace:
    """Build the glyph scene for a laid-out plan.

    Exactly as the paper describes for ZGrviewer: one shape glyph and one
    text glyph per node, one edge glyph per edge.  A layout's node ids
    are unique, so the glyph ids go straight into the space's index.
    """
    space = VirtualSpace()
    glyphs = space._glyphs
    for edge_index, edge in enumerate(layout.edges):
        glyph_id = f"edge:{edge_index}"
        glyphs[glyph_id] = EdgeGlyph(glyph_id, points=edge.points,
                                     src=edge.src, dst=edge.dst)
    for node in layout.nodes.values():
        node_id = node.node_id
        glyph_id = f"shape:{node_id}"
        glyphs[glyph_id] = RectangleGlyph(
            glyph_id, x=node.x, y=node.y, width=node.width,
            height=node.height, owner=node_id)
        glyph_id = f"text:{node_id}"
        glyphs[glyph_id] = TextGlyph(glyph_id, x=node.x, y=node.y,
                                     text=node.label, owner=node_id)
    return space
