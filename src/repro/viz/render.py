"""Headless renderers: glyph scenes to ASCII grids or SVG files.

The paper's tool paints into a Swing window; this reproduction renders
the same glyph/camera model into inspectable artifacts instead — an
ASCII grid for terminals and tests, SVG for files and reports.
"""

from __future__ import annotations

from typing import List, Optional

from repro.svg.writer import xml_attr, xml_text
from repro.viz.camera import Camera
from repro.viz.color import Color, WHITE
from repro.viz.glyph import EdgeGlyph, RectangleGlyph, TextGlyph
from repro.viz.lens import FisheyeLens
from repro.viz.vspace import VirtualSpace


class AsciiRenderer:
    """Rasterise the view into a character grid.

    Node boxes draw as ``#`` borders; coloured fills map to a letter
    (``R``ed / ``G``reen / ``.`` white-ish) so execution state is visible
    in plain text.  Useful for smoke tests and terminal demos.
    """

    def __init__(self, width: int = 100, height: int = 32) -> None:
        self.width = width
        self.height = height

    def render(self, space: VirtualSpace, camera: Camera,
               lens: Optional[FisheyeLens] = None,
               viewport_w: Optional[float] = None,
               viewport_h: Optional[float] = None) -> str:
        """Rasterise; ``viewport_w/h`` are the camera's pixel viewport
        (defaults to the grid size), scaled down to the char grid."""
        viewport_w = viewport_w if viewport_w is not None else float(self.width)
        viewport_h = viewport_h if viewport_h is not None else float(self.height)
        grid = [[" "] * self.width for _ in range(self.height)]

        def project(wx: float, wy: float):
            if lens is not None:
                wx, wy = lens.transform(wx, wy)
            sx, sy = camera.world_to_screen(wx, wy, viewport_w, viewport_h)
            return (
                int(round(sx * self.width / viewport_w)),
                int(round(sy * self.height / viewport_h)),
            )

        def plot(col: int, row: int, ch: str) -> None:
            if 0 <= col < self.width and 0 <= row < self.height:
                grid[row][col] = ch

        for glyph in space:
            if not glyph.visible:
                continue
            if isinstance(glyph, EdgeGlyph):
                for (x0, y0), (x1, y1) in zip(glyph.points, glyph.points[1:]):
                    c0, r0 = project(x0, y0)
                    c1, r1 = project(x1, y1)
                    _draw_line(plot, c0, r0, c1, r1, "|")
        boxes = {}
        for glyph in space:
            if not glyph.visible or not isinstance(glyph, RectangleGlyph):
                continue
            left, top, right, bottom = glyph.bounds()
            c0, r0 = project(left, top)
            c1, r1 = project(right, bottom)
            if glyph.owner:
                boxes[glyph.owner] = (min(c0, c1), min(r0, r1),
                                      max(c0, c1), max(r0, r1))
            fill_char = _fill_char(glyph.fill)
            for row in range(min(r0, r1), max(r0, r1) + 1):
                for col in range(min(c0, c1), max(c0, c1) + 1):
                    edge_row = row in (r0, r1)
                    edge_col = col in (c0, c1)
                    plot(col, row, "#" if edge_row or edge_col else fill_char)
        for glyph in space:
            if not glyph.visible or not isinstance(glyph, TextGlyph):
                continue
            col, row = project(glyph.x, glyph.y)
            start = col - len(glyph.text) // 2
            # clip a node label to the interior of its box, like ZVTM
            # hiding labels that do not fit at the current zoom level
            box = boxes.get(glyph.owner) if glyph.owner else None
            for offset, ch in enumerate(glyph.text):
                column = start + offset
                if box is not None:
                    left_col, top_row, right_col, bottom_row = box
                    if not (left_col < column < right_col
                            and top_row < row < bottom_row):
                        continue
                plot(column, row, ch)
        return "\n".join("".join(row).rstrip() for row in grid)


def _fill_char(color: Color) -> str:
    if color.r > 170 and color.g < 120:
        return "R"
    if color.g > 140 and color.r < 120:
        return "G"
    if (color.r, color.g, color.b) == (255, 255, 255):
        return " "
    return "."


def _draw_line(plot, c0: int, r0: int, c1: int, r1: int, ch: str) -> None:
    """Bresenham line over the plot callback."""
    dc = abs(c1 - c0)
    dr = -abs(r1 - r0)
    step_c = 1 if c1 >= c0 else -1
    step_r = 1 if r1 >= r0 else -1
    error = dc + dr
    col, row = c0, r0
    while True:
        plot(col, row, ch)
        if col == c1 and row == r1:
            return
        doubled = 2 * error
        if doubled >= dr:
            error += dr
            col += step_c
        if doubled <= dc:
            error += dc
            row += step_r


class SvgRenderer:
    """Serialise the current glyph state (colours included) as SVG."""

    def render(self, space: VirtualSpace) -> str:
        left, top, right, bottom = space.bounds()
        width = max(right - left, 1.0) + 20
        height = max(bottom - top, 1.0) + 20
        dx, dy = 10 - left, 10 - top
        # one pass over the glyphs; edges are drawn first, under the nodes
        edges: List[str] = []
        nodes: List[str] = []
        for glyph in space:
            if not glyph.visible:
                continue
            if isinstance(glyph, EdgeGlyph):
                points = " ".join([f"{x + dx:.1f},{y + dy:.1f}"
                                   for x, y in glyph.points])
                edges.append(
                    f'  <polyline class="edge" '
                    f'data-src={xml_attr(glyph.src or "")} '
                    f'data-dst={xml_attr(glyph.dst or "")} '
                    f'points="{points}" fill="none" '
                    f'stroke="{glyph.color.to_hex()}"/>'
                )
            elif isinstance(glyph, RectangleGlyph):
                nodes.append(
                    f'  <rect id={xml_attr(glyph.glyph_id)} '
                    f'x="{glyph.x - glyph.width / 2 + dx:.1f}" '
                    f'y="{glyph.y - glyph.height / 2 + dy:.1f}" '
                    f'width="{glyph.width:.1f}" height="{glyph.height:.1f}" '
                    f'fill="{glyph.fill.to_hex()}" '
                    f'stroke="{glyph.stroke.to_hex()}"/>'
                )
            elif isinstance(glyph, TextGlyph):
                nodes.append(
                    f'  <text x="{glyph.x + dx:.1f}" y="{glyph.y + dy:.1f}" '
                    f'text-anchor="middle" font-family="monospace" '
                    f'font-size="11">{xml_text(glyph.text)}</text>'
                )
        return "\n".join([
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
            f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">',
            *edges, *nodes, "</svg>"])
