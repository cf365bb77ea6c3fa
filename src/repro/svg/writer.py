"""Layout → SVG text.

Every node renders as a ``<g class="node" id="...">`` holding a ``rect``
and a ``text``; every edge as a ``<polyline class="edge">`` carrying
``data-src``/``data-dst`` attributes, so the parser (and a browser's DOM)
can rebuild the graph structure from the drawing alone.
"""

from __future__ import annotations

import re
from xml.sax.saxutils import escape, quoteattr

from repro.layout.geometry import Layout

#: the border around the drawing, added to every coordinate written
MARGIN = 10.0

#: what XML 1.0's ``Char`` production leaves out; a file holding one of
#: these, escaped or not, is not well-formed and no parser opens it
_NOT_XML_CHAR = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
#: a character element content cannot hold as it is: one XML forbids,
#: markup (``&<>``) or a carriage return
_TEXT_NEEDS_WORK = re.compile(
    "[^\t\n\x20-\x25\x27-\x3b\x3d\x3f-\ud7ff\ue000-\ufffd"
    "\U00010000-\U0010ffff]")
#: the same for a double-quoted attribute value: also ``"``, a tab and
#: a newline, which ``quoteattr`` writes as references
_ATTR_NEEDS_WORK = re.compile(
    "[^\x20\x21\x23-\x25\x27-\x3b\x3d\x3f-\ud7ff\ue000-\ufffd"
    "\U00010000-\U0010ffff]")


def xml_text(value: str) -> str:
    """``value`` as element content: markup escaped, characters XML
    forbids (a MAL string literal can hold one) replaced by U+FFFD, a
    carriage return as ``&#13;`` (a parser reads a raw one as ``\\n``;
    ``quoteattr`` already writes it so)."""
    if _TEXT_NEEDS_WORK.search(value) is None:
        return value
    return escape(_NOT_XML_CHAR.sub("\ufffd", value), {"\r": "&#13;"})


def xml_attr(value: str) -> str:
    """``value`` as a quoted attribute value, the same way."""
    if _ATTR_NEEDS_WORK.search(value) is None:
        return f'"{value}"'
    return quoteattr(_NOT_XML_CHAR.sub("\ufffd", value))


def layout_to_svg(layout: Layout) -> str:
    """Serialise a layout as standalone SVG text."""
    width = layout.width + 2 * MARGIN
    height = layout.height + 2 * MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width:.1f}" height="{height:.1f}" '
        f'viewBox="0 0 {width:.1f} {height:.1f}">',
    ]
    for src, dst, polyline in zip(layout.srcs, layout.dsts,
                                  layout.polylines):
        points = " ".join(
            f"{x + MARGIN:.1f},{y + MARGIN:.1f}" for x, y in polyline
        )
        parts.append(
            f'  <polyline class="edge" data-src={xml_attr(src)} '
            f'data-dst={xml_attr(dst)} points="{points}" '
            f'fill="none" stroke="black"/>'
        )
    for node_id, x, y, box_width, box_height, label in zip(
            layout.node_ids, layout.xs, layout.ys, layout.widths,
            layout.heights, layout.labels):
        parts.append(f'  <g class="node" id={xml_attr(node_id)}>')
        parts.append(
            f'    <rect x="{x - box_width / 2 + MARGIN:.1f}" '
            f'y="{y - box_height / 2 + MARGIN:.1f}" '
            f'width="{box_width:.1f}" height="{box_height:.1f}" '
            f'fill="white" stroke="black"/>'
        )
        parts.append(
            f'    <text x="{x + MARGIN:.1f}" y="{y + MARGIN:.1f}" '
            f'text-anchor="middle" dominant-baseline="middle" '
            f'font-family="monospace" font-size="11">'
            f"{xml_text(label)}</text>"
        )
        parts.append("  </g>")
    parts.append("</svg>")
    return "\n".join(parts)
