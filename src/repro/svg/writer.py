"""Layout/scene → SVG text.

Every node renders as a ``<g class="node" id="...">`` holding a ``rect``
and a ``text``; every edge as a ``<polyline class="edge">`` carrying
``data-src``/``data-dst`` attributes, so the parser (and a browser's DOM)
can rebuild the graph structure from the drawing alone.
"""

from __future__ import annotations

import re
from typing import Dict, Optional
from xml.sax.saxutils import escape, quoteattr

from repro.layout.geometry import Layout
from repro.svg.model import SvgEdge, SvgNode, SvgScene

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


def layout_to_svg(layout: Layout,
                  fills: Optional[Dict[str, str]] = None,
                  margin: float = 10.0) -> str:
    """Render a layout as SVG; ``fills`` overrides per-node fill colours
    (the colour-coded execution states)."""
    scene = layout_to_scene(layout, fills)
    return scene_to_svg(scene, margin)


def layout_to_scene(layout: Layout,
                    fills: Optional[Dict[str, str]] = None) -> SvgScene:
    """Convert a layout to the typed scene model."""
    fills = fills or {}
    scene = SvgScene(width=layout.width, height=layout.height)
    for node in layout.nodes.values():
        scene.add_node(SvgNode(
            node_id=node.node_id, x=node.x, y=node.y,
            width=node.width, height=node.height, label=node.label,
            fill=fills.get(node.node_id, "white"),
        ))
    for edge in layout.edges:
        scene.add_edge(SvgEdge(
            src=edge.src, dst=edge.dst,
            points=edge.points,
        ))
    return scene


def scene_to_svg(scene: SvgScene, margin: float = 10.0) -> str:
    """Serialise a scene as standalone SVG text."""
    width = scene.width + 2 * margin
    height = scene.height + 2 * margin
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width:.1f}" height="{height:.1f}" '
        f'viewBox="0 0 {width:.1f} {height:.1f}">',
    ]
    for edge in scene.edges:
        points = " ".join(
            f"{x + margin:.1f},{y + margin:.1f}" for x, y in edge.points
        )
        parts.append(
            f'  <polyline class="edge" data-src={xml_attr(edge.src)} '
            f'data-dst={xml_attr(edge.dst)} points="{points}" '
            f'fill="none" stroke="{edge.stroke}"/>'
        )
    for node in scene.nodes.values():
        left = node.left + margin
        top = node.top + margin
        parts.append(f'  <g class="node" id={xml_attr(node.node_id)}>')
        parts.append(
            f'    <rect x="{left:.1f}" y="{top:.1f}" '
            f'width="{node.width:.1f}" height="{node.height:.1f}" '
            f'fill="{node.fill}" stroke="{node.stroke}"/>'
        )
        parts.append(
            f'    <text x="{node.x + margin:.1f}" y="{node.y + margin:.1f}" '
            f'text-anchor="middle" dominant-baseline="middle" '
            f'font-family="monospace" font-size="11">'
            f"{xml_text(node.label)}</text>"
        )
        parts.append("  </g>")
    parts.append("</svg>")
    return "\n".join(parts)
