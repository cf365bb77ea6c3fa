"""SVG → layout/graph parsing (the second stage of the paper's workflow).

Parses the SVG dialect produced by :mod:`repro.svg.writer` using the
standard-library XML parser, recovering node boxes (with labels), edge
polylines and the graph structure they encode.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from typing import List, Set, Tuple

from repro.errors import SvgError
from repro.dot.graph import Digraph
from repro.layout.geometry import Layout

_SVG_NS = "{http://www.w3.org/2000/svg}"


def parse_svg(text: str) -> Layout:
    """Parse SVG text into a :class:`~repro.layout.geometry.Layout`,
    coordinates as written (the writer's margin included).  A drawing
    with no node groups (the painted display) yields its edges alone.

    Raises:
        SvgError: on XML errors, missing structural attributes, a
            number that is not finite or a repeated node id.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SvgError(f"bad SVG: {exc}") from None
    seen: Set[str] = set()
    node_ids: List[str] = []
    xs: List[float] = []
    ys: List[float] = []
    widths: List[float] = []
    heights: List[float] = []
    labels: List[str] = []
    for group in root.iter(f"{_SVG_NS}g"):
        if group.get("class") != "node":
            continue
        node_id = group.get("id")
        if not node_id:
            raise SvgError("node group without id")
        if node_id in seen:
            raise SvgError(f"node {node_id!r} drawn twice")
        seen.add(node_id)
        rect = group.find(f"{_SVG_NS}rect")
        if rect is None:
            raise SvgError(f"node {node_id!r} has no rect")
        x = _number(rect.get("x", "0"))
        y = _number(rect.get("y", "0"))
        width = _number(rect.get("width", "0"))
        height = _number(rect.get("height", "0"))
        text_el = group.find(f"{_SVG_NS}text")
        node_ids.append(node_id)
        xs.append(x + width / 2)
        ys.append(y + height / 2)
        widths.append(width)
        heights.append(height)
        labels.append((text_el.text or "") if text_el is not None else "")
    srcs: List[str] = []
    dsts: List[str] = []
    polylines: List[List[Tuple[float, float]]] = []
    for poly in root.iter(f"{_SVG_NS}polyline"):
        if poly.get("class") != "edge":
            continue
        src = poly.get("data-src")
        dst = poly.get("data-dst")
        if src is None or dst is None:
            raise SvgError("edge polyline without data-src/data-dst")
        srcs.append(src)
        dsts.append(dst)
        polylines.append(_parse_points(poly.get("points", "")))
    # a drawing does not record ranks
    return Layout(node_ids, xs, ys, widths, heights, labels,
                  [0] * len(node_ids), srcs, dsts, polylines,
                  _number(root.get("width", "0").rstrip("px")),
                  _number(root.get("height", "0").rstrip("px")))


def svg_to_graph(text: str) -> Digraph:
    """Rebuild the in-memory graph structure from a plan drawing.

    The Digraph's node attrs carry the recovered geometry (``x``, ``y``,
    ``width``, ``height``) next to the label, so navigation code can work
    from a parsed SVG exactly as from a fresh layout.
    """
    layout = parse_svg(text)
    graph = Digraph("from_svg")
    for node_id, x, y, width, height, label in zip(
            layout.node_ids, layout.xs, layout.ys, layout.widths,
            layout.heights, layout.labels):
        graph.add_node(node_id, {
            "label": label,
            "x": f"{x:.1f}",
            "y": f"{y:.1f}",
            "width": f"{width:.1f}",
            "height": f"{height:.1f}",
        })
    for src, dst in zip(layout.srcs, layout.dsts):
        graph.add_edge(src, dst)
    return graph


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SvgError(f"bad SVG number {text!r}")
    return value


def _parse_points(text: str) -> List[Tuple[float, float]]:
    flat = [_number(v) for v in text.replace(",", " ").split()]
    if len(flat) % 2 != 0:
        raise SvgError(f"odd point list {text!r}")
    return list(zip(flat[0::2], flat[1::2]))
