"""SVG intermediate representation.

The paper's workflow (§4): "As a first step the dot file gets parsed and
an intermediate scalar vector graphics (svg) representation gets created.
In the next step, the svg file gets parsed and an in memory graph
structure gets created."  This package provides both directions over one
model, :class:`~repro.layout.geometry.Layout`: a writer from a layout to
SVG text, and a parser that reads that SVG back into a layout or a graph.
"""

from repro.svg.parser import parse_svg, svg_to_graph
from repro.svg.writer import layout_to_svg

__all__ = [
    "layout_to_svg",
    "parse_svg",
    "svg_to_graph",
]
