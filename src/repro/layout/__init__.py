"""Hierarchical graph layout (the GraphViz ``dot`` substitute).

The Stethoscope workflow needs node/edge coordinates for its zoomable
canvas: "a dot file gets parsed and an intermediate scalar vector graphics
(svg) representation gets created" (paper §4).  GraphViz is not available
in this environment, so this package implements the classic Sugiyama
pipeline from scratch:

1. cycle removal (:mod:`repro.layout.acyclic`),
2. layer assignment (:mod:`repro.layout.rank`),
3. crossing minimisation, long edges carried as segments
   (:mod:`repro.layout.ordering`),
4. coordinate assignment (:mod:`repro.layout.position`) and edge routing,

orchestrated by :class:`repro.layout.engine.LayeredLayout`.  Layout
quality differs from GraphViz's, but the output contract is the same:
every node gets a box, every edge a polyline, and the drawing is
hierarchical (dependencies flow top-to-bottom).
"""

from repro.layout.engine import LayeredLayout, layout_graph
from repro.layout.geometry import Layout

__all__ = [
    "LayeredLayout",
    "Layout",
    "layout_graph",
]
