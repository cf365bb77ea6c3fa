"""ZVTM/ZGrviewer-style visualization toolkit (headless).

The paper builds on ZGrviewer's zoomable interface: glyph objects for
every shape/text/edge, a *virtual space* canvas, *camera* objects showing
views at different zoom levels, lenses (fish-eye) and animations.  The
Java Event Dispatch Thread, whose queuing limits node-rendering to
roughly one recolour per 150 ms, is :mod:`repro.core.painter`.  This
package reproduces the rest with a headless renderer (ASCII for
terminals/tests, SVG for files) instead of a Swing window.
"""

from repro.viz.animation import Animation, Animator, ease_in_out
from repro.viz.camera import Camera
from repro.viz.color import Color, GREEN, RED, WHITE
from repro.viz.glyph import EdgeGlyph, Glyph, RectangleGlyph, TextGlyph
from repro.viz.lens import FisheyeLens
from repro.viz.minimap import Minimap
from repro.viz.raster import RasterImage, RasterRenderer, screenshot
from repro.viz.render import AsciiRenderer, SvgRenderer
from repro.viz.view import View
from repro.viz.vspace import VirtualSpace, build_virtual_space

__all__ = [
    "Animation",
    "Animator",
    "AsciiRenderer",
    "Camera",
    "Color",
    "EdgeGlyph",
    "FisheyeLens",
    "GREEN",
    "Glyph",
    "Minimap",
    "RED",
    "RasterImage",
    "RasterRenderer",
    "RectangleGlyph",
    "SvgRenderer",
    "TextGlyph",
    "View",
    "VirtualSpace",
    "WHITE",
    "build_virtual_space",
    "ease_in_out",
    "screenshot",
]
