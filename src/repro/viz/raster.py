"""Raster rendering: true-colour screenshots of the plan display.

The original Stethoscope paints into a Swing window; the closest headless
equivalent is rendering the glyph scene into an RGB pixel buffer and
writing a PPM file (the simplest lossless image format — viewable by any
image tool, convertible to PNG with any converter).  The buffer *is* the
P6 payload, so a box is one byte-run assignment per row and saving is
the header plus the buffer.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import VizError
from repro.viz.camera import Camera
from repro.viz.color import Color, WHITE
from repro.viz.glyph import EdgeGlyph, RectangleGlyph
from repro.viz.vspace import VirtualSpace


class RasterImage:
    """An RGB image whose ``pixels`` bytearray is the P6 payload:
    row-major, 3 bytes per pixel."""

    def __init__(self, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise VizError("image dimensions must be positive")
        self.width = width
        self.height = height
        self.pixels = bytearray(_rgb(WHITE) * (width * height))

    # ------------------------------------------------------------------

    def fill_rect(self, x0: int, y0: int, x1: int, y1: int,
                  color: Color) -> None:
        """Fill an axis-aligned rectangle (clipped to the image)."""
        left, right = sorted((x0, x1))
        top, bottom = sorted((y0, y1))
        left = max(left, 0)
        top = max(top, 0)
        right = min(right, self.width - 1)
        bottom = min(bottom, self.height - 1)
        if left > right or top > bottom:
            return
        run = _rgb(color) * (right - left + 1)
        stride = self.width * 3
        start = top * stride + left * 3
        for offset in range(start, start + (bottom - top + 1) * stride,
                            stride):
            self.pixels[offset:offset + len(run)] = run

    def outline_rect(self, x0: int, y0: int, x1: int, y1: int,
                     color: Color) -> None:
        """Draw a 1px rectangle border."""
        left, right = sorted((x0, x1))
        top, bottom = sorted((y0, y1))
        self.fill_rect(left, top, right, top, color)
        self.fill_rect(left, bottom, right, bottom, color)
        self.fill_rect(left, top, left, bottom, color)
        self.fill_rect(right, top, right, bottom, color)

    def draw_line(self, x0: int, y0: int, x1: int, y1: int,
                  color: Color) -> None:
        """Bresenham line (clipped per pixel)."""
        rgb = _rgb(color)
        dx = abs(x1 - x0)
        dy = -abs(y1 - y0)
        step_x = 1 if x1 >= x0 else -1
        step_y = 1 if y1 >= y0 else -1
        error = dx + dy
        x, y = x0, y0
        while True:
            if 0 <= x < self.width and 0 <= y < self.height:
                offset = (y * self.width + x) * 3
                self.pixels[offset:offset + 3] = rgb
            if x == x1 and y == y1:
                return
            doubled = 2 * error
            if doubled >= dy:
                error += dy
                x += step_x
            if doubled <= dx:
                error += dx
                y += step_y

    def pixel(self, x: int, y: int) -> Color:
        """Read one pixel back as a Color."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise VizError(f"pixel ({x}, {y}) outside "
                           f"{self.width}x{self.height} image")
        offset = (y * self.width + x) * 3
        return Color(*self.pixels[offset:offset + 3])

    # ------------------------------------------------------------------

    def to_ppm(self) -> bytes:
        """Serialise as binary PPM (P6)."""
        header = f"P6\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + bytes(self.pixels)

    def save(self, path: str) -> None:
        """Write a ``.ppm`` file."""
        with open(path, "wb") as handle:
            handle.write(self.to_ppm())


def _rgb(color: Color) -> bytes:
    return bytes((color.r, color.g, color.b))


def load_ppm(path: str) -> RasterImage:
    """Read back a P6 PPM written by :meth:`RasterImage.save`."""
    with open(path, "rb") as handle:
        data = handle.read()
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P6":
        raise VizError(f"{path!r} is not a P6 PPM file")
    size = parts[1].split()
    if len(size) != 2 or not all(v.isdigit() for v in size):
        raise VizError(f"{path!r}: bad size line {parts[1]!r}")
    if parts[2] != b"255":
        raise VizError(f"{path!r}: maxval {parts[2]!r} is not 255")
    width, height = int(size[0]), int(size[1])
    payload = width * height * 3
    if len(parts[3]) < payload:
        raise VizError(f"{path!r}: pixel data truncated "
                       f"({len(parts[3])} of {payload} bytes)")
    image = RasterImage(width, height)
    image.pixels = bytearray(parts[3][:payload])
    return image


class RasterRenderer:
    """Rasterise a virtual space through a camera into a RasterImage."""

    EDGE_COLOR = Color(120, 120, 120)

    def __init__(self, width: int = 1024, height: int = 768) -> None:
        self.width = width
        self.height = height

    def render(self, space: VirtualSpace, camera: Camera) -> RasterImage:
        image = RasterImage(self.width, self.height)

        def project(wx: float, wy: float) -> Tuple[int, int]:
            sx, sy = camera.world_to_screen(wx, wy, self.width, self.height)
            return int(round(sx)), int(round(sy))

        for glyph in space:
            if not glyph.visible or not isinstance(glyph, EdgeGlyph):
                continue
            for (ax, ay), (bx, by) in zip(glyph.points, glyph.points[1:]):
                x0, y0 = project(ax, ay)
                x1, y1 = project(bx, by)
                image.draw_line(x0, y0, x1, y1, self.EDGE_COLOR)
        for glyph in space:
            if not glyph.visible or not isinstance(glyph, RectangleGlyph):
                continue
            left, top, right, bottom = glyph.bounds()
            x0, y0 = project(left, top)
            x1, y1 = project(right, bottom)
            image.fill_rect(x0, y0, x1, y1, glyph.fill)
            image.outline_rect(x0, y0, x1, y1, glyph.stroke)
        return image


def screenshot(space: VirtualSpace, path: str, width: int = 1024,
               height: int = 768, camera: Optional[Camera] = None
               ) -> RasterImage:
    """One-call screenshot: fit the whole space and save a PPM."""
    if camera is None:
        camera = Camera()
        camera.fit(space.bounds(), width, height)
    image = RasterRenderer(width, height).render(space, camera)
    image.save(path)
    return image
