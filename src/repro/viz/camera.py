"""The camera: a zoomable viewpoint over a virtual space (ZVTM model).

A camera sits at (x, y) above the canvas at some *altitude*; the higher
the altitude, the more of the space is visible and the smaller things
appear.  Screen scale follows ZVTM's perspective rule
``scale = focal / (focal + altitude)``.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import VizError

#: The focal length of every camera.
FOCAL = 100.0
#: How much room :meth:`Camera.fit` leaves around the bounds it frames.
FIT_MARGIN = 1.1


class Camera:
    """A viewpoint with smooth zoom semantics."""

    def __init__(self, x: float = 0.0, y: float = 0.0,
                 altitude: float = 100.0) -> None:
        self.x = x
        self.y = y
        # ZVTM permits negative altitudes (the camera dips below the
        # focal plane) for magnification beyond 1:1; the floor keeps the
        # projection finite
        self.altitude = max(-FOCAL * 0.999, altitude)

    # ------------------------------------------------------------------

    @property
    def scale(self) -> float:
        """World-to-screen magnification at the current altitude."""
        return FOCAL / (FOCAL + self.altitude)

    def world_to_screen(self, wx: float, wy: float,
                        viewport_w: float, viewport_h: float) -> Tuple[float, float]:
        """Project a virtual-space point into viewport pixels."""
        s = self.scale
        return (
            (wx - self.x) * s + viewport_w / 2,
            (wy - self.y) * s + viewport_h / 2,
        )

    def screen_to_world(self, sx: float, sy: float,
                        viewport_w: float, viewport_h: float) -> Tuple[float, float]:
        """Inverse projection (mouse picking)."""
        s = self.scale
        return (
            (sx - viewport_w / 2) / s + self.x,
            (sy - viewport_h / 2) / s + self.y,
        )

    # ------------------------------------------------------------------

    def pan(self, dx: float, dy: float) -> None:
        """Translate the viewpoint in world coordinates."""
        self.x += dx
        self.y += dy

    def zoom_in(self, factor: float = 1.5) -> None:
        """Decrease altitude (magnify); factor > 1."""
        if factor <= 0:
            raise VizError("zoom factor must be positive")
        self.altitude = max(
            -FOCAL * 0.999,
            (self.altitude + FOCAL) / factor - FOCAL,
        )

    def zoom_out(self, factor: float = 1.5) -> None:
        """Increase altitude (shrink); factor > 1."""
        if factor <= 0:
            raise VizError("zoom factor must be positive")
        self.altitude = (self.altitude + FOCAL) * factor - FOCAL

    def look_at(self, x: float, y: float) -> None:
        """Centre the camera on a world point (keyboard navigation)."""
        self.x = x
        self.y = y

    def fit(self, bounds: Tuple[float, float, float, float],
            viewport_w: float, viewport_h: float) -> None:
        """Position and zoom so ``bounds`` fills the viewport — the
        bird's-eye-view operation."""
        left, top, right, bottom = bounds
        width = max(right - left, 1e-9) * FIT_MARGIN
        height = max(bottom - top, 1e-9) * FIT_MARGIN
        self.x = (left + right) / 2
        self.y = (top + bottom) / 2
        needed_scale = min(viewport_w / width, viewport_h / height)
        needed_scale = min(needed_scale, 1e6)
        self.altitude = max(-FOCAL * 0.999,
                            FOCAL / needed_scale - FOCAL)
