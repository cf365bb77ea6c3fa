"""Animations: zoom level, colour and highlight transitions.

Paper §5 (offline demo): "Animation effects such as change of zoom level,
color, and transition time between highlights of nodes."  An
:class:`Animation` interpolates a float parameter from 0 to 1 over its
duration and feeds it to an apply function; the :class:`Animator` steps
all active animations on a shared clock.
"""

from __future__ import annotations

from typing import Callable, List

from repro.errors import VizError
from repro.viz.camera import Camera
from repro.viz.color import Color
from repro.viz.glyph import RectangleGlyph


def ease_in_out(t: float) -> float:
    """Smoothstep easing (slow-fast-slow), ZVTM's default feel."""
    return t * t * (3 - 2 * t)


class Animation:
    """One running transition.

    Args:
        duration_ms: total run time; must be positive.
        apply: called every step with the progress in [0, 1], eased
            by :func:`ease_in_out`.
    """

    def __init__(self, duration_ms: float,
                 apply: Callable[[float], None]) -> None:
        if duration_ms <= 0:
            raise VizError("animation duration must be positive")
        self.duration_ms = duration_ms
        self.apply = apply
        self.elapsed_ms = 0.0
        self.finished = False

    def step(self, dt_ms: float) -> None:
        if self.finished:
            return
        self.elapsed_ms += dt_ms
        t = min(1.0, self.elapsed_ms / self.duration_ms)
        self.apply(ease_in_out(t))
        if t >= 1.0:
            self.finished = True


#: The step budget of :meth:`Animator.run_to_completion`.
MAX_STEPS = 100_000


class Animator:
    """Steps a set of animations on one clock."""

    def __init__(self) -> None:
        self.animations: List[Animation] = []

    def add(self, animation: Animation) -> Animation:
        self.animations.append(animation)
        return animation

    def step(self, dt_ms: float) -> None:
        """Advance every active animation; finished ones are dropped."""
        for animation in self.animations:
            animation.step(dt_ms)
        self.animations = [a for a in self.animations if not a.finished]

    @property
    def active(self) -> int:
        return len(self.animations)

    def run_to_completion(self, step_ms: float = 16.0) -> int:
        """Step until idle, at most ``MAX_STEPS`` times; returns steps
        taken (testing helper)."""
        steps = 0
        while self.animations and steps < MAX_STEPS:
            self.step(step_ms)
            steps += 1
        return steps

    # ------------------------------------------------------------------
    # convenience factories for the three paper-named transitions
    # ------------------------------------------------------------------

    def animate_camera_to(self, camera: Camera, x: float, y: float,
                          altitude: float, duration_ms: float = 300.0) -> Animation:
        """Smooth pan+zoom to a target viewpoint (zoom-level change)."""
        x0, y0, alt0 = camera.x, camera.y, camera.altitude

        def apply(t: float) -> None:
            camera.x = x0 + (x - x0) * t
            camera.y = y0 + (y - y0) * t
            camera.altitude = alt0 + (altitude - alt0) * t

        return self.add(Animation(duration_ms, apply))

    def animate_fill(self, glyph: RectangleGlyph, target: Color,
                     duration_ms: float = 200.0) -> Animation:
        """Smooth colour transition of a node shape."""
        start = glyph.fill

        def apply(t: float) -> None:
            glyph.fill = start.lerp(target, t)

        return self.add(Animation(duration_ms, apply))

    def animate_highlight(self, glyphs: List[RectangleGlyph], accent: Color,
                          duration_ms: float = 400.0) -> Animation:
        """Pulse a set of nodes toward an accent colour and back —
        the transition between highlights of nodes."""
        starts = [g.fill for g in glyphs]

        def apply(t: float) -> None:
            # triangle wave: up in the first half, back in the second
            amount = 2 * t if t <= 0.5 else 2 * (1 - t)
            for glyph, start in zip(glyphs, starts):
                glyph.fill = start.lerp(accent, amount)

        return self.add(Animation(duration_ms, apply))
