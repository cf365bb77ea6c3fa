"""Colour handling for execution-state display.

The paper colours nodes RED on *start* and GREEN on *done* (§4.2.1), and
lists *gradient coloring of graph nodes to display a range of execution
times* as planned future work — :meth:`Color.lerp` and
:func:`gradient_for` implement that extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import VizError


@dataclass(frozen=True)
class Color:
    """An RGB colour with 8-bit channels."""

    r: int
    g: int
    b: int

    def __post_init__(self) -> None:
        for channel in (self.r, self.g, self.b):
            if not (0 <= channel <= 255):
                raise VizError(f"channel out of range in {self!r}")

    @classmethod
    def from_hex(cls, text: str) -> "Color":
        """Parse ``#rrggbb`` (or ``rrggbb``)."""
        stripped = text.lstrip("#")
        if len(stripped) != 6:
            raise VizError(f"bad hex colour {text!r}")
        try:
            return cls(
                int(stripped[0:2], 16),
                int(stripped[2:4], 16),
                int(stripped[4:6], 16),
            )
        except ValueError:
            raise VizError(f"bad hex colour {text!r}") from None

    def to_hex(self) -> str:
        return self._hex

    @cached_property
    def _hex(self) -> str:
        # formatted once per colour: a display writes the same few
        # colours thousands of times
        return f"#{self.r:02x}{self.g:02x}{self.b:02x}"

    def lerp(self, other: "Color", t: float) -> "Color":
        """Linear interpolation toward ``other`` (t clamped to [0, 1])."""
        t = max(0.0, min(1.0, t))
        return Color(
            round(self.r + (other.r - self.r) * t),
            round(self.g + (other.g - self.g) * t),
            round(self.b + (other.b - self.b) * t),
        )


RED = Color(220, 40, 40)
GREEN = Color(40, 180, 70)
WHITE = Color(255, 255, 255)
BLACK = Color(0, 0, 0)
YELLOW = Color(240, 200, 40)


def gradient_for(value: float, low: float, high: float,
                 cold: Color = GREEN, hot: Color = RED) -> Color:
    """Map a value in [low, high] onto the cold→hot gradient.

    This is the paper's future-work *gradient coloring*: instead of binary
    RED/GREEN, a node's colour encodes where its execution time falls in
    the observed range.  Degenerate ranges map to ``cold``.
    """
    if high <= low:
        return cold
    return cold.lerp(hot, (value - low) / (high - low))
