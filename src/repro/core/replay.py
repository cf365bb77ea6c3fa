"""Offline trace replay (paper §5, offline demo).

"Step by step walk through", "fast-forward, rewind, and pause
functionality of the trace replay", and "finding costly instructions by
coloring during trace replay between two instruction states" — all
driven by a :class:`ReplayController` over a recorded trace.

Rewind is implemented as deterministic re-execution: colours are wiped
and the colouring algorithm replays from the beginning to the target
position, which guarantees the display equals what stepping there
directly would have produced.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.analysis import TraceAnalyzer
from repro.core.coloring import ColorAction, PairSequenceColorizer, ThresholdColorizer
from repro.core.painter import GraphPainter
from repro.errors import StethoscopeError
from repro.profiler.events import TraceEvent


class ReplayController:
    """Replays a recorded trace over the plan display.

    Args:
        events: the full trace, in file order.
        painter: the display to colour.
        threshold_usec: when given, use the threshold colouring algorithm
            instead of the default pair-sequence one.
    """

    def __init__(self, events: Sequence[TraceEvent], painter: GraphPainter,
                 threshold_usec: Optional[int] = None) -> None:
        self.events = list(events)
        self.painter = painter
        self.threshold_usec = threshold_usec
        self.position = 0
        self.paused = False
        self._colorizer = self._fresh_colorizer()

    def _fresh_colorizer(self):
        if self.threshold_usec is not None:
            return ThresholdColorizer(self.threshold_usec)
        return PairSequenceColorizer()

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------

    @property
    def at_end(self) -> bool:
        return self.position >= len(self.events)

    @property
    def current_event(self) -> Optional[TraceEvent]:
        """The next event to be replayed (None at end of trace)."""
        if self.at_end:
            return None
        return self.events[self.position]

    def step(self) -> Optional[TraceEvent]:
        """Replay one event; returns it (None at end, or while paused)."""
        if self.paused or self.at_end:
            return None
        event = self.events[self.position]
        self.position += 1
        actions = self._colorizer.push(event)
        self.painter.apply_all(actions)
        self.painter.flush()
        return event

    def fast_forward(self, count: int) -> int:
        """Replay up to ``count`` events; returns how many ran."""
        ran = 0
        for _ in range(count):
            if self.step() is None:
                break
            ran += 1
        return ran

    def fast_forward_until(self, clock_usec: int) -> int:
        """Replay until the trace clock passes ``clock_usec``."""
        ran = 0
        while not self.at_end and not self.paused and \
                self.events[self.position].clock_usec <= clock_usec:
            self.step()
            ran += 1
        return ran

    def run_to_end(self) -> int:
        """Replay everything that remains."""
        return self.fast_forward(len(self.events))

    def rewind(self, count: int) -> int:
        """Go back ``count`` events (display re-derived); returns the new
        position."""
        return self.seek(max(0, self.position - count))

    def seek(self, position: int) -> int:
        """Jump to an absolute event position, re-deriving the display."""
        if position < 0 or position > len(self.events):
            raise StethoscopeError(
                f"seek position {position} outside 0..{len(self.events)}"
            )
        self.painter.reset()
        self._colorizer = self._fresh_colorizer()
        self.position = 0
        was_paused = self.paused
        self.paused = False
        self.fast_forward(position)
        self.paused = was_paused
        return self.position

    def pause(self) -> None:
        """Stop consuming events until :meth:`resume`."""
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    # ------------------------------------------------------------------
    # analysis between two instruction states
    # ------------------------------------------------------------------

    def costly_between(self, start_position: int, end_position: int,
                       top: int = 10) -> List[TraceEvent]:
        """Most expensive instructions between two replay positions."""
        if not (0 <= start_position <= end_position <= len(self.events)):
            raise StethoscopeError("bad replay window")
        return TraceAnalyzer(
            self.events[start_position:end_position]
        ).costly_instructions(top)

    def actions_so_far(self) -> List[ColorAction]:
        """Colour actions produced up to the current position."""
        return list(self._colorizer.actions)
