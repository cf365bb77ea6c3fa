"""Progress window and pop-ups (paper §4.2.1).

"Lengthy instructions could be filtered either on server or client side.
They could be represented by color coding, progress window, and pop-ups."
Colour coding lives in :mod:`repro.core.coloring`; this module provides
the other two representations:

* :class:`ProgressWindow` — live query progress: instructions done vs
  plan size, elapsed trace time, a rate-based completion estimate and a
  text progress bar;
* :class:`PopupManager` — transient notifications raised when an
  instruction runs longer than a threshold, dismissed when it completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.profiler.events import TraceEvent


class ProgressWindow:
    """Tracks query execution progress from the event stream."""

    def __init__(self, plan_size: int) -> None:
        if plan_size <= 0:
            raise ValueError("plan size must be positive")
        self.plan_size = plan_size
        self.done_pcs: set = set()
        self.running_pcs: set = set()
        self.clock_usec = 0

    def observe(self, event: TraceEvent) -> None:
        """Feed one trace event."""
        self.clock_usec = max(self.clock_usec, event.clock_usec)
        if event.status == "start":
            self.running_pcs.add(event.pc)
        else:
            self.running_pcs.discard(event.pc)
            self.done_pcs.add(event.pc)

    @property
    def fraction_done(self) -> float:
        return min(1.0, len(self.done_pcs) / self.plan_size)

    @property
    def complete(self) -> bool:
        return len(self.done_pcs) >= self.plan_size

    def eta_usec(self) -> Optional[int]:
        """Remaining-time estimate from the average per-instruction rate
        so far (None until something finished)."""
        done = len(self.done_pcs)
        if done == 0:
            return None
        rate = self.clock_usec / done  # usec per completed instruction
        remaining = self.plan_size - done
        return int(rate * remaining)

    def render(self, width: int = 40) -> str:
        """The window as text: bar, counts, in-flight pcs, ETA."""
        filled = int(self.fraction_done * width)
        bar = "[" + "#" * filled + "-" * (width - filled) + "]"
        parts = [
            f"{bar} {len(self.done_pcs)}/{self.plan_size} "
            f"({self.fraction_done:.0%})",
            f"clock: {self.clock_usec} usec",
        ]
        if self.running_pcs:
            running = ", ".join(str(pc) for pc in sorted(self.running_pcs))
            parts.append(f"running: pc {running}")
        eta = self.eta_usec()
        if eta is not None and not self.complete:
            parts.append(f"eta: ~{eta} usec")
        return "\n".join(parts)


@dataclass
class Popup:
    """One transient notification about a long-running instruction."""

    pc: int
    stmt: str
    started_at_usec: int
    raised_at_usec: int
    dismissed_at_usec: Optional[int] = None

    @property
    def active(self) -> bool:
        return self.dismissed_at_usec is None

    def message(self) -> str:
        return (f"pc={self.pc} still running after "
                f"{self.raised_at_usec - self.started_at_usec} usec: "
                f"{self.stmt}")


class PopupManager:
    """Raises a pop-up when an instruction exceeds ``threshold_usec``
    and dismisses it when the done event arrives."""

    def __init__(self, threshold_usec: int) -> None:
        if threshold_usec <= 0:
            raise ValueError("threshold must be positive")
        self.threshold_usec = threshold_usec
        self._started: Dict[int, TraceEvent] = {}
        self.popups: List[Popup] = []
        self._active_by_pc: Dict[int, Popup] = {}

    def observe(self, event: TraceEvent) -> Optional[Popup]:
        """Feed one event; returns a newly raised pop-up, if any."""
        if event.status == "start":
            self._started[event.pc] = event
            return None
        self._started.pop(event.pc, None)
        popup = self._active_by_pc.pop(event.pc, None)
        if popup is not None:
            popup.dismissed_at_usec = event.clock_usec
        return None

    def tick(self, clock_usec: int) -> List[Popup]:
        """Check in-flight instructions against the threshold; returns
        pop-ups raised by this tick."""
        raised = []
        for pc, start in list(self._started.items()):
            if pc in self._active_by_pc:
                continue
            if clock_usec - start.clock_usec >= self.threshold_usec:
                popup = Popup(pc=pc, stmt=start.stmt,
                              started_at_usec=start.clock_usec,
                              raised_at_usec=clock_usec)
                self.popups.append(popup)
                self._active_by_pc[pc] = popup
                raised.append(popup)
        return raised

    def active(self) -> List[Popup]:
        """Currently displayed pop-ups."""
        return [p for p in self.popups if p.active]
