"""The profiler proper: turns interpreter run records into trace events.

A :class:`Profiler` is handed to the interpreter or scheduler as its run
listener.  Each instruction yields a *start* and a *done*
:class:`~repro.profiler.events.TraceEvent`; events passing the configured
:class:`~repro.profiler.filters.EventFilter` are fanned out to every
attached sink (in-memory buffer, trace file, UDP stream, callbacks).
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from repro.mal.interpreter import InstructionRun
from repro.profiler.events import TraceEvent, format_event
from repro.profiler.filters import EventFilter

EventSink = Callable[[TraceEvent], None]


class Profiler:
    """Collects, filters and distributes trace events.

    Args:
        event_filter: server-side filter; only matching events reach sinks.
        keep_events: retain matching events in :attr:`events` (on by
            default; turn off for pure streaming to bound memory).
    """

    def __init__(self, event_filter: Optional[EventFilter] = None,
                 keep_events: bool = True) -> None:
        self.event_filter = event_filter or EventFilter()
        self.keep_events = keep_events
        self.events: List[TraceEvent] = []
        self._sinks: List[EventSink] = []
        self._sequence = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def add_sink(self, sink: EventSink) -> None:
        """Attach a sink receiving every matching event."""
        self._sinks.append(sink)

    def attach_file(self, path: str) -> None:
        """Stream matching events to a trace file (line per event)."""
        handle = open(path, "w", encoding="utf-8")

        def sink(event: TraceEvent) -> None:
            handle.write(format_event(event) + "\n")
            handle.flush()

        sink.close = handle.close  # type: ignore[attr-defined]
        self.add_sink(sink)

    # ------------------------------------------------------------------
    # listener protocol (plugs into Interpreter / SimulatedScheduler)
    # ------------------------------------------------------------------

    def __call__(self, phase: str, run: InstructionRun) -> None:
        """RunListener interface: convert one run record into an event."""
        with self._lock:
            sequence = self._sequence
            self._sequence += 1
        if phase == "start":
            event = TraceEvent(
                event=sequence, clock_usec=run.start_usec, status="start",
                pc=run.pc, thread=run.thread, usec=0,
                rss_bytes=run.rss_bytes, stmt=run.stmt,
            )
        else:
            event = TraceEvent(
                event=sequence, clock_usec=run.end_usec, status="done",
                pc=run.pc, thread=run.thread, usec=run.usec,
                rss_bytes=run.rss_bytes, stmt=run.stmt,
            )
        self.emit(event)

    def emit(self, event: TraceEvent) -> None:
        """Filter and distribute one event."""
        if not self.event_filter.matches(event):
            return
        if self.keep_events:
            with self._lock:
                self.events.append(event)
        for sink in self._sinks:
            sink(event)

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop collected events and restart the sequence numbering."""
        with self._lock:
            self.events = []
            self._sequence = 0

    def done_events(self) -> List[TraceEvent]:
        """Only the done-events, in emission order."""
        return [e for e in self.events if e.status == "done"]

    def total_usec(self) -> int:
        """Clock of the latest event seen (query makespan so far)."""
        return max((e.clock_usec for e in self.events), default=0)
