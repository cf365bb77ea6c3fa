"""Trace file reading and writing (the offline side of the profiler).

Offline Stethoscope mode "needs access to a preexisting dot file and
trace file" (paper §4.1); these helpers produce and consume those trace
files.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.errors import TraceFormatError
from repro.profiler.events import TraceEvent, format_event, parse_event


def write_trace(events: Iterable[TraceEvent], path: str) -> int:
    """Write events to a trace file, one line each; returns line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(format_event(event) + "\n")
            count += 1
    return count


def read_trace(path: str) -> List[TraceEvent]:
    """Read a whole trace file (skipping blank lines).

    Raises:
        TraceFormatError: on any malformed line (with its line number).
    """
    return list(iter_trace(path))


def iter_trace(path: str) -> Iterator[TraceEvent]:
    """Stream a trace file sequentially — the paper's workflow reads the
    trace "in a sequential manner"."""
    with open(path, encoding="utf-8") as handle:
        yield from _parse_lines(handle, f"{path}:")


def parse_trace_text(text: str) -> List[TraceEvent]:
    """Parse trace lines from a string (e.g. collected from UDP); lines
    end at ``\\n`` (or ``\\r\\n``), as in a file, and at nothing
    else a statement may hold."""
    return list(_parse_lines(text.split("\n"), "line "))


def _parse_lines(lines: Iterable[str], where: str) -> Iterator[TraceEvent]:
    """The events of trace lines, blank lines skipped; a malformed line
    raises TraceFormatError naming ``where`` and its line number."""
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            yield parse_event(stripped)
        except TraceFormatError as exc:
            raise TraceFormatError(f"{where}{number}: {exc}") from None
