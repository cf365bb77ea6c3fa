"""Trace event model and its textual wire/file format.

One line per event, bracketed and tab-separated, mirroring the structure
of the MonetDB profiler stream shown in the paper's Figure 3::

    [ 7,	123456,	"done",	3,	0,	145,	18432,	"X_23 := algebra.select(X_10,1);"	]

Fields, in order:

=========  ===================================================
``event``  monotonically increasing sequence number
``clock``  microseconds since query start (event timestamp)
``status`` ``"start"`` or ``"done"``
``pc``     program counter of the instruction (maps to dot node ``n<pc>``)
``thread`` worker thread that executed the instruction
``usec``   elapsed microseconds (0 on start events)
``rss``    simulated resident set in bytes
``stmt``   the MAL statement text
=========  ===================================================
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.errors import TraceFormatError


@dataclass(frozen=True)
class TraceEvent:
    """One profiler event (an instruction starting or finishing)."""

    event: int
    clock_usec: int
    status: str  # "start" | "done"
    pc: int
    thread: int
    usec: int
    rss_bytes: int
    stmt: str

    @property
    def module(self) -> str:
        """MAL module of the statement (parsed from the text)."""
        match = _QNAME_RE.search(self.stmt)
        return match.group(1) if match else ""

    @property
    def function(self) -> str:
        """MAL function of the statement (parsed from the text)."""
        match = _QNAME_RE.search(self.stmt)
        return match.group(2) if match else ""


_QNAME_RE = re.compile(r"(?:^|:=\s*)([A-Za-z_][\w]*)\.([A-Za-z_][\w]*)\(")

_LINE_RE = re.compile(
    r"^\[\s*(\d+),\s*(\d+),\s*\"(start|done)\",\s*(\d+),\s*(\d+),"
    r"\s*(\d+),\s*(\d+),\s*\"(.*)\"\s*\]$",
    re.DOTALL,
)


def format_event(event: TraceEvent) -> str:
    """Render an event as one trace line: ``\\``, ``"``, a line feed and
    a carriage return in ``stmt`` are backslash-escaped, so no statement
    breaks the line."""
    stmt = event.stmt.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n").replace("\r", "\\r")
    return (
        f"[ {event.event},\t{event.clock_usec},\t\"{event.status}\","
        f"\t{event.pc},\t{event.thread},\t{event.usec},"
        f"\t{event.rss_bytes},\t\"{stmt}\"\t]"
    )


def parse_event(line: str) -> TraceEvent:
    """Parse one trace line back into a :class:`TraceEvent`.

    Raises:
        TraceFormatError: when the line does not match the format.
    """
    match = _LINE_RE.match(line.strip())
    if match is None:
        raise TraceFormatError(f"bad trace line: {line!r}")
    number, clock, status, pc, thread, usec, rss, stmt = match.groups()
    if "\\" in stmt:
        # one pass, left to right: between two escaped backslashes the
        # only escapes left are \", \n and \r
        stmt = "\\".join(
            part.replace('\\"', '"').replace("\\n", "\n")
            .replace("\\r", "\r") for part in stmt.split("\\\\"))
    event = object.__new__(TraceEvent)
    # the state TraceEvent(...) would set, in one update instead of a
    # frozen __init__'s eight object.__setattr__ calls
    vars(event).update(
        event=int(number), clock_usec=int(clock), status=status,
        pc=int(pc), thread=int(thread), usec=int(usec),
        rss_bytes=int(rss), stmt=stmt)
    return event
