"""The textual Stethoscope (paper §3.2).

"The MonetDB profiler information is accessed through a textual version
of Stethoscope.  It uses a UDP socket interface to connect to MonetDB
server, for receiving the MonetDB execution trace.  The textual
Stethoscope can connect to multiple MonetDB servers at the same time to
receive execution traces from all (distributed) sources.  Its filter
options allow for selective tracing of execution states on each of the
connected servers."

Each :class:`ServerConnection` owns one UDP receiver (the port a server
streams to) and a client-side filter; :class:`TextualStethoscope` drains
any number of connections, splitting framed dot content from trace
events and optionally appending to trace files.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import StethoscopeError, TraceFormatError
from repro.profiler.events import TraceEvent, format_event, parse_event
from repro.profiler.filters import EventFilter
from repro.profiler.stream import DOT_PREFIX, END_MARKER, UdpReceiver


#: The most lines one :meth:`ServerConnection.drain` pulls.
DRAIN_MAX_LINES = 10_000


class ServerConnection:
    """One connected (possibly remote) server's trace stream."""

    def __init__(self, name: str, receiver: UdpReceiver,
                 event_filter: Optional[EventFilter] = None) -> None:
        self.name = name
        self.receiver = receiver
        self.event_filter = event_filter or EventFilter()
        self.events: List[TraceEvent] = []
        self.dot_lines: List[str] = []
        self.dropped = 0  # events rejected by the filter
        self.malformed = 0
        self.ended = False

    @property
    def port(self) -> int:
        """The UDP port this connection listens on (give it to the
        server's profiler)."""
        return self.receiver.port

    def drain(self, timeout: float = 0.05) -> int:
        """Pull available datagrams, at most ``DRAIN_MAX_LINES``; returns
        how many lines arrived."""
        received = 0
        while received < DRAIN_MAX_LINES and self.receive(timeout):
            received += 1
        return received

    def receive(self, timeout: float) -> bool:
        """Block for one line, at most ``timeout`` seconds, and file it
        (dot line, event or END); False when none arrived."""
        line = self.receiver.try_line(timeout=timeout)
        if line is None:
            return False
        if line == END_MARKER:
            self.ended = True
        elif line.startswith(DOT_PREFIX):
            self.dot_lines.append(line[len(DOT_PREFIX):])
        else:
            try:
                event = parse_event(line)
            except TraceFormatError:
                self.malformed += 1
            else:
                if self.event_filter.matches(event):
                    self.events.append(event)
                else:
                    self.dropped += 1
        return True

    def dot_text(self) -> str:
        """The dot file shipped ahead of the trace (may be empty)."""
        return "\n".join(self.dot_lines)

    def write_trace_file(self, path: str) -> int:
        """Dump collected (filtered) events to a trace file."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(format_event(event) + "\n")
        return len(self.events)

    def write_dot_file(self, path: str) -> None:
        """Dump the received dot content to a file (paper: "generates a
        new dot file, and stores the content in it")."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dot_text() + "\n")

    def close(self) -> None:
        self.receiver.close()


class TextualStethoscope:
    """Aggregates any number of server connections."""

    def __init__(self) -> None:
        self.connections: Dict[str, ServerConnection] = {}

    def connect(self, name: str,
                event_filter: Optional[EventFilter] = None,
                host: str = "127.0.0.1", port: int = 0) -> ServerConnection:
        """Open a listening port for one server; returns the connection
        (its ``.port`` is what the server must stream to)."""
        if name in self.connections:
            raise StethoscopeError(f"connection {name!r} already exists")
        connection = ServerConnection(
            name, UdpReceiver(host=host, port=port), event_filter
        )
        self.connections[name] = connection
        return connection

    def adopt(self, name: str, connection: ServerConnection) -> None:
        """Register an externally constructed connection (tests)."""
        if name in self.connections:
            raise StethoscopeError(f"connection {name!r} already exists")
        self.connections[name] = connection

    def connection(self, name: str) -> ServerConnection:
        try:
            return self.connections[name]
        except KeyError:
            raise StethoscopeError(f"no connection {name!r}") from None

    def drain_all(self, timeout: float = 0.05) -> int:
        """Drain every connection once; returns total lines received."""
        return sum(
            c.drain(timeout=timeout) for c in self.connections.values()
        )

    def drain_until_ended(self, max_rounds: int = 200,
                          timeout: float = 0.05) -> None:
        """Drain until every connection saw its END marker (or rounds
        run out — a stalled stream should not hang the client)."""
        for _ in range(max_rounds):
            self.drain_all(timeout=timeout)
            if all(c.ended for c in self.connections.values()):
                return

    def merged_events(self) -> List[TraceEvent]:
        """All servers' events merged by trace clock (distributed view)."""
        merged: List[TraceEvent] = []
        for connection in self.connections.values():
            merged.extend(connection.events)
        merged.sort(key=lambda e: (e.clock_usec, e.event))
        return merged

    def close(self) -> None:
        for connection in self.connections.values():
            connection.close()

    def __enter__(self) -> "TextualStethoscope":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
