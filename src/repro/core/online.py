"""Online mode: live monitoring of a running query (paper §4.2).

"Online mode components use a multi-threaded design.  As a first step,
the textual Stethoscope is launched in a dedicated thread [listening for
the UDP stream].  The query whose execution plan needs to be analyzed is
launched next in a separate thread.  ...  A separate thread monitors the
received UDP stream for dot file and execution trace file content."

The three threads here: the receiver thread (a
:class:`~repro.profiler.stream.UdpReceiver` drains its socket in one of
its own, the textual Stethoscope), the query thread, and the caller of
:func:`run_online`, the monitor, which blocks for one line at a time.
An online run is an offline session fed live: once the dot content
parses, the monitor opens an :class:`OfflineSession` with no events and
pushes each event into it.  When the render queue's backlog exceeds a
threshold — the ~150 ms/node render ceiling cannot keep up with a fast
stream — the monitor *samples*: it keeps the RED (long-running) actions
and drops GREEN repaints, the run-time filtering the paper applies to
the buffered trace.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.core.session import OfflineSession
from repro.core.textual import ServerConnection
from repro.dot.writer import graph_to_dot
from repro.errors import DotError, MappingError
from repro.metrics.families import (
    ONLINE_COMPLETENESS,
    ONLINE_DEGRADED,
    ONLINE_EVENTS,
    ONLINE_INTERPOLATED,
    ONLINE_RUNS,
    ONLINE_SAMPLED_OUT,
    ONLINE_SEQUENCE_GAPS,
)
from repro.profiler.events import TraceEvent
from repro.profiler.traceio import write_trace
from repro.viz.color import GREEN


@dataclass
class TraceHealth:
    """What the degraded-mode analysis learned about one query's stream.

    The profiler numbers every event 0..N-1 in emission order (the
    ``event`` field), so the receiver can audit what UDP did to the
    stream: duplicates, reordering, and — when no server-side filter
    was active — sequence gaps where datagrams were lost.
    """

    received: int = 0        # raw events handed to the analysis
    distinct: int = 0        # unique sequence numbers among them
    duplicates: int = 0      # events seen more than once
    out_of_order: int = 0    # events arriving behind a higher seq
    gaps: int = 0            # sequence numbers missing below the max
    interpolated: int = 0    # synthetic start events added
    ended: bool = True       # END marker observed
    #: the shipped dot content failed to parse, or lacks a node the
    #: stream names
    plan_damaged: bool = False

    @property
    def expected(self) -> int:
        """Events the observed sequence range says were emitted."""
        return self.distinct + self.gaps

    @property
    def completeness(self) -> float:
        """distinct/expected in [0, 1]; 1.0 for a clean stream.

        Relative to the *observed* range: a tail lost entirely (END
        and final events all dropped) is invisible here and shows up
        as ``ended=False`` instead.
        """
        if self.expected == 0:
            return 1.0
        return self.distinct / self.expected

    @property
    def degraded(self) -> bool:
        """Did the stream need repair to be trusted?"""
        return (not self.ended or self.plan_damaged or self.gaps > 0
                or self.duplicates > 0 or self.out_of_order > 0)


def analyze_stream(
    events: List[TraceEvent],
    trust_gaps: bool = True,
) -> Tuple[List[TraceEvent], TraceHealth]:
    """Normalise a possibly damaged event stream.

    Returns the events sorted by sequence number with duplicates
    removed, plus a :class:`TraceHealth` accounting of what was wrong.
    ``trust_gaps=False`` (set when a server-side filter was active, so
    missing sequence numbers are intentional) reports ``gaps=0``.
    """
    health = TraceHealth(received=len(events))
    seen: dict = {}
    highest = -1
    for event in events:
        if event.event in seen:
            health.duplicates += 1
            continue
        if event.event < highest:
            health.out_of_order += 1
        highest = max(highest, event.event)
        seen[event.event] = event
    health.distinct = len(seen)
    if trust_gaps and seen:
        health.gaps = (max(seen) + 1) - health.distinct
    ordered = [seen[key] for key in sorted(seen)]
    return ordered, health


def interpolate_pairs(
    ordered: List[TraceEvent],
) -> Tuple[List[TraceEvent], int]:
    """Synthesize start events for done events whose start was lost.

    The pair-sequence colorizer needs both halves of a pair; a done
    whose start never arrived would otherwise be dismissed as fast.
    Each synthetic start carries the done's statement and a clock
    derived from ``done.clock - done.usec``, and is inserted where the
    profiler would have emitted it: positioned by ``(clock, pc,
    start-before-done)`` — the exact emission order of the simulated
    scheduler, so a repaired deterministic trace recovers the original
    event order byte for byte — and never after its done event.
    """

    def emit_key(e: TraceEvent):
        return (e.clock_usec, e.pc, e.status == "done")

    started = {e.pc for e in ordered if e.status == "start"}
    out = list(ordered)
    added = 0
    for done in ordered:
        if done.status != "done" or done.pc in started:
            continue
        started.add(done.pc)
        synth = TraceEvent(
            event=done.event, clock_usec=max(0, done.clock_usec - done.usec),
            status="start", pc=done.pc, thread=done.thread, usec=0,
            rss_bytes=done.rss_bytes, stmt=done.stmt,
        )
        index = bisect.bisect_left([emit_key(e) for e in out],
                                   emit_key(synth))
        done_index = out.index(done)
        out.insert(min(index, done_index), synth)
        added += 1
    return out, added


@dataclass
class OnlineRun:
    """An online run's session, and the facts only a live run knows."""

    #: the session the stream was pushed into; None when no plan parsed
    session: Optional[OfflineSession]
    query_result: Any
    #: stream-health accounting (clean on happy runs)
    health: TraceHealth
    sampled_out: int  # colour actions dropped by sampling
    dot_path: Optional[str]
    trace_path: Optional[str]


def run_online(connection: ServerConnection, run_query: Callable[[], Any],
               workdir: str, backlog_threshold: int = 32,
               timeout_s: float = 30.0, settle_s: float = 0.5) -> OnlineRun:
    """Monitor one query live until its stream ends; write ``plan.dot``
    and ``query.trace`` (the session's) into ``workdir``.

    A stream damaged by UDP loss — missing END marker, sequence gaps,
    duplicated or reordered datagrams, an unparseable dot shipment —
    neither raises nor mis-animates: once the query has finished, a
    receive that waits ``settle_s`` in vain ends the run, whose events
    are normalised (deduplicated, reordered by sequence, lost starts
    interpolated) and replace the session's trace, replayed from 0; the
    :class:`TraceHealth` says what was wrong.
    """
    ONLINE_RUNS.inc()
    query_out: List[Any] = []
    query_err: List[BaseException] = []

    def query() -> None:
        try:
            query_out.append(run_query())
        except BaseException as exc:  # surfaced after join
            query_err.append(exc)

    def push(event: TraceEvent) -> bool:
        nonlocal plan_damaged
        try:
            session.push(event)
        except MappingError:  # the plan lacks a node the stream names
            plan_damaged = True
            return False
        return True

    query_thread = threading.Thread(target=query, daemon=True)
    query_thread.start()
    session: Optional[OfflineSession] = None
    plan_damaged = False
    dot_lines_tried = pushed = sampled_out = 0
    began = time.monotonic()
    deadline = began + timeout_s
    while True:
        if session is None and len(connection.dot_lines) > dot_lines_tried \
                and (connection.events or connection.ended):
            # dot content is complete once execution events flow; a
            # truncated shipment may fail to parse — retry only if more
            # dot lines arrive, never crash the monitor
            dot_lines_tried = len(connection.dot_lines)
            try:
                session = OfflineSession(connection.dot_text(), [])
            except DotError:
                plan_damaged = True
            else:
                plan_damaged = False
                # the views shown live: built now, each push folds in
                session.analysis, session.progress
        if session is not None:
            # the clock first, so a colour is posted at the time it came
            painter = session.painter
            painter.pump((time.monotonic() - began) * 1000.0)
            for event in connection.events[pushed:]:
                pushed += 1
                if not push(event):
                    continue
                ONLINE_EVENTS.inc()
                for action in session.replay.advance():
                    if action.color == GREEN and \
                            painter.backlog() > backlog_threshold:
                        sampled_out += 1
                    else:
                        painter.apply(action)
        remaining = deadline - time.monotonic()
        if connection.ended or remaining <= 0:
            break
        if not connection.receive(min(settle_s, remaining)) and \
                not query_thread.is_alive():
            break  # the query is done and its END marker was lost
    query_thread.join(timeout=2.0)
    if query_err:
        raise query_err[0]
    if sampled_out:
        ONLINE_SAMPLED_OUT.inc(sampled_out)
    clean, health = analyze_stream(connection.events,
                                   trust_gaps=connection.dropped == 0)
    health.ended = connection.ended
    health.plan_damaged = plan_damaged
    ONLINE_COMPLETENESS.observe(health.completeness * 100.0)
    if health.degraded:
        ONLINE_DEGRADED.inc()
        if health.gaps:
            ONLINE_SEQUENCE_GAPS.inc(health.gaps)
        clean, health.interpolated = interpolate_pairs(clean)
        if health.interpolated:
            ONLINE_INTERPOLATED.inc(health.interpolated)
        if session is not None:
            session.reset()
            for event in clean:
                push(event)
    # what an offline session reopens to replay the display: the
    # session's plan and trace; without one, what arrived, repaired
    dot_path = trace_path = None
    if connection.dot_lines:
        dot_path = os.path.join(workdir, "plan.dot")
        if session is None:
            connection.write_dot_file(dot_path)
        else:
            with open(dot_path, "w", encoding="utf-8") as handle:
                handle.write(graph_to_dot(session.graph))
    events = clean if session is None else session.events
    if events:
        trace_path = os.path.join(workdir, "query.trace")
        write_trace(events, trace_path)
    if session is not None:
        session.replay.run_to_end()
        session.replay.finish()
    return OnlineRun(session, query_out[0] if query_out else None, health,
                     sampled_out, dot_path, trace_path)
