"""Online mode: live monitoring of a running query (paper §4.2).

"Online mode components use a multi-threaded design.  As a first step,
the textual Stethoscope is launched in a dedicated thread [listening for
the UDP stream].  The query whose execution plan needs to be analyzed is
launched next in a separate thread.  ...  A separate thread monitors the
received UDP stream for dot file and execution trace file content."

The monitor builds the display as soon as the dot content has arrived,
then feeds trace events through the colouring algorithm into the render
queue.  When the queue backlog exceeds a threshold — the ~150 ms/node
render ceiling cannot keep up with a fast event stream — the monitor
*samples*: it keeps the RED (long-running) actions and drops GREEN
repaints, which is the run-time filtering the paper describes applying
to the buffered trace.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.core.analysis import TraceAnalyzer
from repro.core.coloring import ColorAction, PairSequenceColorizer
from repro.core.painter import GraphPainter
from repro.core.textual import ServerConnection
from repro.dot.graph import Digraph
from repro.dot.parser import parse_dot
from repro.errors import DotError, StethoscopeError
from repro.layout import layout_graph
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
from repro.viz.color import GREEN
from repro.viz.vspace import VirtualSpace, build_virtual_space

#: An instruction running this long raises a pop-up while online.
POPUP_THRESHOLD_USEC = 10_000


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
    plan_damaged: bool = False  # shipped dot content failed to parse

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
class OnlineResult:
    """Everything an online monitoring run produced."""

    graph: Optional[Digraph]
    space: Optional[VirtualSpace]
    painter: Optional[GraphPainter]
    events: List[TraceEvent]
    dot_path: Optional[str]
    trace_path: Optional[str]
    query_result: Any
    sampled_out: int  # colour actions dropped by sampling
    red_pcs: List[int] = field(default_factory=list)
    #: live progress state at end of run (complete unless interrupted)
    progress: Any = None
    #: pop-ups raised for long-running instructions during the run
    popups: List[Any] = field(default_factory=list)
    #: stream-health accounting (always present; clean on happy runs)
    health: Optional[TraceHealth] = None
    #: True when the run finished through the degraded path
    degraded: bool = False
    #: normalised (deduped, seq-ordered, interpolated) event stream
    clean_events: List[TraceEvent] = field(default_factory=list)
    #: every analysis view of the events, folded as they arrived
    analysis: TraceAnalyzer = field(default_factory=TraceAnalyzer)

    def to_offline_session(self, threshold_usec: Optional[int] = None):
        """Reopen this run's plan and trace as an offline session — the
        natural follow-up after live monitoring ends: replay what was
        just watched, at leisure."""
        from repro.core.session import OfflineSession
        from repro.dot.writer import graph_to_dot

        if self.graph is None:
            raise StethoscopeError("no plan was received during the run")
        return OfflineSession(graph_to_dot(self.graph), self.events,
                              threshold_usec)


class OnlineSession:
    """Drives one online monitoring run.

    Args:
        connection: the textual-stethoscope connection the server
            streams to.
        run_query: launches the query on the server (called in the query
            thread); its return value lands in the result.
        workdir: where the dot and trace files are written.
        backlog_threshold: render-queue backlog above which GREEN
            actions are sampled out.
    """

    def __init__(self, connection: ServerConnection,
                 run_query: Callable[[], Any],
                 workdir: str,
                 backlog_threshold: int = 32) -> None:
        self.connection = connection
        self.run_query = run_query
        self.workdir = workdir
        self.backlog_threshold = backlog_threshold

    def run(self, timeout_s: float = 30.0,
            settle_s: float = 0.5) -> OnlineResult:
        """Run listener, query and monitor threads until the stream ends.

        A stream damaged by UDP loss — missing END marker, sequence
        gaps, duplicated or reordered datagrams, an unparseable dot
        shipment — neither raises nor mis-animates: the monitor exits
        once the query is finished and the stream has been silent for
        ``settle_s``, normalises the events it did receive (deduplicate,
        reorder by sequence, interpolate lost starts), wipes the display
        and repaints the final coloring from the clean stream, and
        reports a :class:`TraceHealth` with a completeness score.
        """
        ONLINE_RUNS.inc()
        stop = threading.Event()
        query_out: List[Any] = []
        query_err: List[BaseException] = []

        def listener() -> None:
            while not stop.is_set() and not self.connection.ended:
                self.connection.drain(timeout=0.02)

        def query() -> None:
            try:
                query_out.append(self.run_query())
            except BaseException as exc:  # surfaced after join
                query_err.append(exc)

        listener_thread = threading.Thread(target=listener, daemon=True)
        query_thread = threading.Thread(target=query, daemon=True)
        listener_thread.start()
        query_thread.start()

        from repro.core.progress import PopupManager, ProgressWindow

        graph: Optional[Digraph] = None
        space: Optional[VirtualSpace] = None
        painter: Optional[GraphPainter] = None
        colorizer = PairSequenceColorizer()
        progress: Optional[ProgressWindow] = None
        popups = PopupManager(POPUP_THRESHOLD_USEC)
        analysis = TraceAnalyzer()
        consumed = 0
        sampled_out = 0
        plan_damaged = False
        dot_lines_tried = 0
        began = time.monotonic()
        deadline = began + timeout_s
        last_activity = began

        def elapsed_ms() -> float:
            return (time.monotonic() - began) * 1000.0

        while time.monotonic() < deadline:
            if graph is None and self.connection.dot_lines and \
                    (self.connection.events or self.connection.ended) and \
                    len(self.connection.dot_lines) > dot_lines_tried:
                # dot content is complete once execution events flow;
                # a truncated shipment may fail to parse — retry only
                # if more dot lines arrive, never crash the monitor
                dot_lines_tried = len(self.connection.dot_lines)
                try:
                    graph = parse_dot(self.connection.dot_text())
                except DotError:
                    plan_damaged = True
                else:
                    plan_damaged = False
                    space = build_virtual_space(layout_graph(graph))
                    painter = GraphPainter(space)
            if graph is not None and progress is None:
                progress = ProgressWindow(plan_size=graph.node_count())
            new_events = self.connection.events[consumed:]
            consumed += len(new_events)
            if new_events:
                ONLINE_EVENTS.inc(len(new_events))
                last_activity = time.monotonic()
            for event in new_events:
                if progress is not None:
                    progress.observe(event)
                popups.observe(event)
                analysis.push(event)
                actions = colorizer.push(event)
                if painter is not None:
                    sampled_out += self._apply_sampled(painter, actions)
            if new_events:
                popups.tick(new_events[-1].clock_usec)
            if painter is not None:
                painter.pump(elapsed_ms())
            if self.connection.ended and consumed >= len(
                self.connection.events
            ):
                break
            if not query_thread.is_alive() and \
                    time.monotonic() - last_activity > settle_s:
                # query finished and the stream has gone quiet without
                # an END marker — it was lost; do not wait out the full
                # timeout
                break
            time.sleep(0.005)
        stop.set()
        listener_thread.join(timeout=2.0)
        query_thread.join(timeout=2.0)
        if query_err:
            raise query_err[0]
        clean, health = analyze_stream(
            self.connection.events,
            trust_gaps=self.connection.dropped == 0,
        )
        health.ended = self.connection.ended
        health.plan_damaged = plan_damaged
        degraded = health.degraded
        ONLINE_COMPLETENESS.observe(health.completeness * 100.0)
        if degraded:
            ONLINE_DEGRADED.inc()
            if health.gaps:
                ONLINE_SEQUENCE_GAPS.inc(health.gaps)
            clean, health.interpolated = interpolate_pairs(clean)
            if health.interpolated:
                ONLINE_INTERPOLATED.inc(health.interpolated)
            # repaint and re-fold from the normalised stream: the wiped
            # display, a fresh colorizer and a fresh analysis see the
            # events as if they had arrived in order, so they match a
            # clean run's
            colorizer = PairSequenceColorizer()
            analysis = TraceAnalyzer(clean)
            if painter is not None:
                painter.reset()
            for event in clean:
                actions = colorizer.push(event)
                if painter is not None:
                    painter.apply_all(actions)
        final_actions = colorizer.finish()
        if painter is not None:
            painter.apply_all(final_actions)
            painter.flush()
        dot_path = trace_path = None
        if self.connection.dot_lines:
            dot_path = os.path.join(self.workdir, "plan.dot")
            self.connection.write_dot_file(dot_path)
        if self.connection.events:
            trace_path = os.path.join(self.workdir, "query.trace")
            self.connection.write_trace_file(trace_path)
        return OnlineResult(
            graph=graph, space=space, painter=painter,
            events=list(self.connection.events),
            dot_path=dot_path, trace_path=trace_path,
            query_result=query_out[0] if query_out else None,
            sampled_out=sampled_out,
            red_pcs=sorted(colorizer.currently_red),
            progress=progress,
            popups=list(popups.popups),
            health=health,
            degraded=degraded,
            clean_events=clean,
            analysis=analysis,
        )

    def _apply_sampled(self, painter: GraphPainter,
                       actions: List[ColorAction]) -> int:
        """Apply actions with backlog-based sampling; returns drops."""
        dropped = 0
        for action in actions:
            if (painter.backlog() > self.backlog_threshold
                    and action.color == GREEN):
                dropped += 1
                continue
            painter.apply(action)
        if dropped:
            ONLINE_SAMPLED_OUT.inc(dropped)
        return dropped
