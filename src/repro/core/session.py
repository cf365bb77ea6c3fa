"""The Stethoscope facade: one analysis session for both modes.

The paper's offline workflow (§4): "the dot file gets parsed and an
intermediate scalar vector graphics (svg) representation gets created.
In the next step, the svg file gets parsed and an in memory graph
structure gets created. ... Stethoscope parses the trace file in a
sequential manner."  The svg step was how an external GraphViz handed
its layout back; here the layout is in memory, so a session keeps the
``parse_dot`` graph and builds the display from the layout.  The
two-step parse lives in :mod:`repro.svg`, the importer for SVG files;
``tests/test_scene_routes.py`` checks that it recovers the same graph.

Online mode (§4.2) differs only in where the events come from: a live
stream is pushed into the session (:func:`repro.core.online.run_online`).
"""

from __future__ import annotations

import os
from functools import cached_property
from typing import Callable, List, Optional

from repro.core.analysis import TraceAnalyzer, render_birdseye
from repro.core.coloring import ColorAction
from repro.core.inspect import DebugWindow, tooltip_text
from repro.core.mapping import PlanTraceMap
from repro.core.painter import GraphPainter
from repro.core.progress import ProgressWindow
from repro.core.pruning import prune_administrative
from repro.core.replay import ReplayController
from repro.core.textual import ServerConnection
from repro.dot.graph import Digraph
from repro.dot.parser import parse_dot
from repro.errors import StethoscopeError
from repro.layout import layout_graph
from repro.profiler.events import TraceEvent
from repro.profiler.traceio import iter_trace
# unused here, but benchmarks/e2e's tracer patches both names in this module
from repro.svg import layout_to_svg, svg_to_graph  # noqa: F401
from repro.viz.color import gradient_for
from repro.viz.view import View
from repro.viz.vspace import build_virtual_space


#: The views :meth:`OfflineSession.push` folds an event into once they
#: are built, and how each folds one.
_FOLDS = {
    "analysis": TraceAnalyzer.push,
    "progress": ProgressWindow.observe,
}


class OfflineSession:
    """An interactive analysis session over a plan and its trace: a dot
    file and a trace file, or a live stream pushed event by event."""

    def __init__(self, dot_text: str, events: List[TraceEvent],
                 threshold_usec: Optional[int] = None) -> None:
        self.graph: Digraph = parse_dot(dot_text)
        # before the layout: a trace of another plan fails in parse time
        self.trace_map = PlanTraceMap(self.graph, events)
        self.layout = layout_graph(self.graph)
        self.space = build_virtual_space(self.layout)
        self.view = View(self.space)
        self.view.fit_all()
        self.painter = GraphPainter(self.space)
        # the one event list: the replay reads what the map was pushed
        self.replay = ReplayController(self.trace_map.events, self.painter,
                                       threshold_usec)

    def push(self, event: TraceEvent) -> None:
        """Feed one more event (a live stream's): mapped to its node
        (:class:`~repro.errors.MappingError` when the plan has none),
        appended to the trace the replay reads, and folded into each view
        already built.  A view built later folds the whole trace then."""
        self.trace_map.push(event)
        built = self.__dict__
        for view, fold in _FOLDS.items():
            if view in built:
                fold(built[view], event)

    def reset(self) -> None:
        """Forget the trace: no events, the replay back at 0 over a wiped
        display, and no folded view (the degraded online path, before it
        pushes the repaired stream)."""
        self.trace_map.clear()
        self.replay.seek(0)
        for view in _FOLDS:
            self.__dict__.pop(view, None)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        return self.trace_map.events

    def tooltip(self, node_id: str) -> str:
        """Tool-tip text for one node."""
        return tooltip_text(self.trace_map, node_id)

    def navigator(self, animated: bool = False):
        """A :class:`~repro.core.navigation.Navigator` over this plan,
        camera-coupled to the session's view."""
        from repro.core.navigation import Navigator
        from repro.viz.animation import Animator

        return Navigator(
            self.graph, self.layout, view=self.view,
            animator=Animator() if animated else None,
        )

    def debug_window(self, name: str, pcs) -> DebugWindow:
        """A debug-options window over selected pcs, pre-fed with the
        events replayed so far."""
        window = DebugWindow(name, set(pcs))
        for event in self.events[: self.replay.position]:
            window.observe(event)
        return window

    @cached_property
    def analysis(self) -> TraceAnalyzer:
        """Every analysis view of the full trace, folded on first use."""
        return TraceAnalyzer(self.events)

    @cached_property
    def progress(self) -> ProgressWindow:
        """The progress window over the trace, folded on first use."""
        window = ProgressWindow(plan_size=self.graph.node_count())
        for event in self.events:
            window.observe(event)
        return window

    def birdseye(self, width: int = 72) -> str:
        """The bird's-eye trace clustering band."""
        return render_birdseye(self.analysis.segments(), width)

    def thread_utilization(self):
        return self.analysis.thread_utilization()

    def costly_clusters(self, fraction: float = 0.8):
        return self.analysis.costly_clusters(fraction)

    # ------------------------------------------------------------------
    # display extensions
    # ------------------------------------------------------------------

    def apply_gradient_coloring(self) -> int:
        """Future-work feature: paint every executed node on the
        GREEN→RED gradient according to its execution time."""
        done = [e for e in self.events if e.status == "done"]
        if not done:
            return 0
        low = min(e.usec for e in done)
        high = max(e.usec for e in done)
        colors = {}  # usec -> colour: plans repeat a few timings
        actions = []
        for event in done:
            color = colors.get(event.usec)
            if color is None:
                color = colors[event.usec] = gradient_for(event.usec, low,
                                                          high)
            actions.append(ColorAction(event.pc, color, "gradient"))
        self.painter.apply_all(actions)
        self.painter.flush()
        return len(actions)

    def pruned_view(self, prune_result_plumbing: bool = False) -> Digraph:
        """The plan with administrative instructions pruned out."""
        return prune_administrative(
            self.graph, prune_result_plumbing=prune_result_plumbing
        )

    def render_ascii(self, columns: int = 100, rows: int = 36) -> str:
        """Render the current display state as text."""
        return self.view.render_ascii(columns, rows)

    def save_svg(self, path: str) -> None:
        """Write the display (current colours) as an SVG file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.view.render_svg())

    def save_screenshot(self, path: str, width: int = 1280,
                        height: int = 960) -> None:
        """Write the display (current colours) as a PPM image."""
        from repro.viz.raster import screenshot

        screenshot(self.space, path, width=width, height=height)

    def minimap(self, columns: int = 48, rows: int = 16) -> str:
        """Overview+detail: the whole plan with the view's viewport
        rectangle marked."""
        from repro.viz.minimap import Minimap

        return Minimap(self.space, columns, rows).render(self.view)


class Stethoscope:
    """Top-level entry point mirroring the paper's two modes."""

    @staticmethod
    def offline(dot_path: str, trace_path: str,
                threshold_usec: Optional[int] = None) -> OfflineSession:
        """Open an offline session from files on disk (paper §4.1:
        "Offline mode needs access to a preexisting dot file and trace
        file")."""
        if not os.path.exists(dot_path):
            raise StethoscopeError(f"no dot file at {dot_path!r}")
        if not os.path.exists(trace_path):
            raise StethoscopeError(f"no trace file at {trace_path!r}")
        with open(dot_path, encoding="utf-8") as handle:
            dot_text = handle.read()
        events = list(iter_trace(trace_path))
        return OfflineSession(dot_text, events, threshold_usec)

    @staticmethod
    def offline_from_memory(dot_text: str, events: List[TraceEvent],
                            threshold_usec: Optional[int] = None
                            ) -> OfflineSession:
        """Open an offline session from in-memory plan and trace."""
        return OfflineSession(dot_text, events, threshold_usec)

    @staticmethod
    def online(connection: ServerConnection, run_query: Callable,
               workdir: str, backlog_threshold: int = 32,
               timeout_s: float = 30.0, settle_s: float = 0.5):
        """Monitor one query live (paper §4.2); returns its
        :class:`~repro.core.online.OnlineRun`."""
        from repro.core.online import run_online

        return run_online(connection, run_query, workdir,
                          backlog_threshold, timeout_s, settle_s)
