"""The Stethoscope facade: offline and online analysis sessions.

The paper's offline workflow (§4): "the dot file gets parsed and an
intermediate scalar vector graphics (svg) representation gets created.
In the next step, the svg file gets parsed and an in memory graph
structure gets created. ... Stethoscope parses the trace file in a
sequential manner."  The svg step was how an external GraphViz handed
its layout back; here the layout is in memory, so a session keeps the
``parse_dot`` graph and builds the display from the layout.  The
two-step parse lives in :mod:`repro.svg`, the importer for SVG files;
``tests/test_scene_routes.py`` checks that it recovers the same graph.
"""

from __future__ import annotations

import os
from functools import cached_property
from typing import Callable, List, Optional

from repro.core.analysis import TraceAnalyzer, render_birdseye
from repro.core.coloring import ColorAction
from repro.core.inspect import DebugWindow, tooltip_text
from repro.core.mapping import PlanTraceMap
from repro.core.online import OnlineSession
from repro.core.painter import GraphPainter
from repro.core.pruning import prune_administrative
from repro.core.replay import ReplayController
from repro.core.textual import ServerConnection, TextualStethoscope
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


class OfflineSession:
    """An interactive analysis session over a dot file and a trace file."""

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
        self.replay = ReplayController(events, self.painter, threshold_usec)

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
        painted = 0
        for event in done:
            color = gradient_for(event.usec, low, high)
            self.painter.apply(ColorAction(event.pc, color, "gradient"))
            painted += 1
        self.painter.flush()
        return painted

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
        with open(path, "w") as handle:
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
        with open(dot_path) as handle:
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
               workdir: str, backlog_threshold: int = 32) -> OnlineSession:
        """Prepare an online session against a live server connection."""
        return OnlineSession(connection, run_query, workdir,
                             backlog_threshold)
