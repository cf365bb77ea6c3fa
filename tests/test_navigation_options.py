"""Tests for the navigation strategies and the filter-options window."""

import pytest

from repro.core.mapping import PlanTraceMap
from repro.core.navigation import Navigator
from repro.core.options import FilterOptionsWindow
from repro.core.painter import GraphPainter
from repro.dot import plan_to_graph
from repro.errors import StethoscopeError
from repro.layout import layout_graph
from repro.mal.parser import parse_instruction_text
from repro.profiler.events import TraceEvent
from repro.viz import Animator, View, build_virtual_space
from repro.viz.color import GREEN, RED

from tests.boxes import boxes

PLAN_TEXT = """
    X_1 := sql.mvc();
    X_2 := sql.bind(X_1,"sys","t","a",0);
    X_3 := sql.bind(X_1,"sys","t","b",0);
    X_4 := algebra.select(X_2,1);
    X_5 := algebra.leftjoin(X_4,X_3);
    sql.exportResult(X_5);
"""


@pytest.fixture
def setup():
    graph = plan_to_graph(parse_instruction_text(PLAN_TEXT))
    layout = layout_graph(graph)
    return graph, layout


class TestNavigator:
    def test_starts_at_a_root(self, setup):
        graph, layout = setup
        navigator = Navigator(graph, layout)
        assert navigator.current in graph.roots()

    def test_downstream_upstream(self, setup):
        graph, layout = setup
        navigator = Navigator(graph, layout)
        navigator.goto("n1")
        assert navigator.downstream() == "n3"  # bind -> select
        assert navigator.upstream() == "n1"

    def test_downstream_at_leaf_returns_none(self, setup):
        graph, layout = setup
        navigator = Navigator(graph, layout)
        navigator.goto("n5")
        assert navigator.downstream() is None

    def test_sibling_moves_within_rank(self, setup):
        graph, layout = setup
        navigator = Navigator(graph, layout)
        navigator.goto("n1")  # n1 and n2 share the bind rank
        moved = navigator.sibling(1) or navigator.sibling(-1)
        assert moved == "n2"

    def test_next_in_plan(self, setup):
        graph, layout = setup
        navigator = Navigator(graph, layout)
        navigator.goto("n0")
        assert navigator.next_in_plan() == "n1"
        navigator.goto("n5")
        assert navigator.next_in_plan() is None

    def test_goto_unknown_raises(self, setup):
        graph, layout = setup
        with pytest.raises(StethoscopeError):
            Navigator(graph, layout).goto("n99")

    def test_history_back_forward(self, setup):
        graph, layout = setup
        navigator = Navigator(graph, layout)
        navigator.goto("n0")
        navigator.goto("n3")
        navigator.goto("n5")
        assert navigator.back() == "n3"
        assert navigator.back() == "n0"
        assert navigator.forward() == "n3"
        assert navigator.current == "n3"

    def test_back_on_empty_history(self, setup):
        graph, layout = setup
        assert Navigator(graph, layout).back() is None

    def test_camera_follows(self, setup):
        graph, layout = setup
        space = build_virtual_space(layout)
        view = View(space)
        navigator = Navigator(graph, layout, view=view)
        navigator.goto("n4")
        node = boxes(layout)["n4"]
        assert (view.camera.x, view.camera.y) == (node.x, node.y)

    def test_animated_camera(self, setup):
        graph, layout = setup
        space = build_virtual_space(layout)
        view = View(space)
        animator = Animator()
        navigator = Navigator(graph, layout, view=view, animator=animator)
        navigator.goto("n4")
        assert animator.active == 1
        animator.run_to_completion()
        node = boxes(layout)["n4"]
        assert view.camera.x == pytest.approx(node.x)

    def test_next_colored(self, setup):
        graph, layout = setup
        space = build_virtual_space(layout)
        painter = GraphPainter(space)
        from repro.core.coloring import ColorAction

        painter.apply(ColorAction(4, RED, "t"))
        painter.apply(ColorAction(2, GREEN, "t"))
        painter.flush()
        navigator = Navigator(graph, layout)
        navigator.goto("n0")
        assert navigator.next_colored(painter, RED) == "n4"
        navigator.goto("n0")
        assert navigator.next_colored(painter) == "n2"

    def test_most_expensive(self, setup):
        graph, layout = setup
        events = [
            TraceEvent(0, 100, "done", 1, 0, 50, 0, "x := a.b();"),
            TraceEvent(1, 200, "done", 4, 0, 900, 0, "x := a.b();"),
        ]
        trace_map = PlanTraceMap(graph, events)
        navigator = Navigator(graph, layout)
        assert navigator.most_expensive(trace_map) == "n4"


class TestFilterOptionsWindow:
    def test_default_filter_matches_everything(self):
        window = FilterOptionsWindow()
        event_filter = window.build()
        assert event_filter.statuses is None
        assert event_filter.modules is None
        assert event_filter.min_usec == 0

    def test_toggle_status(self):
        window = FilterOptionsWindow()
        window.toggle_status("start")
        event_filter = window.build()
        assert event_filter.statuses == {"done"}

    def test_toggle_unknown_status(self):
        with pytest.raises(ValueError):
            FilterOptionsWindow().toggle_status("paused")

    def test_toggle_module(self):
        window = FilterOptionsWindow()
        window.toggle_module("language")
        modules = window.build().modules
        assert modules is not None and "language" not in modules

    def test_only_modules(self):
        window = FilterOptionsWindow()
        window.only_modules("algebra", "aggr")
        assert window.build().modules == {"algebra", "aggr"}

    def test_threshold(self):
        window = FilterOptionsWindow()
        window.set_threshold(500)
        assert window.build().min_usec == 500
        with pytest.raises(ValueError):
            window.set_threshold(-1)

    def test_wire_options(self):
        window = FilterOptionsWindow()
        window.toggle_status("start")
        window.only_modules("algebra")
        window.set_threshold(10)
        options = window.to_wire_options()
        assert options == {"statuses": ["done"], "modules": ["algebra"],
                           "min_usec": 10}

    def test_wire_options_empty_when_default(self):
        assert FilterOptionsWindow().to_wire_options() == {}

    def test_filter_actually_filters(self):
        window = FilterOptionsWindow()
        window.only_modules("algebra")
        window.toggle_status("start")
        event_filter = window.build()
        keep = TraceEvent(0, 0, "done", 1, 0, 5, 0,
                          "X := algebra.select(Y,1);")
        drop_module = TraceEvent(1, 0, "done", 2, 0, 5, 0,
                                 "X := sql.mvc();")
        drop_status = TraceEvent(2, 0, "start", 1, 0, 0, 0,
                                 "X := algebra.select(Y,1);")
        assert event_filter.matches(keep)
        assert not event_filter.matches(drop_module)
        assert not event_filter.matches(drop_status)

    def test_render(self):
        window = FilterOptionsWindow()
        window.toggle_module("sql")
        text = window.render()
        assert "[ ] module sql" in text
        assert "[x] module algebra" in text
