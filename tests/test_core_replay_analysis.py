"""Tests for replay, painter, analysis, bird's-eye, pruning and
micro-analysis — the Stethoscope's offline feature set."""

import pytest

from repro.core.analysis import TraceAnalyzer, render_birdseye
from repro.core.coloring import ColorAction
from repro.core.inspect import DebugWindow
from repro.core.painter import RENDER_INTERVAL_MS, GraphPainter
from repro.core.replay import ReplayController
from repro.dot import plan_to_graph
from repro.errors import StethoscopeError
from repro.layout import layout_graph
from repro.mal.parser import parse_instruction_text
from repro.profiler.events import TraceEvent
from repro.viz.color import GREEN, RED, WHITE
from repro.viz.vspace import build_virtual_space
from repro.workloads import synthetic_plan, trace_for_program

PLAN_TEXT = """
    X_1 := sql.mvc();
    X_2 := sql.bind(X_1,"sys","t","x",0);
    X_3 := algebra.select(X_2,1);
    X_4 := algebra.leftjoin(X_3,X_2);
    sql.exportResult(X_4);
"""


def make_event(seq, status, pc, clock=None, usec=10, thread=0,
               module="algebra", rss=1024):
    stmt = f"X_{pc} := {module}.op();"
    return TraceEvent(
        event=seq, clock_usec=clock if clock is not None else seq * 100,
        status=status, pc=pc, thread=thread,
        usec=usec if status == "done" else 0, rss_bytes=rss, stmt=stmt,
    )


def slow_trace():
    """pc2 is long-running (overtaken); others are fast pairs."""
    return [
        make_event(0, "start", 0), make_event(1, "done", 0),
        make_event(2, "start", 1), make_event(3, "done", 1),
        make_event(4, "start", 2),
        make_event(5, "start", 3), make_event(6, "done", 3),
        make_event(7, "done", 2, usec=400),
        make_event(8, "start", 4), make_event(9, "done", 4),
    ]


@pytest.fixture
def painter():
    layout = layout_graph(plan_to_graph(parse_instruction_text(PLAN_TEXT)))
    space = build_virtual_space(layout)
    return GraphPainter(space)


class TestPainter:
    def test_apply_and_flush(self, painter):
        painter.apply(ColorAction(2, RED, "test"))
        assert painter.color_of("n2") is None  # queued, not yet rendered
        painter.flush()
        assert painter.color_of("n2") == RED
        assert painter.space.shape_of("n2").fill == RED

    def test_backlog_counts_unrendered(self, painter):
        for pc in range(5):
            painter.apply(ColorAction(pc, RED, "t"))
        assert painter.backlog() == 5

    def test_unknown_node_ignored(self, painter):
        painter.apply(ColorAction(999, RED, "t"))
        painter.flush()
        assert painter.color_of("n999") is None

    def test_min_interval_enforced(self, painter):
        for pc in range(5):
            painter.apply(ColorAction(pc, RED, "t"))
        assert painter.pump(0) == 1  # the first paints immediately
        assert painter.color_of("n0") == RED
        assert painter.color_of("n1") is None
        assert painter.pump(RENDER_INTERVAL_MS - 1) == 0
        assert painter.pump(RENDER_INTERVAL_MS) == 1
        assert painter.color_of("n1") == RED
        assert painter.pump(10_000) == 3
        assert painter.backlog() == 0

    def test_backlog_growth_when_overloaded(self, painter):
        for index in range(100):
            painter.apply(ColorAction(index % 5, RED, "t"))
        painter.pump(1000)  # room for ~7 renders
        assert painter.backlog() > 90

    def test_flush_paints_everything(self, painter):
        for index in range(10):
            painter.apply(ColorAction(index % 5, RED, "t"))
        assert painter.flush() == 10
        assert painter.backlog() == 0
        assert painter.clock_ms >= 9 * RENDER_INTERVAL_MS

    def test_max_latency_reflects_queueing(self, painter):
        for pc in range(5):
            painter.apply(ColorAction(pc, RED, "t"))
        painter.flush()
        # the 5th waited 4 slots
        assert painter.max_latency_ms() == 4 * RENDER_INTERVAL_MS

    def test_reset_wipes_display_and_queue(self, painter):
        painter.apply(ColorAction(1, RED, "t"))
        painter.flush()
        painter.apply(ColorAction(2, GREEN, "t"))  # still queued
        painter.reset()
        assert painter.rendered == {} and painter.history == []
        assert painter.backlog() == 0
        for node in painter.space.node_ids():
            assert painter.space.shape_of(node).fill == WHITE


class TestReplay:
    def make(self, painter, threshold=None):
        return ReplayController(slow_trace(), painter, threshold)

    def test_step_advances(self, painter):
        replay = self.make(painter)
        event = replay.step()
        assert event.event == 0 and replay.position == 1

    def test_step_colors_long_instruction(self, painter):
        replay = self.make(painter)
        replay.fast_forward(6)  # through start2, start3
        assert painter.color_of("n2") == RED
        replay.run_to_end()
        assert painter.color_of("n2") == GREEN

    def test_fast_instructions_never_colored(self, painter):
        replay = self.make(painter)
        replay.run_to_end()
        for node in ("n0", "n1", "n4"):
            assert painter.color_of(node) is None

    def test_pause_blocks_stepping(self, painter):
        replay = self.make(painter)
        replay.pause()
        assert replay.step() is None
        replay.resume()
        assert replay.step() is not None

    def test_fast_forward_until_clock(self, painter):
        replay = self.make(painter)
        replay.fast_forward_until(350)
        assert replay.position == 4

    def test_rewind_resets_colors(self, painter):
        replay = self.make(painter)
        replay.run_to_end()
        assert painter.color_of("n2") == GREEN
        replay.rewind(4)  # back before done2
        assert replay.position == 6
        assert painter.space.shape_of("n2").fill == RED

    def test_seek_zero_blank_display(self, painter):
        replay = self.make(painter)
        replay.run_to_end()
        replay.seek(0)
        assert painter.space.shape_of("n2").fill == WHITE
        assert painter.color_of("n2") is None

    def test_seek_deterministic_vs_direct(self, painter):
        replay = self.make(painter)
        replay.run_to_end()
        replay.seek(7)
        via_seek = painter.space.shape_of("n2").fill
        replay.seek(0)
        replay.fast_forward(7)
        assert painter.space.shape_of("n2").fill == via_seek

    def test_seek_out_of_range(self, painter):
        with pytest.raises(StethoscopeError):
            self.make(painter).seek(99)

    def test_costly_between(self, painter):
        replay = self.make(painter)
        costly = replay.costly_between(0, len(slow_trace()), top=1)
        assert costly[0].pc == 2 and costly[0].usec == 400

    def test_costly_between_bad_window(self, painter):
        with pytest.raises(StethoscopeError):
            self.make(painter).costly_between(5, 2)

    def test_threshold_mode(self, painter):
        replay = self.make(painter, threshold=100)
        replay.run_to_end()
        assert painter.color_of("n2") == RED      # 400 >= 100
        assert painter.color_of("n0") == GREEN    # 10 < 100


class TestAnalysis:
    def parallel_trace(self):
        # two threads, overlapping work
        return [
            make_event(0, "start", 0, clock=0, thread=0),
            make_event(1, "start", 1, clock=0, thread=1),
            make_event(2, "done", 0, clock=100, usec=100, thread=0),
            make_event(3, "done", 1, clock=80, usec=80, thread=1),
            make_event(4, "start", 2, clock=100, thread=0),
            make_event(5, "done", 2, clock=150, usec=50, thread=0),
        ]

    def test_thread_utilization(self):
        report = TraceAnalyzer(self.parallel_trace()).thread_utilization()
        by_thread = {r.thread: r for r in report}
        assert by_thread[0].busy_usec == 150
        assert by_thread[1].busy_usec == 80
        assert by_thread[0].utilization == pytest.approx(1.0)

    def test_memory_by_operator_sorted_by_peak(self):
        events = [
            make_event(0, "done", 0, module="algebra", rss=100),
            make_event(1, "done", 1, module="sql", rss=5000),
        ]
        report = TraceAnalyzer(events).memory_by_operator()
        assert report[0].operator.startswith("sql.")

    def test_costly_instructions_top(self):
        top = TraceAnalyzer(slow_trace()).costly_instructions(top=2)
        assert top[0].pc == 2

    def test_costly_clusters_adjacent_merge(self):
        events = [
            make_event(0, "done", 3, usec=500),
            make_event(1, "done", 4, usec=400),
            make_event(2, "done", 9, usec=450),
            make_event(3, "done", 0, usec=1),
        ]
        clusters = TraceAnalyzer(events).costly_clusters(fraction=0.95)
        spans = {c.span for c in clusters}
        assert (3, 4) in spans and (9, 9) in spans

    def test_costly_clusters_empty(self):
        assert TraceAnalyzer().costly_clusters() == []

    def test_parallelism_profile(self):
        profile = TraceAnalyzer(self.parallel_trace()).parallelism_profile()
        assert profile.threads_used == 2
        assert profile.max_concurrency == 2
        assert profile.makespan_usec == 150
        assert profile.busy_usec == 230
        assert profile.speedup_vs_serial > 1.0

    def test_sequential_anomaly_detected(self):
        events = [
            make_event(0, "start", 0, thread=0),
            make_event(1, "done", 0, thread=0),
        ]
        anomaly = TraceAnalyzer(events).sequential_anomaly(
            expected_threads=4)
        assert anomaly.detected
        assert "dataflow" in anomaly.explanation

    def test_parallel_run_not_flagged(self):
        anomaly = TraceAnalyzer(self.parallel_trace()).sequential_anomaly(
            expected_threads=2)
        assert not anomaly.detected


class TestBirdseye:
    def test_segments_by_module(self):
        events = [
            make_event(0, "done", 0, module="sql"),
            make_event(1, "done", 1, module="sql"),
            make_event(2, "done", 2, module="algebra"),
            make_event(3, "done", 3, module="sql"),
        ]
        segments = TraceAnalyzer(events).segments()
        assert [s.module for s in segments] == ["sql", "algebra", "sql"]
        assert segments[0].count == 2

    def test_render_shows_shares(self):
        events = [
            make_event(0, "done", 0, module="sql", usec=100),
            make_event(1, "done", 1, module="algebra", usec=900),
        ]
        text = render_birdseye(TraceAnalyzer(events).segments())
        assert "algebra" in text and "90.0%" in text

    def test_render_empty(self):
        assert "empty" in render_birdseye([])


class TestDebugWindow:
    def test_watches_selected_pcs(self):
        window = DebugWindow("w", {2, 3})
        assert window.observe(make_event(0, "start", 1)) is None
        snap = window.observe(make_event(1, "start", 2))
        assert snap.state == "running"
        window.observe(make_event(2, "done", 2, usec=50))
        rows = window.rows()
        assert [r.state for r in rows] == ["done", "pending"]

    def test_render_contains_rows(self):
        window = DebugWindow("joins", {5})
        window.observe(make_event(0, "done", 5, usec=123))
        text = window.render()
        assert "pc=5" in text and "usec=123" in text


class TestSyntheticWorkloads:
    def test_plan_size_formula(self):
        plan = synthetic_plan(chains=167, chain_length=4)
        assert len(plan) > 1000  # the paper's "more than 1000 nodes"

    def test_plan_validates(self):
        synthetic_plan(chains=5).validate()

    def test_trace_covers_plan(self):
        plan = synthetic_plan(chains=4)
        events = trace_for_program(plan, workers=4)
        assert len(events) == 2 * len(plan)
        assert {e.pc for e in events} == set(range(len(plan)))

    def test_trace_deterministic(self):
        plan = synthetic_plan(chains=3)
        a = trace_for_program(plan, seed=5)
        b = trace_for_program(plan, seed=5)
        assert a == b

    def test_long_fraction_creates_outliers(self):
        plan = synthetic_plan(chains=10, chain_length=6)
        events = trace_for_program(plan, long_fraction=0.2, seed=3)
        durations = [e.usec for e in events if e.status == "done"]
        assert max(durations) > 100 * min(durations)

    def test_trace_respects_dependencies(self):
        plan = synthetic_plan(chains=3)
        events = trace_for_program(plan, workers=2)
        done_clock = {e.pc: e.clock_usec for e in events
                      if e.status == "done"}
        start_clock = {e.pc: e.clock_usec for e in events
                       if e.status == "start"}
        for pc, deps in plan.dependencies().items():
            for dep in deps:
                assert done_clock[dep] <= start_clock[pc]
