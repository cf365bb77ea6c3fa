"""The paper's claims, one test each.

Section 1 lists five features; §4.2.1 gives a worked example; §5
describes the offline/online demos; §6 reports a discovered anomaly.
This module is the checklist showing each claim holds in the
reproduction — it intentionally reads like the paper.
"""

import pytest

from repro import (
    Database,
    PairSequenceColorizer,
    Profiler,
    Stethoscope,
    plan_to_dot,
    populate,
    query_sql,
)
from repro.core.analysis import TraceAnalyzer
from repro.mal.dataflow import SimulatedScheduler
from repro.profiler.events import TraceEvent
from repro.viz.color import RED


@pytest.fixture(scope="module")
def db():
    database = Database(workers=4, mitosis_threshold=400)
    populate(database.catalog, scale_factor=0.2, seed=11)
    return database


def offline_session(db, sql, **kwargs):
    profiler = Profiler()
    outcome = db.execute(sql, listener=profiler)
    return Stethoscope.offline_from_memory(
        plan_to_dot(outcome.program), profiler.events, **kwargs
    )


class TestFeatureList:
    """Section 1: 'Stethoscope provides the following features:'"""

    def test_feature_1_interactive_animated_navigation(self, db):
        """1. Interactive animated navigation in complex query plans."""
        session = offline_session(db, query_sql("q3"))
        navigator = session.navigator(animated=True)
        first = navigator.current
        moved = navigator.downstream()
        assert moved is not None and moved != first
        assert navigator.back() == first

    def test_feature_2_color_coded_state_monitoring(self, db):
        """2. Color coded monitoring of query execution state changes."""
        session = offline_session(db, query_sql("q1"))
        session.replay.run_to_end()
        # under parallel execution long instructions were overtaken, so
        # state changes were painted
        assert session.painter.rendered

    def test_feature_3_debug_window_and_tooltips(self, db):
        """3. Run time analysis of execution states using debug window,
        tool tip text."""
        session = offline_session(db, query_sql("q6"))
        session.replay.run_to_end()
        window = session.debug_window("watch", {1, 2, 3})
        assert any(r.state == "done" for r in window.rows())
        tooltip = session.tooltip("n1")
        assert "elapsed:" in tooltip or "state:" in tooltip

    def test_feature_4_flexible_trace_filtering(self, db):
        """4. Flexible options for filtering of execution traces."""
        from repro.profiler import EventFilter

        profiler = Profiler(EventFilter(modules={"algebra"},
                                        statuses={"done"}))
        db.execute(query_sql("q6"), listener=profiler)
        assert profiler.events
        assert all(e.module == "algebra" for e in profiler.events)
        assert all(e.status == "done" for e in profiler.events)

    def test_feature_5_plans_over_1000_nodes(self):
        """5. Support for large query plans with graph representation of
        more than 1000 nodes."""
        from repro.dot import plan_to_graph
        from repro.layout import layout_graph
        from repro.workloads import synthetic_plan

        plan = synthetic_plan(chains=170, chain_length=4)
        graph = plan_to_graph(plan)
        assert graph.node_count() > 1000
        layout = layout_graph(graph)
        assert len(layout.node_ids) == graph.node_count()


class TestSection421:
    """The colouring algorithm's worked example, verbatim."""

    def test_worked_example(self):
        pairs = [("start", 1), ("done", 1), ("start", 2), ("done", 2),
                 ("start", 3), ("start", 4)]
        colorizer = PairSequenceColorizer()
        actions = []
        for index, (status, pc) in enumerate(pairs):
            actions.extend(colorizer.push(TraceEvent(
                event=index, clock_usec=index, status=status, pc=pc,
                thread=0, usec=0, rss_bytes=0, stmt="s",
            )))
        # "The graph nodes corresponding to first four statements will
        # not be colored ... the graph node corresponding to the fifth
        # instruction with pc=3 will be colored in RED."
        assert [(a.pc, a.color) for a in actions] == [(3, RED)]


class TestSection33Mapping:
    """'An instruction execution trace statement with pc=1 maps to the
    node n1 in the dot file.'"""

    def test_pc_node_mapping(self, db):
        session = offline_session(db, query_sql("demo"))
        for event in session.events:
            node = session.graph.node(f"n{event.pc}")
            assert node.label == event.stmt


class TestSection4Workflow:
    """'The dot file gets parsed and an intermediate svg representation
    gets created.  In the next step, the svg file gets parsed and an in
    memory graph structure gets created.'"""

    def test_dot_svg_graph_chain(self, db):
        session = offline_session(db, query_sql("demo"))
        from repro.svg import layout_to_svg, parse_svg, svg_to_graph

        svg_text = layout_to_svg(session.layout)
        assert set(parse_svg(svg_text).node_ids) == set(session.graph.nodes)
        graph = svg_to_graph(svg_text)
        for node_id, node in session.graph.nodes.items():
            assert graph.node(node_id).label == node.label


class TestSection5Demos:
    def test_offline_replay_controls(self, db):
        """'Fast-forward, rewind, and pause functionality of the trace
        replay.'"""
        session = offline_session(db, query_sql("q6"))
        session.replay.fast_forward(10)
        session.replay.pause()
        assert session.replay.step() is None
        session.replay.resume()
        session.replay.rewind(5)
        assert session.replay.position == 5

    def test_costly_instruction_coloring_between_states(self, db):
        """'Finding costly instructions by coloring during trace replay
        between two instruction states.'"""
        session = offline_session(db, query_sql("q1"))
        session.replay.run_to_end()
        window = session.replay.costly_between(
            0, len(session.events), top=3
        )
        assert len(window) == 3
        assert window[0].usec >= window[-1].usec

    def test_birdseye_of_whole_trace(self, db):
        """'Birds eye view of the entire trace, to understand the
        sequence of instruction execution clustering.'"""
        session = offline_session(db, query_sql("q1"))
        text = session.birdseye()
        assert "%" in text  # proportional clustering bands

    def test_multicore_utilization_analysis(self, db):
        """'Multi-core utilisation analysis exhibits degree of
        multi-threaded parallelization of MAL instructions.'"""
        session = offline_session(db, query_sql("q1"))
        profile = session.analysis.parallelism_profile()
        assert profile.threads_used > 1
        assert profile.max_concurrency > 1


class TestSection6Finding:
    """'Using Stethoscope we have uncovered several unusual cases, such
    as sequential execution of a MAL plan where multithreaded execution
    was expected.'"""

    def test_anomaly_uncovered(self, db):
        db.set_pipeline("sequential_pipe")
        try:
            profiler = Profiler()
            db.execute(query_sql("q1"), listener=profiler)
        finally:
            db.set_pipeline("default_pipe")
        anomaly = TraceAnalyzer(profiler.events).sequential_anomaly(
            expected_threads=4)
        assert anomaly.detected

    @pytest.mark.parametrize("query, pipeline, sequential", [
        ("q6", "default_pipe", False),
        ("q1", "sequential_pipe", True)])
    def test_anomaly_on_a_four_worker_trace(self, db, query, pipeline,
                                            sequential):
        """The same detector on a trace four modelled workers produced:
        a plan the dataflow pass prepared is spread over the workers, one
        it did not runs on one thread and is flagged."""
        program = db.compile(query_sql(query), pipeline_name=pipeline)
        profiler = Profiler()
        SimulatedScheduler(db.catalog, workers=4,
                           listener=profiler).run(program)
        anomaly = TraceAnalyzer(profiler.events).sequential_anomaly(
            expected_threads=4)
        assert anomaly.detected is sequential, anomaly.explanation
