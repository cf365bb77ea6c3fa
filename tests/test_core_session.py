"""Tests for the Stethoscope facade: offline sessions, pruning,
micro-analysis, tooltips, gradient colouring."""

import gc
import os
import subprocess
import sys

import pytest

from repro import Database, populate
from repro.core.analysis import TraceAnalyzer
from repro.core.pruning import (
    ADMINISTRATIVE_FUNCTIONS,
    prune_administrative,
    pruning_report,
)
import repro.core.session as session_module
from repro.core.session import OfflineSession, Stethoscope
from repro.dot import plan_to_dot, plan_to_graph
from repro.errors import MappingError, StethoscopeError
from repro.layout import layout_graph
from repro.mal import Interpreter
from repro.mal.parser import parse_instruction_text
from repro.profiler import Profiler, write_trace
from repro.storage import Catalog, INT
from repro.svg import layout_to_svg, parse_svg, svg_to_graph
from repro.tpch import query_sql
from repro.viz.color import GREEN, RED, WHITE
from repro.workloads import synthetic_plan, trace_for_program


@pytest.fixture
def catalog():
    cat = Catalog()
    t = cat.schema().create_table("t", [("x", INT)])
    t.insert_many([[i % 10] for i in range(200)])
    return cat


PLAN_TEXT = """
    X_1 := sql.mvc();
    X_2 := sql.bind(X_1,"sys","t","x",0);
    X_3 := algebra.select(X_2,1);
    X_4 := bat.mirror(X_3);
    X_5 := algebra.leftjoin(X_4,X_2);
    X_9 := sql.resultSet(1,1);
    X_10 := sql.rsColumn(X_9,"sys.t","x","int",X_5);
    sql.exportResult(X_10);
"""


def run_and_capture(catalog):
    program = parse_instruction_text(PLAN_TEXT)
    profiler = Profiler()
    Interpreter(catalog, listener=profiler).run(program)
    return program, profiler.events


@pytest.fixture
def session(catalog):
    program, events = run_and_capture(catalog)
    return Stethoscope.offline_from_memory(plan_to_dot(program), events)


class TestOfflineSession:
    def test_workflow_builds_graph_from_svg(self, session):
        # the dot -> layout -> svg -> parse chain of §4 yields the graph
        # the session holds (it keeps the dot one, opened once)
        assert set(session.graph.nodes) == {f"n{i}" for i in range(8)}
        svg_text = layout_to_svg(session.layout)
        assert svg_text.startswith('<?xml')
        recovered = svg_to_graph(svg_text)
        assert list(recovered.nodes) == list(session.graph.nodes)
        assert [(e.src, e.dst) for e in recovered.edges] \
            == [(e.src, e.dst) for e in session.graph.edges]

    def test_trace_mapped(self, session):
        assert session.trace_map.coverage() == 1.0

    def test_replay_end_to_end(self, session):
        ran = session.replay.run_to_end()
        assert ran == 16  # 8 instructions x start/done

    def test_tooltip_contains_timing(self, session):
        session.replay.run_to_end()
        text = session.tooltip("n2")
        assert "algebra.select" in text
        assert "elapsed:" in text and "usec" in text

    def test_tooltip_unexecuted(self, catalog):
        program, events = run_and_capture(catalog)
        session = Stethoscope.offline_from_memory(
            plan_to_dot(program), events[:2]
        )
        assert "not executed" in session.tooltip("n5")

    def test_debug_window_prefed(self, session):
        session.replay.fast_forward(6)
        window = session.debug_window("w", {0, 1, 2})
        states = {r.pc: r.state for r in window.rows()}
        assert states[0] == "done"

    def test_birdseye_text(self, session):
        text = session.birdseye()
        assert "sql" in text and "algebra" in text

    def test_analysis_is_folded_once_on_first_use(self, session):
        assert "analysis" not in vars(session)
        assert session.analysis is session.analysis
        assert session.analysis.events == session.events

    def test_analyzer_summary(self, session):
        summary = session.analysis.summary()
        assert summary["instructions"] == 8
        assert summary["events"] == 16
        assert summary["p95_usec"] >= summary["p50_usec"]

    def test_render_ascii(self, session):
        session.replay.run_to_end()
        text = session.render_ascii()
        assert "#" in text

    def test_save_svg(self, session, tmp_path):
        path = str(tmp_path / "display.svg")
        session.save_svg(path)
        with open(path) as f:
            assert "<svg" in f.read()

    def test_save_screenshot(self, session, tmp_path):
        from repro.viz.raster import load_ppm

        path = str(tmp_path / "display.ppm")
        session.replay.run_to_end()
        session.save_screenshot(path, width=320, height=240)
        image = load_ppm(path)
        assert (image.width, image.height) == (320, 240)

    def test_minimap_with_viewport(self, session):
        session.view.camera.zoom_in(3)
        text = session.minimap()
        assert "." in text and "+" in text

    def test_memory_sparkline(self, session):
        text = session.analysis.rss_sparkline(width=30)
        assert "peak" in text

    def test_gradient_coloring(self, session):
        painted = session.apply_gradient_coloring()
        assert painted == 8
        fills = {session.space.shape_of(f"n{i}").fill for i in range(8)}
        assert len(fills) > 1  # a range of colours, not binary
        assert WHITE not in fills

    def test_label_with_character_xml_forbids_opens_and_saves(self,
                                                              tmp_path):
        # a MAL string literal can put a control character in a label;
        # the saved display must still be a file an XML parser opens
        session = Stethoscope.offline_from_memory(
            'digraph G { n0 [label="a\x01b"]; n0 -> n1 }', [])
        assert session.graph.node("n0").label == "a\x01b"
        path = str(tmp_path / "display.svg")
        session.save_svg(path)
        with open(path) as f:
            saved = f.read()
        assert "a\ufffdb" in saved
        scene = parse_svg(saved)
        assert scene.edges == [("n0", "n1")]

    def test_trace_of_another_plan_fails_before_layout(self, catalog,
                                                       monkeypatch):
        program, events = run_and_capture(catalog)
        calls = []
        monkeypatch.setattr(
            session_module, "layout_graph",
            lambda graph: calls.append(graph) or layout_graph(graph))
        with pytest.raises(MappingError):
            Stethoscope.offline_from_memory(
                "digraph G { n0 -> n1 }", events)
        assert calls == []
        Stethoscope.offline_from_memory(plan_to_dot(program), events)
        assert len(calls) == 1

    def test_threshold_session(self, catalog):
        program, events = run_and_capture(catalog)
        session = Stethoscope.offline_from_memory(
            plan_to_dot(program), events, threshold_usec=5
        )
        session.replay.run_to_end()
        colored = {n: c for n, c in session.painter.rendered.items()}
        assert colored  # every done event colours under threshold mode


class TestOfflineFiles:
    def test_offline_from_files(self, catalog, tmp_path):
        program, events = run_and_capture(catalog)
        dot_path = str(tmp_path / "plan.dot")
        trace_path = str(tmp_path / "query.trace")
        with open(dot_path, "w") as f:
            f.write(plan_to_dot(program))
        write_trace(events, trace_path)
        session = Stethoscope.offline(dot_path, trace_path)
        assert session.trace_map.coverage() == 1.0

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(StethoscopeError):
            Stethoscope.offline(str(tmp_path / "no.dot"),
                                str(tmp_path / "no.trace"))


#: the tool's file round trip, run under the C locale: every file it
#: writes and reads holds a plan whose text is not ASCII
_UTF8_ROUND_TRIP = """
import locale, os, sys
from repro import Database, Profiler, Stethoscope, plan_to_dot, populate
from repro.core.textual import ServerConnection
from repro.profiler import read_trace, write_trace

def path(name):
    return os.path.join(sys.argv[1], name)

print(locale.getpreferredencoding(False))
database = Database()
populate(database.catalog, scale_factor=0.01, seed=1)
profiler = Profiler()
profiler.attach_file(path("live.trace"))
program = database.execute(
    "select count(*) from lineitem where l_comment = 'caf\\u00e9'",
    listener=profiler).program
database.close()
write_trace(profiler.events, path("written.trace"))
connection = ServerConnection("s", receiver=None)
connection.events = profiler.events
connection.dot_lines = plan_to_dot(program).splitlines()
connection.write_trace_file(path("plan.trace"))
connection.write_dot_file(path("plan.dot"))
for name in ("live.trace", "written.trace"):
    assert read_trace(path(name)) == profiler.events, name
session = Stethoscope.offline(path("plan.dot"), path("plan.trace"))
session.replay.run_to_end()
session.save_svg(path("plan.svg"))
"""


class TestUtf8Files:
    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        """The dot, trace and SVG files are UTF-8 under the C locale
        too: ``save_svg`` declares ``encoding="UTF-8"``, and a plan
        whose text is not ASCII writes and opens."""
        env = {key: value for key, value in os.environ.items()
               if key not in ("PYTHONUTF8", "PYTHONIOENCODING")}
        env.update(PYTHONCOERCECLOCALE="0", LC_ALL="C",
                   PYTHONPATH=os.path.dirname(session_module.__file__)
                   .rsplit(os.sep, 2)[0])
        child = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-c", _UTF8_ROUND_TRIP,
             str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        if child.stdout.split()[0].lower().replace("-", "") == "utf8":
            pytest.skip("this platform gives the C locale UTF-8")
        with open(tmp_path / "plan.svg", "rb") as handle:
            assert "caf\u00e9" in handle.read().decode("utf-8")


class TestPruning:
    def test_removes_administrative_nodes(self, session):
        pruned = session.pruned_view()
        labels = [pruned.node(n).label for n in pruned.nodes]
        assert all("sql.mvc" not in label for label in labels)
        assert pruned.node_count() < session.graph.node_count()

    def test_relinks_edges_transitively(self):
        graph = plan_to_graph(parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","t","x",0);
            X_3 := language.pass(X_2);
        """))
        # n0 (mvc) pruned; n1 keeps no predecessor; n2 (pass) pruned
        pruned = prune_administrative(graph)
        assert set(pruned.nodes) == {"n1"}

    def test_relink_through_chain(self):
        graph = plan_to_graph(parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","t","x",0);
            X_3 := language.pass(X_2);
        """))
        # keep mvc out of vocabulary: n0->n1 stays; pass pruned
        pruned = prune_administrative(graph, vocabulary={"language.pass"})
        assert set(pruned.nodes) == {"n0", "n1"}
        assert pruned.successors("n0") == ["n1"]

    def test_bridge_edge_created(self):
        graph = plan_to_graph(parse_instruction_text("""
            X_1 := sql.bind(X_0,"sys","t","x",0);
            X_2 := language.pass(X_1);
            X_3 := aggr.count(X_2);
        """.replace("X_0", "X_1")))  # placeholder; rebuilt below
        # build manually instead: a -> pass -> b
        from repro.dot import Digraph

        g = Digraph()
        g.add_node("n0", {"label": "X_1 := sql.bind();"})
        g.add_node("n1", {"label": "X_2 := language.pass(X_1);"})
        g.add_node("n2", {"label": "X_3 := aggr.count(X_2);"})
        g.add_edge("n0", "n1")
        g.add_edge("n1", "n2")
        pruned = prune_administrative(g, vocabulary={"language.pass"})
        assert pruned.successors("n0") == ["n2"]

    def test_result_plumbing_option(self, session):
        kept = session.pruned_view(prune_result_plumbing=True)
        labels = [kept.node(n).label for n in kept.nodes]
        assert all("exportResult" not in label for label in labels)

    def test_report(self, session):
        pruned = session.pruned_view()
        report = pruning_report(session.graph, pruned)
        assert "pruned" in report

    def test_trace_mapping_still_works_on_pruned(self, session):
        from repro.core.mapping import PlanTraceMap

        pruned = session.pruned_view()
        events = [e for e in session.events
                  if f"n{e.pc}" in pruned.nodes]
        trace_map = PlanTraceMap(pruned, events)
        assert trace_map.coverage() == 1.0


class TestMicroAnalysis:
    def test_per_instruction_sorted(self, session):
        stats = session.analysis.per_instruction()
        totals = [s.total_usec for s in stats]
        assert totals == sorted(totals, reverse=True)

    def test_per_operator_shares_sum_to_one(self, session):
        operators = session.analysis.per_operator()
        assert sum(o.share for o in operators) == pytest.approx(1.0)

    def test_percentiles_ordered(self, session):
        analyzer = session.analysis
        assert analyzer.percentile(0) <= analyzer.percentile(50) <= \
            analyzer.percentile(100)

    def test_percentile_range_check(self, session):
        with pytest.raises(ValueError):
            session.analysis.percentile(150)

    def test_window_slicing(self, session):
        analyzer = session.analysis
        full = analyzer.summary()["events"]
        half = analyzer.window(0, analyzer.summary()["makespan_usec"] // 2)
        assert half.summary()["events"] < full

    def test_csv_export(self, session):
        csv = session.analysis.to_csv()
        lines = csv.splitlines()
        assert lines[0].startswith("pc,")
        assert len(lines) == 9  # header + 8 instructions

    def test_empty_trace(self):
        analyzer = TraceAnalyzer([])
        assert analyzer.summary()["events"] == 0
        assert analyzer.percentile(50) == 0

    @pytest.mark.parametrize("q", [-1, 150])
    def test_percentile_range_checked_on_an_empty_trace(self, q):
        with pytest.raises(ValueError):
            TraceAnalyzer([]).percentile(q)


def _tpch_pair():
    database = Database(workers=2)
    populate(database.catalog, scale_factor=0.01, seed=3)
    profiler = Profiler()
    program = database.execute(query_sql("q5"), listener=profiler).program
    database.close()
    return plan_to_dot(program), profiler.events


def _synthetic_pair():
    program = synthetic_plan(chains=143)  # 1004 nodes
    return plan_to_dot(program), trace_for_program(program, workers=4,
                                                   seed=11)


class TestSessionFreedByRefcount:
    """A finished session is freed the moment its last reference goes:
    nothing it owns (graph, layout, glyphs, render queue) sits in a
    reference cycle waiting for a full collection."""

    @pytest.mark.parametrize("pair", [_tpch_pair, _synthetic_pair],
                             ids=["tpch_q5", "synthetic_143"])
    def test_open_replay_paint_save_leaves_no_cycle(self, pair, tmp_path):
        dot_text, events = pair()
        gc.collect()
        gc.disable()  # an automatic collection would hide a cycle
        try:
            session = Stethoscope.offline_from_memory(dot_text, events)
            session.replay.run_to_end()
            session.apply_gradient_coloring()
            session.save_svg(str(tmp_path / "display.svg"))
            del session
            assert gc.collect() == 0
        finally:
            gc.enable()
