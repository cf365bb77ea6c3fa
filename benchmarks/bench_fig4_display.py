"""Experiment F4 — Figure 4: the display window for a simple plan trace.

Regenerates the display-window artefact (the demo query's plan, coloured
by its replayed trace, rendered to SVG and ASCII) and measures the full
offline workflow: dot parse → trace mapping → layout → display → trace
replay → render.
"""

import os

from repro.core.session import Stethoscope
from repro.dot.writer import plan_to_dot
from repro.profiler import Profiler
from repro.tpch import query_sql

DEMO_SQL = query_sql("demo")


def _capture(db):
    profiler = Profiler()
    outcome = db.execute(DEMO_SQL, listener=profiler)
    return plan_to_dot(outcome.program), profiler.events


def test_fig4_offline_session_build(benchmark, tpch_db):
    dot_text, events = _capture(tpch_db)
    session = benchmark(Stethoscope.offline_from_memory, dot_text, events)
    assert session.trace_map.coverage() == 1.0


def test_fig4_full_display_window(benchmark, tpch_db, artifacts):
    dot_text, events = _capture(tpch_db)

    def build_display():
        session = Stethoscope.offline_from_memory(dot_text, events)
        session.replay.run_to_end()
        return session

    session = benchmark(build_display)
    session.save_svg(os.path.join(artifacts, "fig4_display.svg"))
    with open(os.path.join(artifacts, "fig4_display.txt"), "w") as handle:
        handle.write(session.render_ascii(columns=120, rows=40) + "\n")
    assert session.replay.at_end


def test_fig4_ascii_render(benchmark, tpch_db):
    dot_text, events = _capture(tpch_db)
    session = Stethoscope.offline_from_memory(dot_text, events)
    session.replay.run_to_end()
    text = benchmark(session.render_ascii, 120, 40)
    assert "#" in text


def test_fig4_tooltip_lookup(benchmark, tpch_db):
    dot_text, events = _capture(tpch_db)
    session = Stethoscope.offline_from_memory(dot_text, events)
    session.replay.run_to_end()
    nodes = list(session.graph.nodes)

    def tooltips():
        return [session.tooltip(n) for n in nodes]

    texts = benchmark(tooltips)
    assert all(texts)
