"""Tests for LIMIT/OFFSET, the rss timeline, online→offline glue and the
screenshot CLI."""

import io

import pytest

from repro.cli import main
from repro.core.analysis import TraceAnalyzer
from repro.mal import Interpreter
from repro.profiler.events import TraceEvent
from repro.sqlfe import compile_sql
from repro.storage import Catalog, INT


@pytest.fixture
def catalog():
    cat = Catalog()
    t = cat.schema().create_table("t", [("x", INT)])
    t.insert_many([[i] for i in range(10)])
    return cat


def run(catalog, sql):
    return Interpreter(catalog).run(compile_sql(catalog, sql)).rows()


class TestOffset:
    def test_limit_offset_window(self, catalog):
        rows = run(catalog, "select x from t order by x limit 3 offset 4")
        assert rows == [(4,), (5,), (6,)]

    def test_offset_zero_default(self, catalog):
        rows = run(catalog, "select x from t order by x limit 2")
        assert rows == [(0,), (1,)]

    def test_offset_past_end(self, catalog):
        rows = run(catalog, "select x from t limit 5 offset 100")
        assert rows == []

    def test_offset_requires_integer(self, catalog):
        from repro.errors import SqlParseError

        with pytest.raises(SqlParseError):
            run(catalog, "select x from t limit 5 offset 1.5")


class TestRssTimeline:
    def analysis(self):
        return TraceAnalyzer(
            TraceEvent(i, i * 100, "done", i, 0, 10, rss, "x := a.b();")
            for i, rss in enumerate([100, 500, 2000, 800, 300])
        )

    def test_timeline_monotone_clock(self):
        timeline = self.analysis().rss_timeline(buckets=10)
        clocks = [t for t, _v in timeline]
        assert clocks == sorted(clocks)
        assert len(timeline) == 10

    def test_peak_preserved(self):
        timeline = self.analysis().rss_timeline(buckets=10)
        assert max(v for _t, v in timeline) == 2000

    def test_empty(self):
        assert TraceAnalyzer().rss_timeline() == []
        assert "empty" in TraceAnalyzer().rss_sparkline()

    def test_sparkline_shape(self):
        text = self.analysis().rss_sparkline(width=20)
        assert "peak 2000 bytes" in text
        assert "@" in text  # the peak bucket reaches the top level


class TestOnlineToOffline:
    @staticmethod
    def finished_connection(dot_lines, events):
        """A connection whose stream already ended: the run reads what it
        holds and waits for nothing."""
        from repro.core.textual import ServerConnection

        connection = ServerConnection("done", receiver=None)
        connection.dot_lines = dot_lines
        connection.events = events
        connection.ended = True
        return connection

    def test_round_trip(self, catalog, tmp_path):
        """An online run returns the session it fed, which replays."""
        from repro.core.online import run_online
        from repro.dot import plan_to_dot
        from repro.profiler import Profiler

        program = compile_sql(catalog, "select count(*) from t")
        profiler = Profiler()
        Interpreter(catalog, listener=profiler).run(program)
        connection = self.finished_connection(
            plan_to_dot(program).splitlines(), list(profiler.events))
        session = run_online(connection, lambda: None,
                             str(tmp_path)).session
        assert session.events == profiler.events
        session.replay.seek(0)
        session.replay.run_to_end()
        assert session.trace_map.coverage() == 1.0

    def test_no_plan_no_session(self, tmp_path):
        from repro.core.online import run_online

        result = run_online(self.finished_connection([], []),
                            lambda: "rows", str(tmp_path))
        assert result.session is None
        assert result.query_result == "rows"
        assert result.health.ended and result.dot_path is None


class TestScreenshotCli:
    def test_screenshot_command(self, catalog, tmp_path):
        from repro.dot import plan_to_dot
        from repro.profiler import Profiler, write_trace

        program = compile_sql(
            catalog, "select count(*) from t where x > 2"
        )
        profiler = Profiler()
        Interpreter(catalog, listener=profiler).run(program)
        dot_path = str(tmp_path / "p.dot")
        trace_path = str(tmp_path / "t.trace")
        with open(dot_path, "w") as f:
            f.write(plan_to_dot(program))
        write_trace(profiler.events, trace_path)
        output = str(tmp_path / "shot.ppm")
        out = io.StringIO()
        code = main(["screenshot", dot_path, trace_path, output,
                     "--width", "320", "--height", "240", "--gradient"],
                    out=out)
        assert code == 0
        from repro.viz.raster import load_ppm

        image = load_ppm(output)
        assert (image.width, image.height) == (320, 240)
