"""Integration tests: textual Stethoscope and online monitoring against a
live Mserver — the paper's §4.2 multithreaded pipeline end to end."""

import pytest

from repro.core.analysis import TraceAnalyzer
from repro.core.session import Stethoscope
from repro.core.textual import TextualStethoscope
from repro.errors import StethoscopeError
from repro.profiler import EventFilter, UdpEmitter
from repro.server import Database, MClient, Mserver
from repro.tpch import populate


@pytest.fixture(scope="module")
def database():
    db = Database(workers=2, mitosis_threshold=50)
    populate(db.catalog, scale_factor=0.05, seed=3)
    return db


@pytest.fixture()
def server(database):
    with Mserver(database) as srv:
        yield srv


class TestTextualStethoscope:
    def test_collects_dot_and_trace(self, server):
        with TextualStethoscope() as textual:
            connection = textual.connect("local")
            with MClient(port=server.port) as client:
                client.set_profiler(port=connection.port)
                client.query("select count(*) from customer")
            textual.drain_until_ended()
            assert connection.ended
            assert connection.dot_text().startswith("digraph")
            assert connection.events
            statuses = {e.status for e in connection.events}
            assert statuses == {"start", "done"}

    def test_client_side_filter(self, server):
        with TextualStethoscope() as textual:
            connection = textual.connect(
                "local", EventFilter(statuses={"done"})
            )
            with MClient(port=server.port) as client:
                client.set_profiler(port=connection.port)
                client.query("select count(*) from region")
            textual.drain_until_ended()
            assert connection.dropped > 0
            assert all(e.status == "done" for e in connection.events)

    def test_two_servers_merged(self, database):
        # "can connect to multiple MonetDB servers at the same time to
        # receive execution traces from all (distributed) sources"
        with Mserver(database) as server_a, Mserver(database) as server_b, \
                TextualStethoscope() as textual:
            conn_a = textual.connect("a")
            conn_b = textual.connect("b")
            with MClient(port=server_a.port) as client_a:
                client_a.set_profiler(port=conn_a.port)
                client_a.query("select count(*) from region")
            with MClient(port=server_b.port) as client_b:
                client_b.set_profiler(port=conn_b.port)
                client_b.query("select count(*) from nation")
            textual.drain_until_ended()
            merged = textual.merged_events()
            assert conn_a.events and conn_b.events
            assert len(merged) == len(conn_a.events) + len(conn_b.events)
            clocks = [e.clock_usec for e in merged]
            assert clocks == sorted(clocks)

    def test_duplicate_connection_name(self):
        with TextualStethoscope() as textual:
            textual.connect("x")
            with pytest.raises(StethoscopeError):
                textual.connect("x")

    def test_trace_file_written(self, server, tmp_path):
        with TextualStethoscope() as textual:
            connection = textual.connect("local")
            with MClient(port=server.port) as client:
                client.set_profiler(port=connection.port)
                client.query("select count(*) from region")
            textual.drain_until_ended()
            trace_path = str(tmp_path / "t.trace")
            dot_path = str(tmp_path / "p.dot")
            count = connection.write_trace_file(trace_path)
            connection.write_dot_file(dot_path)
        from repro.profiler import read_trace

        assert len(read_trace(trace_path)) == count
        with open(dot_path) as f:
            assert f.read().startswith("digraph")


class TestOnlineSession:
    def run_online(self, server, tmp_path, sql, backlog_threshold=32):
        textual = TextualStethoscope()
        connection = textual.connect("local")

        def run_query():
            with MClient(port=server.port) as client:
                client.set_profiler(port=connection.port)
                return client.query(sql).rows

        session = Stethoscope.online(
            connection, run_query, str(tmp_path),
            backlog_threshold=backlog_threshold,
        )
        try:
            return session.run(timeout_s=20.0)
        finally:
            textual.close()

    def test_end_to_end_monitoring(self, server, tmp_path):
        result = self.run_online(
            server, tmp_path,
            "select count(*) from lineitem where l_quantity > 10",
        )
        assert result.graph is not None
        assert result.query_result and result.query_result[0][0] > 0
        assert result.events
        assert result.dot_path and result.trace_path
        # files usable for a later offline session
        session = Stethoscope.offline(result.dot_path, result.trace_path)
        assert session.trace_map.coverage() > 0

    def test_live_analysis_equals_the_written_trace_file(self, server,
                                                         tmp_path):
        """The fold the monitor fed as events arrived gives the views an
        offline analysis of the trace file it wrote gives."""
        from repro.profiler import read_trace

        result = self.run_online(
            server, tmp_path,
            "select count(*) from lineitem where l_quantity > 10",
        )
        assert not result.degraded
        live = result.analysis
        offline = TraceAnalyzer(read_trace(result.trace_path))
        assert live.events == offline.events == result.events
        for view in ("summary", "thread_utilization", "per_operator",
                     "memory_by_operator", "per_instruction",
                     "costly_clusters", "parallelism_profile", "segments",
                     "rss_timeline", "to_csv"):
            assert getattr(live, view)() == getattr(offline, view)(), view

    def test_display_painted(self, server, tmp_path):
        result = self.run_online(
            server, tmp_path, "select count(*) from customer",
        )
        assert result.painter is not None
        # at minimum, the painter processed the stream without backlog left
        assert result.painter.backlog() == 0

    def test_progress_window_completes(self, server, tmp_path):
        result = self.run_online(
            server, tmp_path, "select count(*) from customer",
        )
        assert result.progress is not None
        assert result.progress.complete
        assert "100%" in result.progress.render()

    def test_online_to_offline_followup(self, server, tmp_path):
        result = self.run_online(
            server, tmp_path, "select count(*) from customer",
        )
        session = result.to_offline_session()
        session.replay.run_to_end()
        assert session.replay.at_end

    def test_sampling_under_pressure(self, server, tmp_path):
        result = self.run_online(
            server, tmp_path,
            "select count(*) from lineitem where l_quantity > 1",
            backlog_threshold=0,
        )
        # with a zero threshold every GREEN is sampled out once the
        # queue holds anything; reds always pass
        assert result.sampled_out >= 0

    def test_anomaly_detection_from_online_trace(self, database, tmp_path):
        with Mserver(database) as server:
            textual = TextualStethoscope()
            connection = textual.connect("local")

            def run_query():
                with MClient(port=server.port) as client:
                    client.set_pipeline("sequential_pipe")
                    client.set_profiler(port=connection.port)
                    try:
                        return client.query(
                            "select count(*) from lineitem "
                            "where l_quantity > 10"
                        ).rows
                    finally:
                        client.set_pipeline("default_pipe")

            session = Stethoscope.online(connection, run_query,
                                         str(tmp_path))
            result = session.run(timeout_s=20.0)
            textual.close()
        anomaly = result.analysis.sequential_anomaly(expected_threads=2)
        assert anomaly.detected
