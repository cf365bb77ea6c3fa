"""Integration tests: textual Stethoscope and online monitoring against a
live Mserver — the paper's §4.2 multithreaded pipeline end to end."""

import pytest

from repro.core.analysis import TraceAnalyzer
from repro.core.session import Stethoscope
from repro.core.textual import TextualStethoscope
from repro.errors import StethoscopeError
from repro.metrics.families import ONLINE_EVENTS, ONLINE_RUNS
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

        try:
            return Stethoscope.online(
                connection, run_query, str(tmp_path),
                backlog_threshold=backlog_threshold, timeout_s=20.0,
            )
        finally:
            textual.close()

    def test_end_to_end_monitoring(self, server, tmp_path):
        result = self.run_online(
            server, tmp_path,
            "select count(*) from lineitem where l_quantity > 10",
        )
        assert result.session is not None
        assert result.query_result and result.query_result[0][0] > 0
        assert result.session.events
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
        assert not result.health.degraded
        live = result.session.analysis
        offline = TraceAnalyzer(read_trace(result.trace_path))
        assert live.events == offline.events == result.session.events
        for view in ("summary", "thread_utilization", "per_operator",
                     "memory_by_operator", "per_instruction",
                     "costly_clusters", "parallelism_profile", "segments",
                     "rss_timeline", "to_csv"):
            assert getattr(live, view)() == getattr(offline, view)(), view

    def test_display_painted(self, server, tmp_path):
        result = self.run_online(
            server, tmp_path, "select count(*) from customer",
        )
        assert result.session is not None
        # at minimum, the painter processed the stream without backlog left
        assert result.session.painter.backlog() == 0

    def test_progress_window_completes(self, server, tmp_path):
        result = self.run_online(
            server, tmp_path, "select count(*) from customer",
        )
        assert result.session is not None
        assert result.session.progress.complete
        assert "100%" in result.session.progress.render()

    def test_online_to_offline_followup(self, server, tmp_path):
        result = self.run_online(
            server, tmp_path, "select count(*) from customer",
        )
        session = result.session
        session.replay.seek(0)
        session.replay.run_to_end()
        assert session.replay.at_end

    def test_sampling_under_pressure(self, database, tmp_path):
        """One burst at a zero backlog threshold: every GREEN repaint is
        sampled out once the render queue holds anything, and no RED is
        ever dropped."""
        from repro.core.coloring import color_buffer
        from repro.dot import plan_to_dot
        from repro.profiler import Profiler
        from repro.viz.color import RED

        profiler = Profiler()
        program = database.execute(
            "select count(*) from lineitem where l_quantity > 1",
            listener=profiler).program
        textual = TextualStethoscope()
        connection = textual.connect("burst")

        def burst():
            with UdpEmitter(port=connection.port) as emitter:
                emitter.send_dot(plan_to_dot(program))
                for event in profiler.events:
                    emitter(event)
                emitter.send_end()

        try:
            result = Stethoscope.online(connection, burst, str(tmp_path),
                                        backlog_threshold=0, timeout_s=20.0)
        finally:
            textual.close()
        assert not result.health.degraded
        assert result.sampled_out > 0
        reds = [action for action in color_buffer(result.session.events)
                if action.color == RED]
        assert reds
        history = result.session.painter.history
        assert all(red in history for red in reds)

    def test_counters_count_the_run_and_its_pushes(self, server, tmp_path):
        runs_before = ONLINE_RUNS.value()
        events_before = ONLINE_EVENTS.value()
        result = self.run_online(server, tmp_path,
                                 "select count(*) from customer")
        assert not result.health.degraded
        assert ONLINE_RUNS.value() - runs_before == 1
        assert ONLINE_EVENTS.value() - events_before == \
            len(result.session.events) > 0

    def test_a_run_starts_only_the_query_thread(self, server, tmp_path,
                                                monkeypatch):
        """The paper's three threads are the receiver's (started with
        the connection), the query thread and the caller: a run starts
        one thread, and waits for lines without a listener of its own."""
        import threading

        textual = TextualStethoscope()
        connection = textual.connect("local")
        caller = threading.current_thread()
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            if threading.current_thread() is caller:
                started.append(thread)
            start(thread)

        def run_query():
            with MClient(port=server.port) as client:
                client.set_profiler(port=connection.port)
                return client.query("select count(*) from region").rows

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        try:
            result = Stethoscope.online(connection, run_query,
                                        str(tmp_path), timeout_s=20.0)
        finally:
            monkeypatch.undo()
            textual.close()
        assert result.query_result
        assert len(started) == 1

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

            result = Stethoscope.online(connection, run_query,
                                        str(tmp_path), timeout_s=20.0)
            textual.close()
        anomaly = result.session.analysis.sequential_anomaly(
            expected_threads=2)
        assert anomaly.detected


def painted(session):
    return {node: color.to_hex()
            for node, color in session.painter.rendered.items()}


class TestOnlinePaintsItsTraceFile:
    """An online run's final colouring is the offline replay's of the
    dot and trace files the same run wrote."""

    def run_online(self, server, tmp_path):
        textual = TextualStethoscope()
        connection = textual.connect("local")

        def run_query():
            with MClient(port=server.port) as client:
                client.set_profiler(port=connection.port)
                return client.query("select count(*) from lineitem "
                                    "where l_quantity > 10").rows

        try:
            return Stethoscope.online(connection, run_query,
                                      str(tmp_path), timeout_s=20.0)
        finally:
            textual.close()

    def replayed(self, result):
        offline = Stethoscope.offline(result.dot_path, result.trace_path)
        offline.replay.run_to_end()
        offline.replay.finish()
        return painted(offline)

    def test_clean_run(self, server, tmp_path):
        result = self.run_online(server, tmp_path)
        assert not result.health.degraded
        assert result.sampled_out == 0
        assert painted(result.session)
        assert painted(result.session) == self.replayed(result)

    def test_reorder_run(self, server, tmp_path):
        from repro.faults import FaultPlan, armed

        # a seed whose reordering left the dot shipment parseable
        plan = FaultPlan(seed=0).on("udp.emit", "reorder", probability=0.3)
        with armed(plan):
            result = self.run_online(server, tmp_path)
        assert result.health.out_of_order > 0
        assert result.session is not None
        assert painted(result.session) == self.replayed(result)
