"""Tests for the Database facade, Mserver and MClient."""

import asyncio.events
import datetime
import threading

import pytest

from repro.errors import ServerError, SqlError
from repro.profiler import Profiler, UdpReceiver
from repro.profiler.stream import split_stream
from repro.server import Database, MClient, Mserver
from repro.storage import Catalog
from repro.tpch import populate


#: a statement modifier is a word: whatever whitespace follows it
MODIFIER_SEPARATORS = ["\n", "\t", "  ", " \r\n\t "]
MODIFIER_CASES = [("explain", "trace"), ("EXPLAIN", "TRACE"),
                  ("  Explain", "\ntrace")]


def check_modifiers(query, explain, trace, separator):
    """Run EXPLAIN and TRACE of one SELECT through ``query`` (the
    database's ``execute`` or a client's); returns the EXPLAIN result."""
    select = "select\tcount(*)\nfrom region"
    plan = query(explain + separator + select)
    assert plan.columns == ["mal"]
    assert plan.rows == query("explain " + select).rows
    traced = query(trace + separator + select)
    assert traced.columns[:4] == ["event", "clock", "status", "pc"]
    assert {row[2] for row in traced.rows} == {"start", "done"}
    return plan


@pytest.fixture(scope="module")
def database():
    db = Database(workers=2, mitosis_threshold=50)
    populate(db.catalog, scale_factor=0.05, seed=3)
    return db


class TestDatabase:
    def test_ddl_and_insert_and_select(self):
        db = Database()
        db.execute("create table pets (name varchar(10), age integer)")
        outcome = db.execute("insert into pets values ('rex', 3), ('flo', 5)")
        assert outcome.kind == "insert" and outcome.affected == 2
        rows = db.execute("select name from pets where age > 4").rows
        assert rows == [("flo",)]

    def test_drop_table(self):
        db = Database()
        db.execute("create table gone (x integer)")
        db.execute("drop table gone")
        with pytest.raises(Exception):
            db.execute("select x from gone")

    @pytest.mark.parametrize("workers", [0, -1, 65, 100])
    def test_workers_outside_the_session_bound_are_refused(self, workers):
        """0 and -1 used to construct and then fail every ``default_pipe``
        statement in mitosis; 65 and 100 were accepted though a session's
        ``set`` refuses them."""
        with pytest.raises(ServerError, match="between 1 and 64"):
            Database(workers=workers)

    @pytest.mark.parametrize("workers", [1, 64])
    def test_workers_at_the_session_bound_construct(self, workers):
        db = Database(workers=workers)
        db.execute("create table n (x integer)")
        db.execute("insert into n values (1)")
        assert db.execute("select x from n").rows == [(1,)]

    def test_insert_negative_literal(self):
        db = Database()
        db.execute("create table n (x integer)")
        db.execute("insert into n values (-5)")
        assert db.execute("select x from n").rows == [(-5,)]

    def test_insert_non_literal_rejected(self):
        db = Database()
        db.execute("create table n (x integer)")
        with pytest.raises(SqlError):
            db.execute("insert into n values (1 + 2)")

    def test_explain_returns_mal(self, database):
        plan = database.explain(
            "select count(*) from lineitem where l_quantity > 5"
        )
        assert plan.startswith("function user.")
        assert "sql.bind" in plan

    def test_dot_returns_digraph(self, database):
        text = database.dot("select count(*) from lineitem")
        assert text.startswith("digraph")

    def test_profiler_listener_receives_events(self, database):
        profiler = Profiler()
        database.execute("select count(*) from region", listener=profiler)
        assert len(profiler.events) > 0

    def test_set_pipeline_validates(self, database):
        with pytest.raises(Exception):
            database.set_pipeline("bogus_pipe")

    def test_default_pipe_parallelizes_large_scan(self, database):
        profiler = Profiler()
        database.execute(
            "select count(*) from lineitem where l_quantity > 10",
            listener=profiler,
        )
        threads = {e.thread for e in profiler.events}
        assert len(threads) > 1

    def test_sequential_pipe_stays_on_one_thread(self, database):
        database.set_pipeline("sequential_pipe")
        try:
            profiler = Profiler()
            database.execute(
                "select count(*) from lineitem where l_quantity > 10",
                listener=profiler,
            )
            assert {e.thread for e in profiler.events} == {0}
        finally:
            database.set_pipeline("default_pipe")

    def test_date_values_roundtrip(self, database):
        rows = database.execute(
            "select min(l_shipdate) from lineitem"
        ).rows
        assert isinstance(rows[0][0], datetime.date)

    @pytest.mark.parametrize("separator", MODIFIER_SEPARATORS)
    @pytest.mark.parametrize("explain,trace", MODIFIER_CASES)
    def test_modifier_separated_by_any_whitespace(self, database, explain,
                                                  trace, separator):
        """``explain\nselect`` failed with "expected SELECT ... (near
        'explain')": the modifier was recognised by one trailing space."""
        plan = check_modifiers(database.execute, explain, trace, separator)
        assert plan.execution is None

    def test_bare_modifier_is_still_a_parse_error(self, database):
        for sql in ("explain", "trace\n", "explainselect 1"):
            with pytest.raises(SqlError, match="expected SELECT"):
                database.execute(sql)

    def test_select_behind_a_comment_runs_uncached(self, database):
        before = database.plan_cache.stats()
        rows = database.execute("-- how many\nselect count(*) from region").rows
        assert rows == database.execute("select count(*) from region").rows
        after = database.plan_cache.stats()
        # only the plain one looked in the plan cache
        assert (after["hits"] + after["misses"]
                - before["hits"] - before["misses"]) == 1


class TestMserverProtocol:
    @pytest.fixture()
    def server(self, database):
        with Mserver(database) as srv:
            yield srv

    @pytest.mark.parametrize("separator", MODIFIER_SEPARATORS)
    @pytest.mark.parametrize("explain,trace", MODIFIER_CASES)
    def test_modifier_separated_by_any_whitespace(self, server, explain,
                                                  trace, separator):
        """The server classes all of these as reads (``_READ_HEADS``);
        the database must run them as the modifier they are."""
        with MClient(port=server.port) as client:
            check_modifiers(client.query, explain, trace, separator)

    def test_ping(self, server):
        with MClient(port=server.port) as client:
            assert client.ping()

    def test_query_rows(self, server):
        with MClient(port=server.port) as client:
            result = client.query("select count(*) from orders")
            assert result.kind == "rows"
            assert result.rows[0][0] > 0

    def test_query_date_decoding(self, server):
        with MClient(port=server.port) as client:
            rows = client.query("select min(o_orderdate) from orders").rows
            assert isinstance(rows[0][0], datetime.date)

    def test_explain_and_dot(self, server):
        with MClient(port=server.port) as client:
            assert "sql.tid" in client.explain("select count(*) from nation")
            assert client.dot("select count(*) from nation").startswith(
                "digraph"
            )

    def test_sql_error_reported_not_fatal(self, server):
        with MClient(port=server.port) as client:
            with pytest.raises(ServerError):
                client.query("select nope from nowhere")
            # the connection survives the error
            assert client.ping()

    def test_the_peer_does_not_choose_a_metric_label(self, server):
        """Regression: ``repro_server_requests_total`` grew one child
        per distinct ``op`` string a peer cared to send."""
        from repro.metrics.families import SERVER_REQUESTS

        before = set(SERVER_REQUESTS.children())
        invalid = SERVER_REQUESTS.labels("invalid").value()
        with MClient(port=server.port) as client:
            for i in range(200):
                with pytest.raises(ServerError, match=f"unknown op 'x{i}'"):
                    client._call({"op": f"x{i}"})
            with pytest.raises(ServerError, match="unknown op None"):
                client._call({})
            assert client.ping()
        from repro.server.protocol import VERBS
        assert {op for op, in set(SERVER_REQUESTS.children()) - before} \
            <= {"invalid", *VERBS}
        assert SERVER_REQUESTS.labels("invalid").value() == invalid + 201

    def test_set_pipeline_roundtrip(self, server):
        with MClient(port=server.port) as client:
            client.set_pipeline("sequential_pipe")
            client.set_pipeline("default_pipe")
            with pytest.raises(ServerError):
                client.set_pipeline("warp_pipe")

    def test_multiple_clients(self, server):
        with MClient(port=server.port) as a, MClient(port=server.port) as b:
            assert a.ping() and b.ping()
            assert a.query("select count(*) from region").rows == \
                b.query("select count(*) from region").rows


class TestLoopCallbacks:
    """A count, not a clock (CI runs this class by name, "A request
    crosses the event loop twice"): everything the server's event loop
    runs goes through asyncio's ``Handle._run``.  A warm query is 3
    callbacks in 2 loop iterations (the socket read that frames and
    submits it; the self-pipe wake-up and the hand-back that writes the
    answer) and a ping 1 in 1; the reader and processor tasks, queue,
    per-request timer and write lock a connection used to have read 10
    and 6.  The bounds are 4 and 2."""

    def test_a_request_crosses_the_event_loop_twice(self, monkeypatch):
        database = Database(workers=2)
        populate(database.catalog, scale_factor=0.01, seed=3)
        run, seen = asyncio.events.Handle._run, [0]

        def counted(handle):
            seen[0] += threading.current_thread().name == "mserver-loop"
            return run(handle)

        monkeypatch.setattr(asyncio.events.Handle, "_run", counted)
        sql = "select count(*) from nation"
        with Mserver(database) as server, \
                MClient(port=server.port) as client:
            client.query(sql)
            per = {}
            for verb, call in (("query", lambda: client.query(sql)),
                               ("ping", client.ping)):
                before = seen[0]
                for _ in range(200):
                    call()
                per[verb] = (seen[0] - before) / 200
        assert per["query"] <= 4 and per["ping"] <= 2, per


class TestProfilerStreaming:
    def test_query_streams_dot_then_trace_then_end(self, database):
        with Mserver(database) as server, UdpReceiver() as receiver:
            with MClient(port=server.port) as client:
                client.set_profiler(port=receiver.port)
                client.query("select count(*) from customer")
            lines = list(receiver.lines(timeout=3.0))
        dot_lines, trace_lines = split_stream(lines)
        assert dot_lines and dot_lines[0].startswith("digraph")
        assert trace_lines
        from repro.profiler import parse_event

        first = parse_event(trace_lines[0])
        assert first.status == "start"

    def test_filter_options_respected(self, database):
        with Mserver(database) as server, UdpReceiver() as receiver:
            with MClient(port=server.port) as client:
                client.set_profiler(
                    port=receiver.port,
                    filter_options={"statuses": ["done"]},
                )
                client.query("select count(*) from customer")
            lines = list(receiver.lines(timeout=3.0))
        _dot, trace_lines = split_stream(lines)
        from repro.profiler import parse_event

        statuses = {parse_event(line).status for line in trace_lines}
        assert statuses == {"done"}

    def test_profiler_off_stops_stream(self, database):
        with Mserver(database) as server, UdpReceiver() as receiver:
            with MClient(port=server.port) as client:
                client.set_profiler(port=receiver.port)
                client.profiler_off()
                client.query("select count(*) from region")
                line = receiver.try_line(timeout=0.3)
        assert line is None
