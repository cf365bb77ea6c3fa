"""Query lifecycle supervision: ids, cancellation, deadlines, budgets,
admission control and graceful drain (ISSUE 3's tentpole)."""

import threading
import time

import pytest

from repro.errors import (
    QueryBudgetError,
    QueryCancelledError,
    QueryDeadlineError,
    ReproError,
    ServerError,
    ServerOverloadedError,
)
from repro.faults import FaultPlan, armed, disarm
from repro.server import Database, MClient, Mserver
from repro.tpch import populate

SQL = "select count(*) from lineitem where l_quantity > 10"

#: Heavy worker stalls: a stall sleeps its value in microseconds, 0.08s
#: real per fire, up to 40 fires — a plan that runs for seconds.
SLOW_SPEC = "scheduler.worker:stall=80000@0.9#40"


@pytest.fixture(scope="module")
def database():
    db = Database(workers=2, mitosis_threshold=50)
    populate(db.catalog, scale_factor=0.02, seed=3)
    return db


@pytest.fixture()
def server(database):
    with Mserver(database) as srv:
        yield srv


@pytest.fixture(autouse=True)
def always_disarm():
    yield
    disarm()


def start_slow_query(server, outcome, seed=7, **query_kwargs):
    """A background client running one stalled query.

    Appends ``("rows", rows)`` or ``("error", exc)`` to ``outcome``.
    Call inside an ``armed(slow_plan())`` block.
    """

    def runner():
        client = MClient(port=server.port, retries=0)
        try:
            outcome.append(("rows", client.query(SQL, **query_kwargs).rows))
        except ReproError as exc:
            outcome.append(("error", exc))
        finally:
            try:
                client.close()
            except ReproError:
                pass

    thread = threading.Thread(target=runner)
    thread.start()
    return thread


def wait_for_running(client, timeout_s=5.0):
    """Poll the ``queries`` op until a query reports state=running."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        running = [q for q in client.queries()["queries"]
                   if q["state"] == "running"]
        if running:
            return running[0]["query_id"]
        time.sleep(0.01)
    raise AssertionError("no query reached the running state")


class TestQueryIds:
    def test_query_returns_server_assigned_id(self, server):
        with MClient(port=server.port) as client:
            first = client.query(SQL)
            second = client.query(SQL)
        assert first.query_id.startswith("q")
        assert second.query_id != first.query_id

    def test_queries_op_lists_recent(self, server):
        with MClient(port=server.port) as client:
            done = client.query(SQL).query_id
            listing = client.queries()
        assert listing["queries"] == []  # nothing running now
        recent_ids = [entry["query_id"] for entry in listing["recent"]]
        assert done in recent_ids
        entry = listing["recent"][recent_ids.index(done)]
        assert entry["state"] == "done"
        assert entry["sql"] == SQL

    def test_cancel_unknown_id_reports_not_running(self, server):
        with MClient(port=server.port) as client:
            assert client.cancel("q999999") is False


class TestCancellation:
    def test_cancel_mid_flight_from_second_client(self, server):
        """The acceptance criterion: a cancel issued from another
        connection terminates a running plan within an
        instruction boundary, surfacing a typed error with the id."""
        outcome = []
        with armed(FaultPlan.from_spec(SLOW_SPEC, seed=7)):
            worker = start_slow_query(server, outcome)
            with MClient(port=server.port) as control:
                query_id = wait_for_running(control)
                assert control.cancel(query_id) is True
                worker.join(timeout=10.0)
                assert not worker.is_alive(), "cancel did not stop the plan"
                # the same server keeps answering on other connections
                assert control.query(SQL).rows
        kind, payload = outcome[0]
        assert kind == "error"
        assert isinstance(payload, QueryCancelledError)
        assert not isinstance(payload, QueryDeadlineError)
        assert payload.query_id == query_id

    def test_server_deadline_cancels_and_records(self, server):
        from repro.metrics.families import SERVER_QUERY_DEADLINE_EXCEEDED

        before = SERVER_QUERY_DEADLINE_EXCEEDED.value()
        with armed(FaultPlan.from_spec(SLOW_SPEC, seed=5)):
            with MClient(port=server.port, retries=0) as client:
                with pytest.raises(QueryDeadlineError) as err:
                    client.query(SQL, server_deadline_s=0.2)
                assert err.value.query_id
                # the kill is on the operator's record
                recent = client.queries()["recent"]
                killed = [e for e in recent
                          if e["query_id"] == err.value.query_id]
                assert killed and killed[0]["state"] == "cancelled"
                assert "deadline" in killed[0]["cancel_reason"]
        assert SERVER_QUERY_DEADLINE_EXCEEDED.value() > before

    def test_deadline_passes_while_queued(self, server):
        """The deadline's one enforcer also runs while a query waits
        for a slot: it is cancelled there, typed, long before the
        queue-wait shed."""
        server.admission.configure(max_concurrent=1, queue_wait_s=5.0)
        outcome = []
        try:
            with armed(FaultPlan.from_spec(SLOW_SPEC, seed=17)):
                worker = start_slow_query(server, outcome)
                with MClient(port=server.port, retries=0) as client:
                    running = wait_for_running(client)
                    began = time.monotonic()
                    with pytest.raises(QueryDeadlineError) as err:
                        client.query(SQL, server_deadline_s=0.2)
                    assert time.monotonic() - began < 2.0
                    recent = {entry["query_id"]: entry
                              for entry in client.queries()["recent"]}
                    assert recent[err.value.query_id]["state"] == \
                        "cancelled"
                    client.cancel(running)
                worker.join(timeout=10.0)
                assert not worker.is_alive()
        finally:
            server.admission.configure(max_concurrent=4, queue_wait_s=5.0)

    def test_rss_budget_cancels_with_typed_error(self, server):
        with MClient(port=server.port, retries=0) as client:
            with pytest.raises(QueryBudgetError) as err:
                client.query(SQL, max_rss_bytes=10)
            assert err.value.query_id

    def test_explain_and_stats_stay_responsive(self, server):
        """Metadata ops bypass admission: they answer while the only
        execution slot is held by a long-running query."""
        server.admission.configure(max_concurrent=1)
        outcome = []
        try:
            with armed(FaultPlan.from_spec(SLOW_SPEC, seed=9)):
                worker = start_slow_query(server, outcome)
                with MClient(port=server.port) as control:
                    query_id = wait_for_running(control)
                    began = time.monotonic()
                    assert "function user." in control.explain(SQL)
                    assert control.stats()
                    assert time.monotonic() - began < 2.0
                    control.cancel(query_id)
                worker.join(timeout=10.0)
        finally:
            server.admission.configure(max_concurrent=4)
        assert outcome and outcome[0][0] == "error"


class TestAdmissionControl:
    def test_queue_full_sheds_typed_error(self, server):
        from repro.metrics.families import SERVER_QUERIES_SHED

        shed = SERVER_QUERIES_SHED.labels(reason="queue-full")
        before = shed.value()
        server.admission.configure(max_concurrent=1, max_queue=0,
                                   queue_wait_s=0.2)
        outcome = []
        try:
            with armed(FaultPlan.from_spec(SLOW_SPEC, seed=11)):
                worker = start_slow_query(server, outcome)
                with MClient(port=server.port, retries=0) as client:
                    query_id = wait_for_running(client)
                    with pytest.raises(ServerOverloadedError):
                        client.query(SQL)
                    client.cancel(query_id)
                worker.join(timeout=10.0)
        finally:
            server.admission.configure(max_concurrent=4, max_queue=16,
                                       queue_wait_s=5.0)
        assert shed.value() > before

    def test_overload_retry_recovers(self, server):
        """A shed query never ran, so the client's overload-aware retry
        re-sends it after backoff and wins once the slot frees."""
        from repro.metrics.families import CLIENT_RETRIES

        retried = CLIENT_RETRIES.labels(op="query")
        before = retried.value()
        server.admission.configure(max_concurrent=1, max_queue=0,
                                   queue_wait_s=0.1)
        outcome = []
        try:
            # moderate stall: the slot frees in well under the retry
            # budget (4 attempts x up to 0.8s backoff)
            with armed(FaultPlan.from_spec(
                    "scheduler.worker:stall=40000@0.9#10", seed=13)):
                worker = start_slow_query(server, outcome)
                with MClient(port=server.port, retries=4,
                             backoff_base_s=0.2, backoff_max_s=0.8,
                             retry_seed=1) as client:
                    wait_for_running(client)
                    assert client.query(SQL).rows  # succeeds via retry
                worker.join(timeout=10.0)
        finally:
            server.admission.configure(max_concurrent=4, max_queue=16,
                                       queue_wait_s=5.0)
        assert retried.value() > before
        assert outcome and outcome[0][0] == "rows"

    def test_writes_still_serialized(self, server):
        """DDL admits exclusively — concurrent create/drop pairs on the
        same table never interleave into an inconsistent catalog."""
        with MClient(port=server.port) as client:
            client.query("create table lifecycle_probe (x int)")
            client.query("insert into lifecycle_probe values (1)")
            rows = client.query("select x from lifecycle_probe").rows
            client.query("drop table lifecycle_probe")
        assert rows == [(1,)]


class TestGracefulDrain:
    def test_drain_cancels_slow_query_and_reaps_threads(self, database):
        from repro.metrics.families import SERVER_DRAINS

        forced_before = SERVER_DRAINS.labels(outcome="forced").value()
        server = Mserver(database, drain_seconds=0.3).start()
        outcome = []
        with armed(FaultPlan.from_spec(SLOW_SPEC, seed=15)):
            worker = start_slow_query(server, outcome)
            with MClient(port=server.port) as control:
                wait_for_running(control)
            began = time.monotonic()
            server.stop()
            stop_took = time.monotonic() - began
            worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert stop_took < 5.0
        # the straggler was cancelled, not abandoned: it surfaced a
        # typed error (or lost its connection to the closing server)
        kind, payload = outcome[0]
        assert kind == "error"
        assert isinstance(payload, ReproError)
        assert SERVER_DRAINS.labels(outcome="forced").value() > \
            forced_before
        # the leak-guard fixture asserts no threads/sockets remain

    def test_clean_drain_counts_clean(self, database):
        from repro.metrics.families import SERVER_DRAINS

        clean_before = SERVER_DRAINS.labels(outcome="clean").value()
        server = Mserver(database).start()
        with MClient(port=server.port) as client:
            assert client.query(SQL).rows
        server.stop()
        assert SERVER_DRAINS.labels(outcome="clean").value() > \
            clean_before

    def test_stopped_server_sheds_new_queries(self, database):
        server = Mserver(database).start()
        server.admission.begin_drain()
        try:
            with MClient(port=server.port, retries=0) as client:
                with pytest.raises(ServerOverloadedError):
                    client.query(SQL)
        finally:
            server.admission.end_drain()
            server.stop()


class TestPerSessionSettings:
    def test_set_does_not_mutate_shared_database(self, server, database):
        with MClient(port=server.port) as client:
            client.set_pipeline("sequential_pipe")
            client.set_workers(1)
            assert client.query(SQL).rows
        assert database.pipeline_name == "default_pipe"
        assert database.workers == 2

    def test_sessions_are_isolated(self, server):
        with MClient(port=server.port) as one, \
                MClient(port=server.port) as two:
            one.set_pipeline("minimal_pipe")
            # the other session still optimizes with the default pipe:
            # its plan keeps the dataflow structure
            assert "language.dataflow" in two.explain(SQL)
            assert "language.dataflow" not in one.explain(SQL)

    def test_bad_settings_raise_typed_errors(self, server):
        with MClient(port=server.port) as client:
            with pytest.raises(ServerError):
                client.set_pipeline("no_such_pipe")
            # a misspelt key (or a retired one) is refused, not ignored
            for key, value in (("worker", 2), ("scheduler", "simulated")):
                with pytest.raises(ServerError, match="unknown setting"):
                    client._call({"op": "set", key: value})
            with pytest.raises(ServerError):
                client.set_workers(0)

    def test_workers_above_the_bound_are_refused(self, server):
        """``workers`` is the partition count and the workers the list
        schedule models: a peer asking for thousands is refused typed, and the
        session keeps the value it had."""
        from repro.server.protocol import MAX_WORKERS

        with MClient(port=server.port) as client:
            client.set_workers(MAX_WORKERS)
            client.set_workers(2)
            for workers in (MAX_WORKERS + 1, 2000):
                with pytest.raises(ServerError, match="between 1 and"):
                    client.set_workers(workers)
            assert client.explain(SQL).count('"l_quantity",0,') == 2
            assert client.query(SQL).rows
        assert MAX_WORKERS == 64


class TestIdleHangup:
    """Idle means nothing heard, nothing pending, nothing running and no
    subscription (the subscribed half is in ``tests/test_broadcast.py``)."""

    @pytest.fixture(autouse=True)
    def short_idle_timeout(self, monkeypatch):
        from repro.server import mserver as mserver_module
        monkeypatch.setattr(mserver_module, "_IDLE_TIMEOUT_S", 0.3)

    def test_a_statement_that_outruns_the_timeout_is_not_idleness(
            self, server, database, monkeypatch):
        """Regression: the reader's timed wait fired while the statement
        ran, so its answer was followed by a hang-up and the connection's
        next statement failed ``ConnectionLostError``."""
        execute = database.execute

        def slow_execute(sql, **kwargs):
            time.sleep(0.8)
            return execute(sql, **kwargs)

        monkeypatch.setattr(database, "execute", slow_execute)
        with MClient(port=server.port, retries=0) as client:
            first = client.query(SQL)
            assert client.query(SQL).rows == first.rows

    def test_a_silent_connection_is_hung_up_a_talking_one_is_not(
            self, server):
        import socket
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as silent, \
                MClient(port=server.port, retries=0) as talking:
            began = time.monotonic()
            while time.monotonic() - began < 0.7:
                assert talking.ping()
                time.sleep(0.1)
            assert silent.recv(1) == b""  # hung up, within the timeout
            assert talking.ping()
