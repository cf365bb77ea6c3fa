"""Tests for the trace broadcast hub and the subscribe protocol verb.

Covers the hub's contract in isolation (sequence numbers, drop-oldest,
resume backfill, subscriber caps) and end-to-end over the wire: many
concurrent viewers following one query, slow consumers hitting
drop-oldest without slowing the query, resume-from-sequence after a
disconnect, subscribing to unknown or finished queries, and a query's
events arriving while it still runs.
"""

import threading
import time

import pytest

from repro.errors import (
    RequestTimeoutError,
    ServerError,
    ServerOverloadedError,
)
from repro.mal import interpreter
from repro.profiler.broadcast import TraceBroadcastHub
from repro.profiler.events import parse_event
from repro.server import Database, MClient, Mserver
from repro.tpch import populate, query_sql


@pytest.fixture(scope="module")
def database():
    db = Database(workers=2, mitosis_threshold=50)
    populate(db.catalog, scale_factor=0.05, seed=3)
    return db


class TestHubUnit:
    def test_sequence_numbers_are_monotonic(self):
        hub = TraceBroadcastHub()
        sub = hub.subscribe()
        for i in range(5):
            hub.publish("event", f"line-{i}", query_id="q1")
        seqs = [e.seq for e in sub.pop_batch()]
        assert seqs == [0, 1, 2, 3, 4]
        sub.close()

    def test_every_subscriber_sees_every_entry(self):
        hub = TraceBroadcastHub()
        subs = [hub.subscribe() for _ in range(10)]
        for i in range(20):
            hub.publish("event", f"line-{i}")
        for sub in subs:
            lines = [e.line for e in sub.pop_batch()]
            assert lines == [f"line-{i}" for i in range(20)]
            sub.close()

    def test_slow_subscriber_drops_oldest(self):
        hub = TraceBroadcastHub()
        sub = hub.subscribe(buffer_size=4)
        for i in range(10):
            hub.publish("event", f"line-{i}")
        batch = sub.pop_batch()
        # the 6 oldest entries were evicted, the newest 4 survive
        assert [e.line for e in batch] == [f"line-{i}" for i in range(6, 10)]
        assert sub.dropped == 6
        sub.close()

    def test_publish_never_blocks_on_full_buffer(self):
        hub = TraceBroadcastHub()
        hub.subscribe(buffer_size=1)  # never drained
        began = time.monotonic()
        for i in range(1000):
            hub.publish("event", f"line-{i}")
        assert time.monotonic() - began < 1.0

    def test_resume_backfills_from_ring(self):
        hub = TraceBroadcastHub(history=100)
        for i in range(10):
            hub.publish("event", f"line-{i}")
        sub = hub.subscribe(from_seq=4)
        assert [e.seq for e in sub.pop_batch()] == [4, 5, 6, 7, 8, 9]
        assert sub.missed == 0
        sub.close()

    def test_resume_gap_older_than_ring_is_counted(self):
        hub = TraceBroadcastHub(history=4)
        for i in range(10):
            hub.publish("event", f"line-{i}")
        sub = hub.subscribe(from_seq=0)
        # ring holds seqs 6..9; 0..5 are gone and reported as missed
        assert sub.missed == 6
        assert [e.seq for e in sub.pop_batch()] == [6, 7, 8, 9]
        sub.close()

    def test_query_filter(self):
        hub = TraceBroadcastHub()
        sub = hub.subscribe(query_id="q2")
        hub.publish("event", "a", query_id="q1")
        hub.publish("event", "b", query_id="q2")
        hub.publish("event", "c", query_id="q1")
        assert [e.line for e in sub.pop_batch()] == ["b"]
        sub.close()

    def test_max_subscribers_refused_typed(self):
        hub = TraceBroadcastHub(max_subscribers=2)
        a = hub.subscribe()
        b = hub.subscribe()
        with pytest.raises(ServerOverloadedError):
            hub.subscribe()
        a.close()
        hub.subscribe().close()  # a slot freed up
        b.close()

    def test_wait_batch_wakes_on_publish(self):
        hub = TraceBroadcastHub()
        sub = hub.subscribe()
        result = []

        def consume():
            result.extend(sub.wait_batch(timeout=5.0))

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        hub.publish("event", "wake-up")
        thread.join(timeout=5.0)
        assert [e.line for e in result] == ["wake-up"]
        sub.close()

    def test_close_all_wakes_waiters(self):
        hub = TraceBroadcastHub()
        sub = hub.subscribe()
        thread = threading.Thread(
            target=lambda: sub.wait_batch(timeout=5.0))
        thread.start()
        time.sleep(0.05)
        hub.close_all()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert not hub.active()

    def test_stats_shape(self):
        hub = TraceBroadcastHub()
        sub = hub.subscribe()
        hub.publish("event", "x")
        stats = hub.stats()
        assert stats["subscribers"] == 1
        assert stats["published"] == 1
        assert stats["retained"] == 1
        sub.close()
        assert hub.stats()["subscribers"] == 0


class TestSubscribeProtocol:
    @pytest.fixture()
    def server(self, database):
        with Mserver(database) as srv:
            yield srv

    def test_two_viewers_follow_one_query(self, server):
        with MClient(port=server.port) as v1, \
                MClient(port=server.port) as v2, \
                MClient(port=server.port) as runner:
            s1 = v1.subscribe()
            s2 = v2.subscribe()
            runner.query("select count(*) from customer")
            e1 = list(s1.entries(until_end=True, max_seconds=5.0))
            e2 = list(s2.entries(until_end=True, max_seconds=5.0))
        kinds = {e["kind"] for e in e1}
        assert kinds == {"dot", "event", "end"}
        # both viewers saw the identical sequence — zero loss
        assert [e["seq"] for e in e1] == [e["seq"] for e in e2]
        assert e1[0]["line"].startswith("#dot\t")
        assert e1[-1]["kind"] == "end"

    def test_entries_carry_query_id(self, server):
        with MClient(port=server.port) as viewer, \
                MClient(port=server.port) as runner:
            sub = viewer.subscribe()
            result = runner.query("select count(*) from region")
            entries = list(sub.entries(until_end=True, max_seconds=5.0))
        assert entries
        assert {e["query_id"] for e in entries} == {result.query_id}

    def test_unsubscribe_returns_summary_and_frees_connection(
            self, server):
        with MClient(port=server.port) as viewer, \
                MClient(port=server.port) as runner:
            sub = viewer.subscribe()
            runner.query("select count(*) from region")
            list(sub.entries(until_end=True, max_seconds=5.0))
            summary = sub.stop()
            assert summary["unsubscribed"] is True
            assert summary["delivered"] > 0
            # the connection is an ordinary client again
            assert viewer.ping()
            assert viewer.query(
                "select count(*) from region").rows[0][0] > 0

    def test_requests_blocked_while_subscribed(self, server):
        with MClient(port=server.port) as viewer:
            sub = viewer.subscribe()
            with pytest.raises(ServerError):
                viewer.ping()
            sub.stop()
            assert viewer.ping()

    def test_subscriber_survives_idle_timeout(self, server, monkeypatch):
        # The reader arms its timed wait before the processor handles a
        # pipelined subscribe; a watcher that then only reads (sending
        # no further bytes) must NOT be hung up when that stale timed
        # wait fires — the subscribed exemption has to win the race.
        from repro.server import mserver as mserver_mod
        monkeypatch.setattr(mserver_mod, "_IDLE_TIMEOUT_S", 0.3)
        with MClient(port=server.port) as viewer:
            sub = viewer.subscribe()
            time.sleep(1.0)  # silent for >3x the idle timeout
            server.hub.publish("event", "still-alive", query_id="qx")
            entry = sub.next_entry(timeout=2.0)
            assert entry is not None
            assert entry["line"] == "still-alive"
            summary = sub.stop()
            assert summary["unsubscribed"] is True

    def test_stop_timeout_breaks_connection_for_clean_reuse(
            self, server, monkeypatch):
        # If the unsubscribe handshake times out, the connection may
        # still be streaming — stop() must drop it (forcing the next
        # request onto a fresh connection) rather than leave the client
        # reading stray broadcast entries as responses.
        with MClient(port=server.port) as viewer:
            viewer.subscribe()
            sub = viewer._subscription
            monkeypatch.setattr(viewer, "_recv_message",
                                lambda timeout: None)
            with pytest.raises(RequestTimeoutError):
                sub.stop(timeout=0.3)
            monkeypatch.undo()
            assert viewer._subscription is None
            assert viewer._socket is None  # broken, not half-streaming
            assert viewer.ping()  # reconnects cleanly

    def test_subscribe_unknown_query_rejected(self, server):
        with MClient(port=server.port) as client:
            with pytest.raises(ServerError, match="unknown query"):
                client.subscribe(query_id="q999999")
            assert client.ping()  # connection survives the error

    def test_subscribe_finished_query_replays_retained_trace(
            self, server):
        with MClient(port=server.port) as runner:
            # run with a live (throwaway) subscriber so the hub records
            with MClient(port=server.port) as warmup:
                warm = warmup.subscribe()
                result = runner.query("select count(*) from nation")
                list(warm.entries(until_end=True, max_seconds=5.0))
                warm.stop()
            # the query has finished; its trace is still in the ring
            with MClient(port=server.port) as late:
                sub = late.subscribe(query_id=result.query_id)
                entries = list(sub.entries(until_end=True,
                                           max_seconds=5.0))
                sub.stop()
        assert entries
        assert entries[-1]["kind"] == "end"
        assert {e["query_id"] for e in entries} == {result.query_id}

    def test_resume_from_sequence_after_disconnect(self, server):
        with MClient(port=server.port) as viewer, \
                MClient(port=server.port) as runner:
            sub = viewer.subscribe()
            runner.query("select count(*) from customer")
            first = list(sub.entries(until_end=True, max_seconds=5.0))
            assert first
            cut_at = first[len(first) // 2]["seq"]
            # the viewer "crashes" mid-stream without unsubscribing
            viewer._teardown()
            # a fresh connection resumes from where it left off
            with MClient(port=server.port) as fresh:
                resumed = fresh.subscribe(from_seq=cut_at + 1)
                assert resumed.missed == 0
                rest = list(resumed.entries(until_end=True,
                                            max_seconds=5.0))
                resumed.stop()
        assert [e["seq"] for e in rest] == \
            [e["seq"] for e in first if e["seq"] > cut_at]

    def test_slow_consumer_hits_drop_oldest_not_the_query(
            self, server):
        with MClient(port=server.port) as viewer, \
                MClient(port=server.port) as runner:
            # tiny buffer and a consumer that never reads during the
            # query: oldest entries are evicted server-side
            sub = viewer.subscribe(buffer=2)
            began = time.monotonic()
            result = runner.query("select count(*) from lineitem")
            elapsed = time.monotonic() - began
            assert result.rows[0][0] > 0
            # let the stream task flush the surviving entries
            list(sub.entries(idle_timeout=0.5, max_seconds=3.0))
            summary = sub.stop()
        assert summary["dropped"] > 0
        # the query was never blocked on the stalled viewer
        assert elapsed < 10.0

    def test_subscribe_refused_past_max_subscribers(self, database):
        with Mserver(database, max_subscribers=2) as server:
            with MClient(port=server.port) as a, \
                    MClient(port=server.port) as b, \
                    MClient(port=server.port) as c:
                sa = a.subscribe()
                sb = b.subscribe()
                with pytest.raises(ServerOverloadedError):
                    c.subscribe()
                sa.stop()
                sb.stop()

    def test_double_subscribe_on_one_connection_rejected(self, server):
        with MClient(port=server.port) as viewer:
            sub = viewer.subscribe()
            with pytest.raises(ServerError):
                viewer.subscribe()
            sub.stop()

    def test_unsubscribe_without_subscription_rejected(self, server):
        with MClient(port=server.port) as client:
            with pytest.raises(ServerError, match="not subscribed"):
                client._call({"op": "unsubscribe"})
            assert client.ping()

    def test_stats_includes_broadcast_block(self, server):
        with MClient(port=server.port) as client:
            response = client._call({"op": "stats"})
        assert "broadcast" in response
        assert "subscribers" in response["broadcast"]


class TestManySubscribers:
    def test_hundred_subscribers_zero_loss(self, database):
        """100+ keep-up viewers follow one TPC-H query, zero loss."""
        target = 104
        with Mserver(database, max_subscribers=256,
                     subscriber_buffer=4096) as server:
            clients = [MClient(port=server.port) for _ in range(target)]
            try:
                subs = [c.subscribe() for c in clients]
                with MClient(port=server.port) as runner:
                    runner.query("select count(*) from lineitem")
                streams = []
                for sub in subs:
                    entries = list(sub.entries(until_end=True,
                                               max_seconds=10.0))
                    streams.append(entries)
                    summary = sub.stop()
                    assert summary["dropped"] == 0
                    assert summary["missed"] == 0
            finally:
                for client in clients:
                    client.close()
        reference = [e["seq"] for e in streams[0]]
        assert reference, "no entries delivered"
        assert all([e["seq"] for e in s] == reference for s in streams)


class TestLiveTrace:
    """The list schedule releases a query's events while the query runs,
    in the order a sort of its finished trace gives."""

    def test_a_done_arrives_while_the_query_is_running(
            self, database, monkeypatch):
        # the plan's last instruction waits until the viewer has heard a
        # done and the server still lists the query as running
        gate = threading.Event()
        execute = interpreter.execute_instruction

        def held(ctx, instr):
            if instr.qualified_name == "sql.exportResult":
                gate.wait(timeout=10.0)
            return execute(ctx, instr)

        monkeypatch.setattr(interpreter, "execute_instruction", held)
        sql = query_sql("q6")
        program = database.compile(sql)
        # two mitosis partitions of every column it binds
        assert database.explain(sql).count('"l_shipdate",0,') == 2
        answers = []

        def run_query():
            with MClient(port=server.port) as runner:
                answers.append(runner.query(sql))

        with Mserver(database) as server, \
                MClient(port=server.port) as viewer, \
                MClient(port=server.port) as observer:
            sub = viewer.subscribe()
            runner = threading.Thread(target=run_query)
            runner.start()
            try:
                entries, first_done = [], None
                deadline = time.monotonic() + 5.0
                while first_done is None and time.monotonic() < deadline:
                    entry = sub.next_entry(timeout=0.2)
                    if entry is None:
                        continue
                    entries.append(entry)
                    if entry["kind"] == "event" and \
                            parse_event(entry["line"]).status == "done":
                        first_done = entry
                assert first_done is not None, \
                    "no done event while the plan's last instruction waits"
                running = {q["query_id"]: q["state"]
                           for q in observer.queries()["queries"]}
                assert running.get(first_done["query_id"]) == "running"
            finally:
                gate.set()
                runner.join(timeout=10.0)
            entries += sub.entries(until_end=True, max_seconds=5.0)
        assert answers and answers[0].rows
        events = [parse_event(e["line"]) for e in entries
                  if e["kind"] == "event"]
        assert len(events) == 2 * len(program.instructions)
        assert sorted(events, key=lambda e: (
            e.clock_usec, e.pc, e.status == "done")) == events
        assert [e.event for e in events] == list(range(len(events)))
        seqs = [e["seq"] for e in entries]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
