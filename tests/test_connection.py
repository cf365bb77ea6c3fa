"""One connection of the Mserver, driven over a fake transport.

``repro.server.mserver._Connection`` is an ``asyncio.Protocol``: it is
handed bytes and a transport and owns no task, so everything it promises
can be shown without a socket, a server thread or a sleep — the test
calls ``data_received`` / ``eof_received`` / ``pause_writing`` itself
and reads what was written off the transport.  Pinned here: responses
leave in request order whatever thread ran them; a pipelined burst is a
loop, not recursion; a peer that does not read stops its own next
request; the transport is paused at ``_PIPELINE_DEPTH`` framed lines;
an oversized line gets the typed refusal, then the close; EOF behind
pipelined requests still answers all of them; the ``server.loop`` fault
site is consulted once per answered request; every message — result
frames included — is one ``transport.write``.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.faults import FaultPlan, armed
from repro.server import Database, Mserver
from repro.server import mserver as mserver_module
from repro.server.mserver import _Connection
from repro.server.protocol import MAX_MESSAGE_BYTES, encode_message
from tests.test_wire_format import _Stream


class _InlineExecutor:
    """``submit`` runs the work before it returns, on the caller's
    thread: the hand-back still crosses ``call_soon_threadsafe``, so the
    order of everything is decided by the loop alone."""

    def submit(self, work, *args) -> None:
        work(*args)

    def shutdown(self) -> None:
        pass


class _Transport:
    """What a connection writes, and what it asked of the transport."""

    def __init__(self, connection: _Connection) -> None:
        self.connection = connection
        self.writes = []
        self.reading = True
        self.closed = False
        self.on_write = None

    def write(self, data: bytes) -> None:
        assert not self.closed, "write after close"
        self.writes.append(bytes(data))
        if self.on_write is not None:
            self.on_write(data)

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            asyncio.get_running_loop().call_soon(
                self.connection.connection_lost, None)

    def messages(self):
        return list(_Stream(b"".join(self.writes)).messages())

    def answers(self):
        return [m for m in self.messages() if "ok" in m]


@pytest.fixture(scope="module")
def database():
    db = Database(workers=2)
    db.execute("create table wide (k integer, x double, s text)")
    db.catalog.table("wide").insert_many(
        [[i, i / 7.0, f"row-{i}"] for i in range(5000)])
    return db


@pytest.fixture(params=["inline", "threads"])
def server(request, database):
    """A never-started ``Mserver``: no loop thread, no listener — only
    the executor a connection hands its blocking verbs to."""
    server = Mserver(database)
    server._executor = _InlineExecutor() if request.param == "inline" \
        else ThreadPoolExecutor(max_workers=2)
    yield server
    server._executor.shutdown()


def _drive(server, script):
    """Run ``script(connection, transport)`` inside a loop; returns the
    transport once the script is done."""
    async def main():
        connection = _Connection(server)
        transport = _Transport(connection)
        connection.connection_made(transport)
        await script(connection, transport)
        if not transport.closed:
            connection.kill()
        await connection.done
        return transport
    return asyncio.run(main())


def _lines(*requests) -> bytes:
    return b"".join(map(encode_message, requests))


async def _settled(connection) -> None:
    """Until nothing of this connection's is pending or running.
    ``sleep(0)`` is one loop iteration, not a wait."""
    while (connection._busy or connection._pending) \
            and not connection._closing:
        await asyncio.sleep(0)


_PING = {"op": "ping"}
_QUIT = {"op": "quit"}
_SQL = "select k, x, s from wide where k < 2000"


class TestAnswersLeaveInRequestOrder:
    def test_a_burst_mixing_loop_verbs_and_executor_verbs(self, server):
        burst = [
            _PING,
            {"op": "query", "sql": _SQL},
            {"op": "set", "workers": 2},
            {"op": "explain", "sql": "select count(*) from wide"},
            {"op": "queries"},
            {"op": "query", "sql": "select count(*) from wide"},
            _PING,
            {"op": "query", "sql": "select nothing from nowhere"},
            {"op": "dot", "sql": "select count(*) from wide"},
            _QUIT,
        ]

        async def script(connection, transport):
            connection.data_received(_lines(*burst))
            await connection.done

        answers = _drive(server, script).answers()
        shapes = [next((key for key in ("pong", "kind", "plan", "queries",
                                        "dot", "bye", "error")
                        if key in answer), "ok") for answer in answers]
        assert shapes == ["pong", "kind", "ok", "plan", "queries", "kind",
                          "pong", "error", "dot", "bye"]
        assert len(answers[1]["rows"]) == 2000
        assert answers[5]["rows"] == [(5000,)]
        assert [a["query_id"] for a in answers if "query_id" in a] \
            == sorted((a["query_id"] for a in answers if "query_id" in a),
                      key=lambda qid: int(qid[1:]))

    def test_a_burst_split_anywhere_is_the_same_burst(self, server):
        data = _lines(_PING, {"op": "query", "sql": _SQL}, _PING, _QUIT)

        async def script(connection, transport):
            for at in range(0, len(data), 7):
                connection.data_received(data[at:at + 7])
            await connection.done

        answers = _drive(server, script).answers()
        assert [("pong" in a, a.get("kind")) for a in answers] == [
            (True, None), (False, "rows"), (True, None), (False, None)]

    def test_two_thousand_pipelined_pings_are_a_loop(self, server):
        async def script(connection, transport):
            connection.data_received(
                _lines(*({"op": "ping", "i": i} for i in range(2000))))
            # answered inside that one call: no loop iteration ran
            assert len(transport.writes) == 2000
            assert not connection._pending and not connection._busy

        transport = _drive(server, script)
        assert all(m == {"ok": True, "pong": True}
                   for m in transport.messages())


class TestBackpressure:
    def test_a_peer_that_does_not_read_stops_its_next_request(
            self, server):
        async def script(connection, transport):
            connection.data_received(_lines(_PING))
            assert len(transport.writes) == 1
            connection.pause_writing()
            connection.data_received(
                _lines(_PING, {"op": "query", "sql": _SQL}))
            await asyncio.sleep(0)
            assert len(transport.writes) == 1  # neither was started
            assert len(connection._pending) == 2
            assert server.registry.recent() == []
            connection.resume_writing()
            await _settled(connection)
            assert len(transport.writes) == 3

        kinds = [a.get("kind") for a in _drive(server, script).answers()]
        assert kinds == [None, None, "rows"]

    def test_a_paused_peer_keeps_its_stream_entries_buffered(
            self, server):
        async def script(connection, transport):
            connection.data_received(_lines({"op": "subscribe"}))
            connection.pause_writing()
            server.hub.publish("event", "while paused")
            await asyncio.sleep(0)
            assert len(transport.writes) == 1  # the ack alone
            assert connection.subscription.pending() == 1
            connection.resume_writing()
            assert len(transport.writes) == 2
            connection.data_received(_lines({"op": "unsubscribe"}))

        messages = _drive(server, script).messages()
        assert messages[1]["line"] == "while paused"
        assert messages[2]["delivered"] == 1

    def test_reading_pauses_at_the_pipeline_depth_and_resumes_below_it(
            self, server):
        depth = mserver_module._PIPELINE_DEPTH

        async def script(connection, transport):
            connection.pause_writing()  # so that requests pile up
            connection.data_received(_lines(*[_PING] * (depth - 1)))
            assert transport.reading
            connection.data_received(_lines(_PING))
            assert not transport.reading
            assert len(connection._pending) == depth
            connection.resume_writing()
            assert transport.reading
            assert len(transport.writes) == depth

        _drive(server, script)


class TestFramingLimits:
    @pytest.mark.parametrize("garbage", [
        b"x" * (MAX_MESSAGE_BYTES + 1),                  # never a newline
        b'{"op":"ping","pad":"' + b"x" * MAX_MESSAGE_BYTES + b'"}\n',
    ], ids=["no-newline", "whole-line"])
    def test_an_oversized_line_is_refused_typed_then_the_close(
            self, server, garbage):
        async def script(connection, transport):
            connection.data_received(
                _lines(_PING, {"op": "query", "sql": _SQL}))
            for at in range(0, len(garbage), 1 << 16):
                connection.data_received(garbage[at:at + (1 << 16)])
            assert not transport.reading  # and hears no more
            await connection.done

        transport = _drive(server, script)
        answers = transport.answers()
        assert [a["ok"] for a in answers] == [True, True, False]
        assert answers[2]["error"] == (
            f"request exceeds {MAX_MESSAGE_BYTES} bytes without a newline")
        assert transport.closed

    def test_a_line_of_exactly_the_limit_is_a_request(self, server):
        line = b'{"op":"ping","pad":"' + b"x" * MAX_MESSAGE_BYTES
        line = line[:MAX_MESSAGE_BYTES - 2] + b'"}\n'

        async def script(connection, transport):
            connection.data_received(line)
            assert transport.answers() == [{"ok": True, "pong": True}]

        assert len(line) == MAX_MESSAGE_BYTES + 1  # the newline is free
        _drive(server, script)

    def test_eof_behind_pipelined_requests_still_answers_them_all(
            self, server):
        async def script(connection, transport):
            connection.data_received(_lines(
                _PING, {"op": "query", "sql": _SQL},
                {"op": "explain", "sql": "select count(*) from wide"},
                {"op": "query", "sql": "select count(*) from wide"}))
            connection.data_received(b'{"op":"ping"}')  # no newline
            assert connection.eof_received() is True   # stays open
            await connection.done

        transport = _drive(server, script)
        assert len(transport.answers()) == 5
        assert transport.closed

    def test_blank_lines_are_not_requests(self, server):
        async def script(connection, transport):
            connection.data_received(b"\n\n  \n" + _lines(_PING) + b"\r\n")
            assert len(transport.writes) == 1

        _drive(server, script)


class TestTheServerLoopFaultSite:
    def test_reset_drops_the_connection_without_answering(self, server):
        async def script(connection, transport):
            connection.data_received(
                _lines(_PING, {"op": "query", "sql": _SQL}, _PING))
            await connection.done

        plan = FaultPlan(seed=3).on("server.loop", "reset")
        with armed(plan):
            transport = _drive(server, script)
        assert transport.writes == [] and transport.closed
        assert plan.fires("server.loop", "reset") == 1

    def test_latency_delays_exactly_that_answer(self, server):
        delayed = []

        async def script(connection, transport):
            connection.data_received(_lines(_PING, _PING, _PING, _QUIT))
            # the first answer is held back, the rest wait behind it
            delayed.append((len(transport.writes), connection._busy,
                            len(connection._pending)))
            await connection.done

        plan = FaultPlan(seed=3).on("server.loop", "latency", value=1.0,
                                    limit=1)
        with armed(plan):
            transport = _drive(server, script)
        assert delayed == [(0, True, 3)]
        assert [("pong" in a, "bye" in a) for a in transport.answers()] \
            == [(True, False)] * 3 + [(False, True)]
        assert plan.fires("server.loop", "latency") == 1

    def test_one_decision_per_answered_request(self, server):
        """A seeded journal replays only if the site draws as often as
        it did: once for each request answered, none for the refusal."""
        plan = FaultPlan(seed=3).on("server.loop", "latency", value=1.0,
                                    probability=0.0)
        seen = []
        decide = plan.decide
        plan.decide = lambda site, detail="": (
            seen.append((site, detail)), decide(site, detail))[1]

        async def script(connection, transport):
            connection.data_received(_lines(
                _PING, {"op": "query", "sql": _SQL}, {"op": "nonsense"})
                + b"not json\n" + b"x" * (MAX_MESSAGE_BYTES + 1))
            await connection.done

        with armed(plan):
            transport = _drive(server, script)
        assert len(transport.answers()) == 5
        assert [detail for site, detail in seen if site == "server.loop"] \
            == ["ping", "query", "nonsense", "invalid"]


class TestEveryMessageIsOneWrite:
    def test_hub_entries_never_land_inside_a_result(self, server, database):
        """The connection subscribes to the hub and runs three wide
        queries while the hub publishes in the middle of every response
        (from inside ``transport.write``, the latest moment there is).
        Every ``write`` call must hold whole messages: a result's header
        and all its frames in one call, an entry line never between
        them."""
        expected = database.execute(_SQL).rows

        async def script(connection, transport):
            def publish(chunk: bytes) -> None:
                if b'"ok"' in chunk[:chunk.index(b"\n")]:
                    server.hub.publish("event", "published mid-response")
            transport.on_write = publish
            connection.data_received(_lines(
                {"op": "subscribe"}, *[{"op": "query", "sql": _SQL}] * 3,
                {"op": "unsubscribe"}, _QUIT))
            await connection.done

        transport = _drive(server, script)
        per_write = [list(_Stream(chunk).messages())  # each parses alone
                     for chunk in transport.writes]
        assert all(per_write)
        messages = [m for chunk in per_write for m in chunk]
        answers = [m for m in messages if "ok" in m]
        assert [m.get("kind") for m in answers] \
            == [None, "rows", "rows", "rows", None, None]
        assert all(m["rows"] == expected for m in answers[1:4])
        # the traced queries' own lines, and ours between them
        entries = [m for m in messages if "seq" in m]
        assert [m["seq"] for m in entries] == list(range(len(entries)))
        assert sum(m["line"] == "published mid-response"
                   for m in entries) >= 4
        assert answers[4]["delivered"] == len(entries)
        # an answer is a write of its own; entries travel in batches
        assert all(len(chunk) == 1 or all("seq" in m for m in chunk)
                   for chunk in per_write)
