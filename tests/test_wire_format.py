"""The wire format of a result: a JSON header line plus one packed frame
per column (``repro.server.protocol``).

Three things are pinned here.  Every cell crosses the wire equal in
value *and* type — through ``encode_rows``/``decode_rows`` alone and
through a live ``Mserver`` against ``Database.execute(sql).rows``.  A
hub entry never lands between a header and its frames
(``tests/test_connection.py``: every message is one write).  And every
byte that crosses the trust boundary fails typed under mutation: a mutated
request line gets an ``{"ok": false}`` line or a clean close from the
server, a mutated response makes ``MClient.query`` raise a
``ReproError`` or return a well-formed ``Result`` — never a hang, a
``ValueError``/``KeyError``/``TypeError`` or a ``MemoryError``.
"""

import datetime
import json
import socket
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import ConnectionLostError, ReproError, ServerError
from repro.server import Database, MClient, Mserver
from repro.server.protocol import (
    decode_message,
    decode_rows,
    encode_message,
    encode_rows,
)
from tests.test_byte_format import _mutations

_FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

#: the cells no JSON-with-a-tag encoding gets right all at once
_CORNER_ROWS = [
    [1, 2 ** 63 - 1, -0.0, "", datetime.date.min, True],
    [-2 ** 31, -2 ** 63, float("inf"), "two\nlines", datetime.date.max,
     False],
    [3, 2 ** 63, float("nan"), "naïve 日本語 \U0001f600",
     datetime.date(2020, 1, 2), None],
    [None, -2 ** 70, 1e-320, "@date:2020-01-02", None, True],
]


def _typed(rows):
    """Rows as (type name, repr) cells: NaN-, signed-zero- and
    bool-vs-int-safe equality."""
    return [[(type(value).__name__, repr(value)) for value in row]
            for row in rows]


def _well_formed(result) -> bool:
    return (sorted(vars(result)) == ["affected", "columns", "kind",
                                     "query_id", "rows"]
            and type(result.kind) is str
            and type(result.columns) is list
            and type(result.rows) is list
            and all(type(row) is tuple for row in result.rows)
            and type(result.affected) is int
            and type(result.query_id) is str)


def _response(names, vectors) -> bytes:
    """What the server writes for one result."""
    specs, frames = encode_rows(vectors)
    header = {"ok": True, "kind": "rows", "affected": 0, "query_id": "q1",
              "columns": names,
              "row_count": len(vectors[0]) if vectors else 0,
              "frames": specs}
    return encode_message(header, frames)


class _Stream:
    """A captured response stream, read the way ``MClient`` reads its
    socket: a line, then the frames its header announces."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.at = 0

    def read(self, count: int) -> bytes:
        if self.at + count > len(self.data):
            raise ConnectionLostError("stream ends mid-frame")
        self.at += count
        return self.data[self.at - count:self.at]

    def messages(self):
        while self.at < len(self.data):
            end = self.data.index(b"\n", self.at)
            message = decode_message(self.data[self.at:end])
            self.at = end + 1
            if message.get("ok") and message.get("kind") == "rows":
                message["rows"] = decode_rows(message, self.read)
            yield message


def _read_to_close(sock: socket.socket) -> bytes:
    chunks = []
    try:
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except ConnectionResetError:
        pass  # the server hung up with our bytes still unread
    return b"".join(chunks)


@pytest.fixture(scope="module")
def database():
    db = Database(workers=2)
    db.execute("create table w (a integer, b bigint, x double, s text, "
               "d date, f boolean)")
    db.catalog.table("w").insert_many(_CORNER_ROWS)
    db.execute("create table wide (k integer, x double, d date, s text)")
    first = datetime.date(1995, 1, 1)
    db.catalog.table("wide").insert_many(
        [[i, i / 7.0, first + datetime.timedelta(days=i % 2000),
          f"row-{i}"] for i in range(20_000)])
    return db


@pytest.fixture(scope="module")
def server(database):
    with Mserver(database) as running:
        yield running


# --------------------------------------------------------------------------
# round trips
# --------------------------------------------------------------------------

_CELLS = {
    "int": st.integers(-2 ** 63, 2 ** 63 - 1),
    "big": st.integers(-2 ** 80, 2 ** 80),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "date": st.dates(),
    "text": st.text(max_size=12),
    "bool": st.booleans(),
    "nil": st.none(),
    "mixed": st.one_of(st.none(), st.integers(-9, 9), st.dates(),
                       st.floats(allow_nan=True), st.text(max_size=3),
                       st.booleans()),
}


@st.composite
def _vectors(draw):
    count = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), max_size=5))
    return [draw(st.lists(_CELLS[kind], min_size=count, max_size=count))
            for kind in kinds]


def _decode(response: bytes):
    (message,) = _Stream(response).messages()
    return message


class TestCodecRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(vectors=_vectors())
    def test_every_cell_keeps_value_and_type(self, vectors):
        names = [f"c{i}" for i in range(len(vectors))]
        message = _decode(_response(names, vectors))
        assert message["columns"] == names
        assert _typed(message["rows"]) == _typed(zip(*vectors))
        assert all(type(row) is tuple for row in message["rows"])

    def test_the_codec_follows_the_values_not_a_declared_type(self):
        today = datetime.date(2012, 8, 27)
        cases = [
            ([1, -2 ** 63, 2 ** 63 - 1], "q", 24),
            ([0.5, float("nan"), -0.0], "d", 24),
            ([today, datetime.date.min, datetime.date.max], "i", 12),
            ([1, 2 ** 63, 3], "j", None),        # beyond 64 bits
            ([True, False, True], "j", None),    # bool is not int here
            ([1, None, 3], "j", None),
            ([1, 2.0, 3], "j", None),
            ([today, None, today], "j", None),
            (["a", "", "ü"], "j", None),
        ]
        for values, codec, length in cases:
            (spec,), (frame,) = encode_rows([values])
            assert spec[0] == codec, values
            assert spec[1] == len(frame)
            if length is not None:
                assert len(frame) == length

    def test_a_wide_result_is_mostly_its_packed_bytes(self):
        count = 10_000
        vectors = [list(range(count)), [i / 3.0 for i in range(count)],
                   [datetime.date(2000, 1, 1)] * count]
        response = _response(["a", "b", "c"], vectors)
        assert count * 20 < len(response) < count * 20 + 400
        assert _decode(response)["rows"] == list(zip(*vectors))

    def test_zero_rows_and_zero_columns(self):
        assert _decode(_response(["a", "b"], [[], []]))["rows"] == []
        assert _decode(_response([], []))["rows"] == []

    def test_a_value_with_no_wire_form_is_refused_by_the_encoder(self):
        with pytest.raises(TypeError):
            encode_rows([[object()]])
        with pytest.raises(TypeError):  # exact types: not a plain date
            encode_rows([[datetime.datetime(2020, 1, 1), None]])


_SELECTS = [
    "select a, b, x, s, d, f from w",
    "select b from w where a > 0",              # 2^63 beside 2^63 - 1
    "select f, s from w where a = 1",
    "select sum(a) from w where a < -2147483648",   # one nil
    "select a, s from w where a > 1000",        # zero rows
    "select count(*) from w",
    "explain select a from w where a > 0",
    "trace select a, x from w",
    "select k, x, d, s from wide where k < 5000",
]


class TestLiveServerRoundTrip:
    @pytest.mark.parametrize("sql", _SELECTS)
    def test_rows_equal_database_execute_in_value_and_type(
            self, server, database, sql):
        with MClient(port=server.port) as client:
            result = client.query(sql)
        outcome = database.execute(sql)
        assert _well_formed(result)
        assert result.kind == outcome.kind == "rows"
        assert result.columns == outcome.columns
        if sql.startswith("trace"):
            # two runs, two clocks: the statements and their order hold
            assert [row[-1] for row in result.rows] \
                == [row[-1] for row in outcome.rows]
            assert _typed(result.rows[:1]) == _typed(outcome.rows[:1])
            # and the rows are the trace, not the traced query's result
            assert len(outcome.rows) != len(outcome.execution.rows())
        else:
            assert _typed(result.rows) == _typed(outcome.rows)

    def test_strings_that_look_like_the_old_date_tag_stay_strings(
            self, server):
        """Regression: row JSON spelled a date ``"@date:<iso>"``, so a
        varchar cell with that prefix came back a ``date`` — or killed
        the client with an untyped ``ValueError``."""
        with MClient(port=server.port) as client:
            client.query("create table tagged (a integer, s varchar(32))")
            client.query("insert into tagged values "
                         "(1, '@date:2020-01-02'), (2, '@date:x')")
            rows = client.query("select a, s from tagged").rows
            client.query("drop table tagged")
        assert rows == [(1, "@date:2020-01-02"), (2, "@date:x")]

    def test_rows_are_decoded_when_query_returns(self, server):
        with MClient(port=server.port) as client:
            result = client.query("select k, d from wide where k < 3")
            assert "rows" in vars(result)  # an attribute, not a property
            assert type(result.rows) is list
            assert result.rows[0] == (0, datetime.date(1995, 1, 1))
            assert not client._buffer  # nothing of it left on the socket
            assert client.ping()


# --------------------------------------------------------------------------
# a fake endpoint: what the client does with bytes no server would write
# --------------------------------------------------------------------------


class _CannedEndpoint(threading.Thread):
    """Each connection: read one request line, write ``reply``, close
    (the ``_StallAfterDropServer`` pattern of ``test_replication.py``)."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.sock.settimeout(0.1)
        self.port = self.sock.getsockname()[1]
        self.reply = b""
        self.connections = 0
        self.stopping = threading.Event()

    def run(self) -> None:
        while not self.stopping.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            self.connections += 1
            with conn:
                conn.settimeout(5.0)
                try:
                    buffer = b""
                    while b"\n" not in buffer:
                        chunk = conn.recv(65536)
                        if not chunk:
                            break
                        buffer += chunk
                    else:
                        conn.sendall(self.reply)
                except OSError:
                    pass
        self.sock.close()

    def close(self) -> None:
        self.stopping.set()
        self.join(timeout=5.0)
        assert not self.is_alive()


@pytest.fixture(scope="module")
def endpoint():
    fake = _CannedEndpoint()
    fake.start()
    yield fake
    fake.close()


def _line(**fields) -> bytes:
    return json.dumps(fields).encode() + b"\n"


_GOOD = _response(["a"], [[1, 2]])

_WRONG_SHAPES = [
    # the reproduction from the issue: TypeError out of MClient.Result
    _line(ok=True, kind="rows", rows=5),
    _line(ok=True, kind="rows", rows=[[1]]),
    _line(ok=True, kind="rows", columns=["a"], row_count=1,
          frames=[["q", 8]], rows=[[1]]),                  # no frame behind
    _line(ok=True, kind="rows", columns=["a"], row_count=2,
          frames=[["q", 8]]) + b"\0" * 8,                  # 8 != 2 x 8
    _line(ok=True, kind="rows", columns=["a"], row_count=10 ** 15,
          frames=[["q", 8 * 10 ** 15]]) + b"\0" * 64,      # a lying header
    _line(ok=True, kind="rows", columns=["a"], row_count=1,
          frames=[["j", 10 ** 12]]) + b"[1]",
    _line(ok=True, kind="rows", columns=["a"], row_count=1,
          frames=[["?", 8]]) + b"\0" * 8,
    _line(ok=True, kind="rows", columns=["a"], row_count=1,
          frames=[["qq", 8]]) + b"\0" * 8,
    _line(ok=True, kind="rows", columns=["a", "b"], row_count=1,
          frames=[["q", 8]]) + b"\0" * 8,
    _line(ok=True, kind="rows", columns=[1], row_count=1,
          frames=[["q", 8]]) + b"\0" * 8,
    _line(ok=True, kind="rows", columns=["a"], row_count=-1,
          frames=[["q", -8]]),
    _line(ok=True, kind="rows", columns=["a"], row_count=True,
          frames=[["q", 8]]) + b"\0" * 8,
    _line(ok=True, kind="rows", columns=["a"], row_count=1,
          frames=[["i", 4]]) + b"\0" * 4,                  # ordinal 0
    _line(ok=True, kind="rows", columns=["a"], row_count=2,
          frames=[["j", 3]]) + b"[1]",                     # one cell short
    _line(ok=True, kind="rows", columns=["a"], row_count=1,
          frames=[["j", 5]]) + b"[[1]]",                   # not a cell
    _line(ok=True, kind="rows", columns=["a"], row_count=1,
          frames=[["j", 9]]) + b'[{"x":1}]',
    _line(ok=True, kind="rows", columns=["a"], row_count=1,
          frames=[["j", 14]]) + b'[{"date":1e99}]',
    _line(ok=True, kind="rows", columns=["a"], row_count=1,
          frames=[["j", 17]]) + b'[{"date":' + b"9" * 7 + b"}]",
    _line(ok=True, kind="rows", columns=["a"], row_count=1,
          frames=[["j", 3]]) + b"\xff\xfe\xfd",
    _line(ok=True, kind="rows", columns=["a"], row_count=1,
          frames=[["j", 4000]]) + b"[" * 4000,
]


class TestClientRefusesMalformedResponses:
    @pytest.mark.parametrize("reply", _WRONG_SHAPES)
    def test_a_bad_result_fails_typed_and_the_next_call_reconnects(
            self, endpoint, reply):
        endpoint.reply = reply
        before = endpoint.connections
        client = MClient(port=endpoint.port, retries=0, timeout=2.0)
        try:
            with pytest.raises((ServerError, ConnectionLostError)):
                client.query("select 1", deadline_s=2.0)
            # part of a result may be consumed: the socket is gone
            assert client._socket is None
            endpoint.reply = _GOOD
            assert client.query("select 1").rows == [(1,), (2,)]
            assert endpoint.connections == before + 2
        finally:
            client.close()

    @pytest.mark.parametrize("reply", [
        _line(ok=True, kind="ddl", affected="many"),
        _line(ok=True, kind=7),
        _line(ok=True, kind="insert", query_id=["q1"]),
        _line(ok=True, kind="ddl", columns="ab"),
    ])
    def test_a_result_of_the_wrong_types_is_a_server_error(
            self, endpoint, reply):
        endpoint.reply = reply
        client = MClient(port=endpoint.port, retries=0, timeout=2.0)
        try:
            with pytest.raises(ServerError, match="malformed"):
                client.query("select 1")
        finally:
            client.close()

    @pytest.mark.parametrize("reply", [
        b'{"ok":true,"kind":"ddl","affected":' + b"9" * 5000 + b"}\n",
        b'{"ok":true,"x":' + b"[" * 100_000 + b"}\n",
        b'{"ok":true,"kind":"\xff"}\n',
    ])
    def test_a_line_json_cannot_take_is_a_server_error(
            self, endpoint, reply):
        endpoint.reply = reply
        client = MClient(port=endpoint.port, retries=0, timeout=2.0)
        try:
            with pytest.raises(ServerError, match="bad protocol line"):
                client.query("select 1")
        finally:
            client.close()

    def test_a_frame_longer_than_the_preallocation_still_arrives_whole(
            self, endpoint):
        count = 300_000  # 2.4 MB of int64: the buffer doubles twice
        endpoint.reply = _response(["a"], [list(range(count))])
        client = MClient(port=endpoint.port, retries=0, timeout=5.0)
        try:
            rows = client.query("select 1").rows
        finally:
            client.close()
        assert rows == [(i,) for i in range(count)]

    def test_a_peer_that_closes_mid_frame_is_a_lost_connection(
            self, endpoint):
        endpoint.reply = _response(["a"], [list(range(1000))])[:-100]
        client = MClient(port=endpoint.port, retries=0, timeout=2.0)
        try:
            with pytest.raises(ConnectionLostError, match="mid-frame"):
                client.query("select 1")
            assert client._socket is None
        finally:
            client.close()

    def test_a_good_response_behind_an_error_line_is_not_read_as_frames(
            self, endpoint):
        endpoint.reply = _line(ok=False, kind="rows", error="no") + _GOOD
        client = MClient(port=endpoint.port, retries=0, timeout=2.0)
        try:
            with pytest.raises(ServerError, match="no"):
                client.query("select 1")
        finally:
            client.close()


# --------------------------------------------------------------------------
# the fuzz: both directions of the trust boundary
# --------------------------------------------------------------------------

_REQUESTS = [
    encode_message(request)[:-1] for request in (
        {"op": "ping"},
        {"op": "query", "sql": "select a, b, x, s, d, f from w"},
        {"op": "query", "sql": "select a from w where a > 0",
         "deadline_s": 5.0, "max_rss_bytes": 1 << 30},
        {"op": "query", "sql": "insert into scratch values (1, 'x')"},
        {"op": "explain", "sql": "select count(*) from w"},
        {"op": "set", "workers": 2, "pipeline": "default_pipe"},
        {"op": "cancel", "query_id": "q1"},
        {"op": "subscribe", "buffer": 8, "from_seq": 0},
        {"op": "queries"},
        {"op": "repl.status"},
    )
]

_RESPONSES = [
    _response(["a", "b", "x", "s", "d", "f"],
              [list(column) for column in zip(*_CORNER_ROWS)]),
    _response(["k", "x", "d"],
              [list(range(50)), [i / 3.0 for i in range(50)],
               [datetime.date(1998, 12, 1)] * 50]),
    _response(["n"], [[]]),
    encode_message({"ok": True, "kind": "insert", "affected": 2,
                    "query_id": "q9"}),
    encode_message({"ok": False, "error": "deadline", "code": "deadline",
                    "query_id": "q3"}),
]


class TestWireFuzz:
    @_FUZZ
    @given(index=st.integers(0, len(_REQUESTS) - 1), mutate=_mutations())
    def test_mutated_request_gets_an_answer_or_a_clean_close(
            self, server, index, mutate):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10.0) as sock:
            sock.sendall(mutate(_REQUESTS[index]) + b"\n"
                         + encode_message({"op": "quit"}))
            data = _read_to_close(sock)
        for message in _Stream(data).messages():
            assert type(message.get("ok")) is bool or "seq" in message
        with MClient(port=server.port) as client:
            assert client.ping()

    def test_the_server_is_left_with_nothing_running(self, server):
        # a mutated query whose sql is no string used to stay registered
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10.0) as sock:
            sock.sendall(b'{"op":"query","sql":null}\n{"op":"quit"}\n')
            first, _bye = _Stream(_read_to_close(sock)).messages()
        assert first["ok"] is False and "string" in first["error"]
        assert server.registry.active_count() == 0

    @_FUZZ
    @given(index=st.integers(0, len(_RESPONSES) - 1), mutate=_mutations())
    def test_mutated_response_fails_typed_or_decodes_well_formed(
            self, endpoint, index, mutate):
        endpoint.reply = mutate(_RESPONSES[index])
        began = time.monotonic()
        client = MClient(port=endpoint.port, retries=0, timeout=2.0)
        try:
            result = client.query("select 1", deadline_s=2.0)
        except ReproError:
            pass
        else:
            assert _well_formed(result)
        finally:
            client.close()
        assert time.monotonic() - began < 1.5  # never the timeout
