"""MClient: the TCP client for Mserver (what Stethoscope connects with).

Hardened against the failures the chaos harness injects: connection
setup raises a typed :class:`~repro.errors.ConnectionFailedError`, and
every request runs under one per-request deadline whose only enforcer
is :meth:`MClient._slice` — it caps every connect, send, receive and
backoff sleep, and raises :class:`~repro.errors.RequestTimeoutError`
once the budget cannot cover the next one.

Server responses carrying an error ``code`` are re-raised as the typed
lifecycle error they encode (``QueryCancelledError``,
``QueryDeadlineError``, ``QueryBudgetError``, ``ServerOverloadedError``)
with the server-assigned ``query_id`` attached.

One loop (:meth:`MClient._call`) re-sends a request after any of three
failures, bounded by ``retries``; they differ only in what makes the
re-send safe and what happens before it:

* **connection lost or refused** — re-sent only when the request is
  retryable (not a data statement, which may already have applied, nor
  ``subscribe`` or a ``repl.sync``/``repl.promote``), after a jittered
  exponential backoff, on a fresh connection that replays the session
  state first;
* **overloaded** — admission shed the query before it started, so any
  statement is re-sent, after the backoff, on the same connection;
* **read-only replica** (only with ``peers``) — the write was refused
  before it ran, so it is re-sent at once to the primary the error
  names, or to the one a fresh probe finds.

Replication-aware routing (``peers=[...]``): the client probes the
peer set's ``repl.status`` (:func:`probe_status`), sends writes to the
primary and load-balances SELECTs across replicas; after a lost
connection it re-probes, since the node may be gone for good.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ConnectionFailedError,
    ConnectionLostError,
    ReadOnlyReplicaError,
    ReplicationError,
    ReproError,
    RequestTimeoutError,
    ServerError,
    ServerOverloadedError,
)
from repro.metrics.families import CLIENT_DEADLINE_EXCEEDED, CLIENT_RETRIES
from repro.server.protocol import (
    decode_message,
    decode_rows,
    encode_message,
    error_from_payload,
)


#: Bytes asked of the socket per receive while looking for a line end.
_RECV_BYTES = 1 << 16

#: A frame's buffer is allocated up front only this far; a longer frame
#: doubles it as bytes arrive, so a header that lies about a length can
#: make the client wait but never allocate what the peer did not send.
_FRAME_PREALLOCATE = 1 << 20

#: Seconds one round of peer status probes stays fresh for routing.
_ROUTE_TTL_S = 1.0


def split_addr(addr: str) -> Tuple[str, int]:
    """Parse ``"host:port"``; a typed error unless the port is an
    integer in 1..65535 (``getaddrinfo`` would wrap a larger one)."""
    host, sep, port_text = addr.rpartition(":")
    if not sep or not host:
        raise ReplicationError(f"bad peer address {addr!r}: want host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise ReplicationError(
            f"bad peer address {addr!r}: port is not an integer") from None
    if not 1 <= port <= 65535:
        raise ReplicationError(
            f"bad peer address {addr!r}: port outside 1..65535")
    return host, port


def probe_status(addr: str, timeout: float = 0.75
                 ) -> Optional[Dict[str, Any]]:
    """One-shot ``repl.status`` probe of ``"host:port"``.

    Deliberately not an :class:`MClient`: no retries, no handshake, one
    bounded connect + one request — client routing and replica
    elections probe a whole peer set and must stay cheap even when half
    of it is down.  None on any failure.
    """
    try:
        with socket.create_connection(split_addr(addr),
                                      timeout=timeout) as sock:
            sock.settimeout(timeout)
            sock.sendall(encode_message({"op": "repl.status"}))
            buffer = b""
            while b"\n" not in buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    return None
                buffer += chunk
        response = decode_message(buffer.split(b"\n", 1)[0])
        return response if response.get("ok") else None
    except (ReproError, OSError, ValueError):
        return None


class MClient:
    """A blocking client over the JSON line protocol.

    Usage::

        with MClient(port=server.port) as client:
            rows = client.query("select count(*) from lineitem").rows

    Args:
        host/port: where the Mserver listens.
        timeout: socket-level timeout for connect and each recv.
        retries: how many times a failed request is re-sent, whichever
            failure it was (0 disables retry).
        backoff_base_s/backoff_max_s: exponential backoff bounds; each
            delay is jittered to half-to-full of the nominal value.
        deadline_s: default per-request wall-clock budget (covers all
            retries); ``None`` means no deadline beyond socket timeouts.
        retry_seed: seeds the jitter PRNG so retry timing is
            reproducible under test.
        handshake: ping the server during construction; on failure the
            socket is closed and ``ConnectionFailedError`` raised.
        peers: ``"host:port"`` addresses of a replicated topology.  When
            non-empty the client routes by role — SELECTs to a replica,
            everything else to the primary — re-resolving on failover.
            The constructor's ``host``/``port`` remain the first
            connection; routing moves it as needed.
    """

    class Result:
        """One statement's outcome as seen by the client.

        ``rows`` is a plain list of tuples, decoded from the column
        frames before :meth:`MClient.query` returned.
        """

        def __init__(self, response: Dict[str, Any]) -> None:
            self.kind: str = response.get("kind", "")
            self.columns: List[str] = response.get("columns", [])
            # a rows header never arrives without its frames decoded
            # into this key (MClient._read_message)
            self.rows: List[Tuple[Any, ...]] = \
                response["rows"] if self.kind == "rows" else []
            self.affected: int = response.get("affected", 0)
            self.query_id: str = response.get("query_id", "")
            if not (type(self.kind) is str and type(self.columns) is list
                    and type(self.affected) is int
                    and type(self.query_id) is str):
                raise ServerError("malformed query response")

    def __init__(self, host: str = "127.0.0.1", port: int = 50000,
                 timeout: float = 30.0, retries: int = 2,
                 backoff_base_s: float = 0.05, backoff_max_s: float = 1.0,
                 deadline_s: Optional[float] = None,
                 retry_seed: Optional[int] = None,
                 handshake: bool = False,
                 peers: Optional[Sequence[str]] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.deadline_s = deadline_s
        self.peers: List[str] = list(peers or [])
        self._routes: Optional[Dict[str, Any]] = None
        self._routes_at = 0.0
        self._rng = random.Random(retry_seed)
        self._socket: Optional[socket.socket] = None
        self._buffer = bytearray()
        self._subscription: Optional["ClientSubscription"] = None
        # session-state requests replayed after a reconnect, keyed so a
        # later profiler/pipeline choice replaces the earlier one
        self._session_state: Dict[str, Dict[str, Any]] = {}
        self._connect()
        if handshake:
            try:
                self._call({"op": "ping"}, retryable=False)
            except ReproError as exc:
                self._teardown()
                raise ConnectionFailedError(
                    f"handshake with {host}:{port} failed: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    # connection management

    def _connect(self, deadline: Optional[float] = None) -> None:
        """Open the connection and replay the session state (pipeline,
        workers, profiler target) on it, so every connection
        this client opens behaves like the first — all under the
        caller's deadline: a replay against a stalled server must fail
        fast, not sleep out the whole socket timeout."""
        try:
            self._socket = socket.create_connection(
                (self.host, self.port), timeout=self._slice(deadline))
        except OSError as exc:
            self._socket = None
            raise ConnectionFailedError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        self._buffer = bytearray()
        for request in self._session_state.values():
            self._call_once(request, deadline)

    def _teardown(self) -> None:
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
            self._socket = None
        self._buffer = bytearray()

    # -- replication-aware routing --------------------------------------

    def _refresh_routes(self) -> None:
        """One probe round over the peer set → primary + replica lists."""
        primary: Optional[str] = None
        hinted: Optional[str] = None
        replicas: List[str] = []
        for addr in self.peers:
            status = probe_status(addr, timeout=min(self.timeout, 0.75))
            if status is None:
                continue
            role = status.get("role")
            if role in ("primary", "standalone"):
                primary = primary or addr
            elif role == "replica":
                replicas.append(addr)
                hinted = hinted or str(status.get("primary", "")) or None
        if primary is None and hinted and hinted not in self.peers:
            # every probed node is a replica but one names its primary
            status = probe_status(hinted, timeout=min(self.timeout, 0.75))
            if status is not None and status.get("role") == "primary":
                primary = hinted
        self._routes = {"primary": primary, "replicas": replicas}
        self._routes_at = time.monotonic()

    def _route(self, role: str, refresh: bool = False) -> None:
        """Point the client at a node serving ``role`` ("primary" or
        "replica"); the next request connects there.

        Unknown topology (every probe failed) or an address that is not
        ``host:port`` keeps the current node — the request itself will
        surface the failure.
        """
        if refresh or self._routes is None or \
                time.monotonic() - self._routes_at > _ROUTE_TTL_S:
            self._refresh_routes()
        assert self._routes is not None
        addr = self._routes["primary"]
        if role == "replica" and self._routes["replicas"]:
            addr = self._rng.choice(self._routes["replicas"])
        try:
            target = split_addr(addr or "")
        except ReplicationError:  # no primary known, or not host:port
            return
        if target != (self.host, self.port):
            self._teardown()
            self.host, self.port = target

    @staticmethod
    def _state_key(request: Dict[str, Any]) -> Optional[str]:
        op = request.get("op")
        if op == "profiler":
            return "profiler"
        if op == "set":
            # pipeline and workers are independent settings
            return "set:" + ",".join(sorted(k for k in request
                                            if k != "op"))
        return None

    # ------------------------------------------------------------------
    # request plumbing

    def _call(self, request: Dict[str, Any],
              deadline_s: Optional[float] = None,
              retryable: bool = True,
              route: Optional[str] = None) -> Dict[str, Any]:
        if self._subscription is not None:
            raise ServerError(
                "a subscription is active on this connection; stop() it "
                "before issuing other requests (or use a second client)")
        budget = self.deadline_s if deadline_s is None else deadline_s
        deadline = None if budget is None else time.monotonic() + budget
        routed = route is not None and bool(self.peers)
        if routed:
            self._route(route)
        attempt = 0
        while True:
            try:
                if self._socket is None:
                    self._connect(deadline)
                response = self._call_once(request, deadline)
                break
            except RequestTimeoutError:
                # the answer may still arrive: on this connection it
                # would be read as the answer to the next request
                self._teardown()
                raise
            except ServerOverloadedError as exc:
                failure: Exception = exc
            except ReadOnlyReplicaError as exc:
                if not self.peers:
                    raise
                failure = exc
            except (ConnectionFailedError, ConnectionLostError,
                    OSError) as exc:
                self._teardown()
                if not retryable:
                    raise self._lost(request, exc)
                failure = exc
            attempt += 1
            if attempt > self.retries:
                raise self._lost(request, failure)
            CLIENT_RETRIES.labels(op=str(request.get("op", "?"))).inc()
            if isinstance(failure, ReadOnlyReplicaError):
                # our view of the primary is stale (a failover
                # happened): follow the error's hint, else re-probe
                self._routes = ({"primary": failure.primary,
                                 "replicas": []}
                                if failure.primary else None)
                self._routes_at = time.monotonic()
                self._route("primary")
                continue
            self._backoff(attempt, deadline)
            if routed and not isinstance(failure, ServerOverloadedError):
                # the node may be gone for good (failover): re-probe
                # the topology instead of hammering it
                self._route(route, refresh=True)
        key = self._state_key(request)
        if key is not None:
            self._session_state[key] = dict(request)
        return response

    def _lost(self, request: Dict[str, Any],
              exc: Exception) -> Exception:
        """What a request that is not re-sent raises: a typed error as
        it is, a bare socket error as :class:`ConnectionLostError`."""
        if isinstance(exc, ReproError):
            return exc
        error = ConnectionLostError(
            f"{request.get('op', '?')} to {self.host}:{self.port} "
            f"failed: {exc}")
        error.__cause__ = exc
        return error

    def _backoff(self, attempt: int, deadline: Optional[float]) -> None:
        """Sleep before re-send ``attempt``: exponential in the attempt,
        jittered to half-to-full of that; a delay the deadline cannot
        cover fails now instead of sleeping into the timeout."""
        nominal = min(self.backoff_max_s,
                      self.backoff_base_s * (2 ** (attempt - 1)))
        delay = nominal * (0.5 + self._rng.random() / 2.0)
        self._slice(deadline, reserve=delay)
        time.sleep(delay)

    def _call_once(self, request: Dict[str, Any],
                   deadline: Optional[float]) -> Dict[str, Any]:
        assert self._socket is not None
        try:
            self._socket.settimeout(self._slice(deadline))
            self._socket.sendall(encode_message(request))
            response = self._read_message(lambda: self._slice(deadline))
        except socket.timeout as exc:
            self._slice(deadline)  # a spent deadline is a timeout
            raise ConnectionLostError(
                f"{self.host}:{self.port} timed out mid-request"
            ) from exc
        if not response.get("ok"):
            raise error_from_payload(response)
        return response

    def _read_message(self, timeout: Callable[[], float]
                      ) -> Dict[str, Any]:
        """The one socket reader: the next line and, behind a ``rows``
        header, its column frames, decoded into ``message["rows"]``.

        ``timeout()`` is the budget of each receive; ``socket.timeout``
        propagates.  Bytes already received stay buffered across calls,
        and only newly received ones are searched for the line end.
        """
        assert self._socket is not None
        buffer = self._buffer
        searched = 0
        while True:
            end = buffer.find(b"\n", searched)
            if end >= 0:
                break
            searched = len(buffer)
            self._socket.settimeout(timeout())
            chunk = self._socket.recv(_RECV_BYTES)
            if not chunk:
                raise ConnectionLostError(
                    f"{self.host}:{self.port} closed the connection")
            buffer += chunk
        message = decode_message(buffer[:end])
        del buffer[:end + 1]
        if message.get("ok") and message.get("kind") == "rows":
            try:
                message["rows"] = decode_rows(
                    message, lambda count: self._read_frame(count, timeout))
            except (ReproError, OSError):
                # part of a result is consumed: framing is lost
                self._teardown()
                raise
        return message

    def _read_frame(self, count: int,
                    timeout: Callable[[], float]) -> bytearray:
        """The next ``count`` bytes: what is buffered, then straight off
        the socket into the frame's own buffer."""
        frame = self._buffer[:count]
        del self._buffer[:count]
        have = len(frame)
        while have < count:
            if have == len(frame):
                room = min(count, max(_FRAME_PREALLOCATE, 2 * have))
                frame += bytes(room - have)
            self._socket.settimeout(timeout())
            got = self._socket.recv_into(memoryview(frame)[have:])
            if not got:
                raise ConnectionLostError(
                    f"{self.host}:{self.port} closed the connection "
                    "mid-frame")
            have += got
        return frame

    def _slice(self, deadline: Optional[float],
               reserve: float = 0.0) -> float:
        """Socket timeout for the next operation under ``deadline`` —
        the client's one deadline check: it raises
        :class:`~repro.errors.RequestTimeoutError` once no more than
        ``reserve`` seconds of the budget are left."""
        if deadline is None:
            return self.timeout
        remaining = deadline - time.monotonic()
        if remaining <= reserve:
            CLIENT_DEADLINE_EXCEEDED.inc()
            raise RequestTimeoutError(
                f"request to {self.host}:{self.port} exceeded its "
                "deadline")
        return min(self.timeout, remaining)

    # ------------------------------------------------------------------
    # verbs

    def ping(self) -> bool:
        """Liveness check."""
        return bool(self._call({"op": "ping"}).get("pong"))

    def stats(self) -> Dict[str, Any]:
        """The server's engine-metrics snapshot (the ``stats`` verb).

        Returns the plain dict form of every metric family in the
        server's ``repro.metrics`` registry; render it locally with
        :func:`repro.metrics.render_snapshot`, or see
        ``docs/metrics_reference.md`` for the families."""
        return self._call({"op": "stats"})["metrics"]

    def stats_payload(self) -> Dict[str, Any]:
        """The full ``stats`` verb response: ``metrics`` plus the
        adaptive feedback state — ``stats_store`` / ``stats_top``
        (runtime statistics store summary and the most observed
        selection signatures with their selectivities), ``plan_cache``
        counters and per-entry ``plan_entries`` diagnostics (the tables
        the plan reads, hits, age, the latest run's modelled cost)."""
        return self._call({"op": "stats"})

    def query(self, sql: str,
              deadline_s: Optional[float] = None,
              server_deadline_s: Optional[float] = None,
              max_rss_bytes: Optional[int] = None) -> "MClient.Result":
        """Execute one SQL statement.

        ``server_deadline_s`` asks the server to cancel the query when
        its wall clock exceeds the budget (typed
        ``QueryDeadlineError``); ``max_rss_bytes`` bounds the query's
        simulated resident set (``QueryBudgetError``).  ``deadline_s``
        is the *client-side* budget covering transport and retries.

        Only SELECTs are retried after a connection loss — a data
        statement may already have applied on the server side, so
        re-sending it is not safe.  Overload sheds are retried for any
        statement: a shed query never started.
        """
        request: Dict[str, Any] = {"op": "query", "sql": sql}
        if server_deadline_s is not None:
            request["deadline_s"] = server_deadline_s
        if max_rss_bytes is not None:
            request["max_rss_bytes"] = max_rss_bytes
        retryable = sql.lstrip()[:6].lower().startswith("select")
        route = None
        if self.peers:
            route = "replica" if retryable else "primary"
        return MClient.Result(self._call(request, deadline_s=deadline_s,
                                         retryable=retryable,
                                         route=route))

    def cancel(self, query_id: str) -> bool:
        """Cancel a running query by its server-assigned id.

        Returns True when the cancel landed on a live query; False when
        the id is unknown or the query already finished.
        """
        return bool(self._call({"op": "cancel",
                                "query_id": query_id}).get("cancelled"))

    def queries(self) -> Dict[str, Any]:
        """Queued/running queries plus recently finished ones."""
        response = self._call({"op": "queries"})
        return {"queries": response.get("queries", []),
                "recent": response.get("recent", [])}

    def explain(self, sql: str) -> str:
        """The optimized MAL plan text of a SELECT."""
        return self._call({"op": "explain", "sql": sql})["plan"]

    def dot(self, sql: str) -> str:
        """The optimized plan's dot file of a SELECT."""
        return self._call({"op": "dot", "sql": sql})["dot"]

    def repl_status(self) -> Dict[str, Any]:
        """The connected node's replication status (``repl.status``)."""
        return self._call({"op": "repl.status"})

    def repl_sync(self, **fields: Any) -> Dict[str, Any]:
        """One replication pull (``repl.sync``) — used by replicas'
        puller threads; exposed for tooling and tests."""
        return self._call({"op": "repl.sync", **fields},
                          retryable=False)

    def promote(self,
                deadline_s: Optional[float] = None) -> Dict[str, Any]:
        """Promote the connected node to primary (``repl.promote``)."""
        return self._call({"op": "repl.promote"},
                          deadline_s=deadline_s, retryable=False)

    def set_pipeline(self, name: str) -> None:
        """Choose the optimizer pipeline for subsequent queries."""
        self._call({"op": "set", "pipeline": name})

    def set_workers(self, workers: int) -> None:
        """Choose the dataflow worker count."""
        self._call({"op": "set", "workers": workers})

    def set_profiler(self, port: int, host: str = "127.0.0.1",
                     filter_options: Optional[Dict[str, Any]] = None) -> None:
        """Stream profiler events (and plan dot files) to a UDP endpoint.

        ``filter_options`` supports ``statuses``, ``modules`` and
        ``min_usec`` — the server-side filter options the Stethoscope
        sets (paper §3: "The profiler accepts filter options set through
        Stethoscope")."""
        request: Dict[str, Any] = {"op": "profiler", "host": host,
                                   "port": port}
        if filter_options:
            request["filter"] = filter_options
        self._call(request)

    def profiler_off(self) -> None:
        """Stop streaming profiler events."""
        self._call({"op": "profiler", "off": True})
        self._session_state.pop("profiler", None)

    def subscribe(self, from_seq: Optional[int] = None,
                  query_id: str = "",
                  buffer: Optional[int] = None) -> "ClientSubscription":
        """Attach to the server's live trace broadcast hub.

        The connection switches to streaming mode: the returned
        :class:`ClientSubscription` reads hub entries (dot lines, trace
        events, end markers — each carrying a monotonic ``seq``) until
        :meth:`ClientSubscription.stop` detaches.  While subscribed,
        other requests on this client raise — attach a second
        ``MClient`` to query concurrently.  Pass ``from_seq`` (usually
        a previous subscription's ``last_seq + 1``) to resume a broken
        session without losing entries still in the server's history.
        """
        request: Dict[str, Any] = {"op": "subscribe"}
        if from_seq is not None:
            request["from_seq"] = int(from_seq)
        if query_id:
            request["query_id"] = query_id
        if buffer is not None:
            request["buffer"] = int(buffer)
        ack = self._call(request, retryable=False)
        subscription = ClientSubscription(self, ack)
        self._subscription = subscription
        return subscription

    def _recv_message(self, timeout: float) -> Optional[Dict[str, Any]]:
        """Read one message; None on timeout, raises on EOF."""
        try:
            return self._read_message(lambda: timeout)
        except socket.timeout:
            return None

    def close(self) -> None:
        if self._socket is None:
            return
        if self._subscription is not None:
            try:
                self._subscription.stop()
            except (ReproError, OSError):
                self._subscription = None
        try:
            self._call({"op": "quit"}, deadline_s=1.0, retryable=False)
        except (ReproError, OSError):
            pass
        self._teardown()

    def __enter__(self) -> "MClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ClientSubscription:
    """The client-side view of one ``subscribe`` session.

    Iterate :meth:`entries` to read hub entries (dicts with ``seq``,
    ``kind`` ∈ {event, dot, end}, ``query_id`` and the raw ``line``) as
    the server streams them; :attr:`last_seq` always holds the newest
    sequence number seen, so after a disconnect a fresh client can
    ``subscribe(from_seq=sub.last_seq + 1)`` to resume without gaps
    (as long as the server's history ring still covers the range).
    """

    def __init__(self, client: MClient, ack: Dict[str, Any]) -> None:
        self.client = client
        self.subscriber_id: str = ack.get("subscriber_id", "")
        self.next_seq: int = int(ack.get("next_seq", 0))
        self.missed: int = int(ack.get("missed", 0))
        self.buffer: int = int(ack.get("buffer", 0))
        self.last_seq: int = -1
        self.received = 0
        self.summary: Optional[Dict[str, Any]] = None
        self._active = True

    def next_entry(self, timeout: float = 1.0) -> Optional[Dict[str, Any]]:
        """One hub entry, or None when nothing arrives in ``timeout``."""
        if not self._active:
            return None
        message = self.client._recv_message(timeout=timeout)
        if message is None:
            return None
        if "seq" in message:
            self.last_seq = max(self.last_seq, int(message["seq"]))
            self.received += 1
        return message

    def entries(self, idle_timeout: float = 1.0,
                max_seconds: Optional[float] = None,
                until_end: bool = False):
        """Yield hub entries until idle, deadline, or an ``end`` marker.

        ``idle_timeout`` bounds the wait for each next entry;
        ``max_seconds`` bounds the whole iteration; ``until_end`` stops
        (after yielding it) at the first end-of-query marker — the
        natural way to follow exactly one query to completion.
        """
        began = time.monotonic()
        while self._active:
            budget = idle_timeout
            if max_seconds is not None:
                remaining = max_seconds - (time.monotonic() - began)
                if remaining <= 0:
                    return
                budget = min(budget, remaining)
            entry = self.next_entry(timeout=budget)
            if entry is None:
                if max_seconds is None:
                    return
                continue
            yield entry
            if until_end and entry.get("kind") == "end":
                return

    def stop(self, timeout: float = 5.0) -> Dict[str, Any]:
        """Detach from the hub and return the delivery summary.

        Entries still in flight between the ``unsubscribe`` request and
        its response are consumed (and counted) on the way out, so the
        connection is clean for ordinary requests afterwards.
        """
        if not self._active:
            return self.summary or {}
        self._active = False
        client = self.client
        assert client._socket is not None
        deadline = time.monotonic() + timeout
        try:
            client._socket.settimeout(client._slice(deadline))
            client._socket.sendall(encode_message({"op": "unsubscribe"}))
            while True:
                message = client._recv_message(
                    timeout=client._slice(deadline))
                if message is None:
                    continue
                if "seq" in message:
                    self.last_seq = max(self.last_seq,
                                        int(message["seq"]))
                    self.received += 1
                    continue
                if not message.get("ok"):
                    raise error_from_payload(message)
                self.summary = message
                # only now is the connection out of streaming mode —
                # clearing the guard earlier would let ordinary
                # requests read stray entry lines as their responses
                client._subscription = None
                return message
        except (ReproError, OSError):
            # handshake failed: the connection may still be streaming,
            # so drop it — the next request reconnects cleanly instead
            # of misreading broadcast entries as its response
            client._subscription = None
            client._teardown()
            raise

    def __enter__(self) -> "ClientSubscription":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.stop()
        except (ReproError, OSError):
            pass
