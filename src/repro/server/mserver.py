"""The Mserver TCP server: an asyncio front-end over executor-run queries.

The front-end is a single event loop (running in a background thread)
serving one :class:`asyncio.Protocol` object per connection — no task,
queue, lock or per-request timer.  ``data_received`` frames
line-delimited JSON requests; they are answered one at a time, so
responses leave **in request order** (clients may pipeline), each as
one ``transport.write``.  A request that cannot block is answered inside
the callback that heard it, and ten thousand idle viewers cost ten
thousand small objects, not threads.

Blocking work (SQL execution, plan explain/dot) runs on a thread-pool
executor, whose thread also encodes the response and hands the bytes
back — a query crosses the loop twice.  The MAL engine and admission
control are untouched: every query still gets a server-assigned id and
a cancellation token threaded down to the engine, whose check at
every instruction boundary is also what enforces a query's deadline;
admission control bounds concurrency with typed load-shedding, and
``stop()`` drains gracefully.

Session state (optimizer pipeline choice, worker count, profiler
streaming target and filter) is per-connection, applied at
execute time.  When a profiler target is set, every subsequent SELECT
first ships its plan's dot file over the UDP stream, then streams the
execution trace events, then an end marker — exactly the online-mode
contract the Stethoscope expects (paper §4.2).

The **trace broadcast hub** (:mod:`repro.profiler.broadcast`): every
profiled line is also published once into the hub, and any number of
connections can ``subscribe`` to follow it live with bounded
drop-oldest buffers and resumable sequence numbers — the full wire
contract is specified in ``docs/streaming.md``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, Optional, Sequence, Set, Tuple

from repro.errors import ReadOnlyReplicaError, ReproError, ServerError
from repro.faults.plan import ACTIVE
from repro.mal.optimizer import pipeline_by_name
from repro.metrics import snapshot as metrics_snapshot
from repro.metrics.families import (
    SERVER_CONNECTIONS,
    SERVER_CONNECTIONS_ACTIVE,
    SERVER_QUERY_USEC,
    SERVER_REQUESTS,
    SERVER_REQUEST_ERRORS,
)
from repro.profiler.broadcast import HubPipe, Subscription, TraceBroadcastHub
from repro.profiler.filters import EventFilter
from repro.profiler.profiler import Profiler
from repro.profiler.stream import UdpEmitter
from repro.server.database import Database
from repro.server.lifecycle import (
    AdmissionController,
    QueryRegistry,
    record_drain,
)
from repro.server.protocol import (
    MAX_MESSAGE_BYTES,
    VERBS,
    checked_workers,
    decode_message,
    encode_message,
    encode_rows,
    error_payload,
)

#: Statement heads that only read — they share execution slots; anything
#: else (DDL, INSERT) admits exclusively.
_READ_HEADS = ("select", "explain", "trace")

#: What a ``set`` request may carry; any other key is a typed error.
_SET_KEYS = frozenset(("op", "pipeline", "workers"))

#: Seconds a connection may sit idle — nothing heard, nothing pending
#: or running — before the server hangs up; read when a connection is
#: made.  Connections with an active hub subscription are exempt — a
#: viewer legitimately reads for minutes without writing.
_IDLE_TIMEOUT_S = 30.0

#: Pipelined requests framed per connection before it stops pulling
#: from the socket (TCP backpressure does the rest).
_PIPELINE_DEPTH = 64


class Mserver:
    """A TCP server around one :class:`~repro.server.database.Database`.

    Args:
        database: the execution environment to serve.
        host/port: listen address (port 0 → ephemeral; read
            :attr:`port` after :meth:`start`).
        max_concurrent: execution slots shared by concurrent SELECTs
            (writes are exclusive).
        max_queue: queries allowed to wait for a slot before admission
            sheds with :class:`~repro.errors.ServerOverloadedError`.
        queue_wait_s: longest a query may wait in the admission queue.
        default_deadline_s: server-side deadline applied to queries
            that do not carry their own ``deadline_s``.
        drain_seconds: default drain budget :meth:`stop` grants
            in-flight queries before cancelling them.
        subscriber_buffer: default per-subscriber hub buffer (entries);
            a laggard past it loses oldest entries, never slows the
            query.
        max_subscribers: hub subscriptions beyond this are refused
            with a typed overload error.
        trace_history: hub entries retained for ``subscribe
            from=<seq>`` resume.
    """

    def __init__(self, database: Database, host: str = "127.0.0.1",
                 port: int = 0, max_concurrent: int = 4,
                 max_queue: int = 16, queue_wait_s: float = 5.0,
                 default_deadline_s: Optional[float] = None,
                 drain_seconds: float = 2.0,
                 subscriber_buffer: int = 512,
                 max_subscribers: int = 1024,
                 trace_history: int = 8192) -> None:
        self.database = database
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.default_deadline_s = default_deadline_s
        self.drain_seconds = drain_seconds
        self.registry = QueryRegistry()
        self.admission = AdmissionController(
            max_concurrent=max_concurrent, max_queue=max_queue,
            queue_wait_s=queue_wait_s)
        self.hub = TraceBroadcastHub(
            history=trace_history, default_buffer=subscriber_buffer,
            max_subscribers=max_subscribers)
        # the executor must be wide enough that concurrent queries reach
        # the admission controller (which is what bounds execution) —
        # otherwise overload sheds would never trigger under load tests
        self._executor_workers = max(32, max_concurrent + max_queue + 8)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._aserver: Optional[asyncio.AbstractServer] = None
        #: live connections; touched on the loop thread only
        self._conns: Set["_Connection"] = set()
        #: the node's :class:`~repro.replication.ReplicationManager`,
        #: attached after :meth:`start` (it advertises the bound port);
        #: None on standalone servers.
        self.replication: Optional[Any] = None

    # ------------------------------------------------------------------

    def start(self) -> "Mserver":
        """Bind, listen, and serve on a background event loop."""
        if self._loop is not None:
            raise ServerError("server already started")
        self.admission.end_drain()
        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_workers,
            thread_name_prefix="mserver-exec")
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: list = []

        def run_loop() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._aserver = self._loop.run_until_complete(
                    self._loop.create_server(
                        lambda: _Connection(self), host=self.host,
                        port=self._requested_port, reuse_address=True))
                sockets = self._aserver.sockets or []
                self.port = sockets[0].getsockname()[1]
            except Exception as exc:  # bind failure surfaces in start()
                failure.append(exc)
                self._loop.close()
                started.set()
                return
            started.set()
            try:
                self._loop.run_forever()
            finally:
                # drain pending callbacks (transport close notifications
                # etc.), then release the loop's self-pipe fds so the
                # test leak guard sees a clean socket table
                self._loop.run_until_complete(
                    self._loop.shutdown_asyncgens())
                self._loop.close()

        self._loop_thread = threading.Thread(
            target=run_loop, name="mserver-loop", daemon=True)
        self._loop_thread.start()
        started.wait(timeout=5.0)
        if failure:
            self._loop_thread.join(timeout=2.0)
            self._loop = None
            self._loop_thread = None
            self._executor.shutdown(wait=False)
            self._executor = None
            raise ServerError(f"could not start server: {failure[0]}")
        return self

    def stop(self, drain_seconds: Optional[float] = None) -> None:
        """Graceful drain shutdown.

        Stops accepting (new queries shed as ``stopping``), waits up to
        ``drain_seconds`` for in-flight queries to finish, force-cancels
        the stragglers, then closes every tracked connection and stops
        the event loop — nothing is left behind for a socket timeout to
        reap.
        """
        if self._loop is None:
            return
        budget = self.drain_seconds if drain_seconds is None \
            else drain_seconds
        if self.replication is not None:
            self.replication.stop()
        self.admission.begin_drain()
        loop = self._loop

        async def close_listener() -> None:
            if self._aserver is not None:
                self._aserver.close()
                await self._aserver.wait_closed()
                self._aserver = None

        _run_on_loop(loop, close_listener(), timeout=2.0)
        deadline = time.monotonic() + max(0.0, budget)
        while self.registry.active_count() and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        forced = self.registry.cancel_all(
            f"server draining (budget {budget:g}s exhausted)",
            source="drain")
        record_drain(forced=bool(forced))
        # give cancelled queries a moment to unwind and answer their
        # clients with the typed error before the connections close
        grace = time.monotonic() + 1.0
        while self.registry.active_count() and time.monotonic() < grace:
            time.sleep(0.02)
        self.hub.close_all()

        async def close_connections() -> None:
            conns = list(self._conns)
            for conn in conns:
                conn.kill()
            if conns:
                await asyncio.wait([c.done for c in conns], timeout=2.0)

        _run_on_loop(loop, close_connections(), timeout=4.0)
        loop.call_soon_threadsafe(loop.stop)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
            self._loop_thread = None
        self._loop = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.database.close()

    def __enter__(self) -> "Mserver":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _run_on_loop(loop: asyncio.AbstractEventLoop, coro,
                 timeout: float) -> None:
    """Run a coroutine on the server loop from the caller's thread."""
    future = asyncio.run_coroutine_threadsafe(coro, loop)
    try:
        future.result(timeout=timeout)
    except Exception:
        future.cancel()


def _error_response(exc: Exception) -> Dict:
    """What a request is answered when handling it raised: the typed
    payload for the engine's own errors, and for anything else a
    surfaced ``internal error`` — a bug costs one request, never the
    connection or the server."""
    if isinstance(exc, ReproError):
        return error_payload(exc)
    return {"ok": False, "error": f"internal error: {exc}"}


class _Connection(asyncio.Protocol):
    """One client connection: a protocol object, no task of its own.

    ``data_received`` frames lines into ``_pending`` (pausing the
    transport at ``_PIPELINE_DEPTH``); ``_pump`` starts them one at a
    time, so responses leave in request order.  A verb that cannot block
    is answered right there, on the loop; a blocking one runs on the
    executor, whose thread also encodes the response and hands the bytes
    back with one ``call_soon_threadsafe``.  Every message — a result's
    header and frames, a batch of hub entries — is a single
    ``transport.write``, so nothing can land inside another and there is
    no lock to hold.  ``pause_writing`` stops this connection's next
    request and its entry stream, nobody else's, until the peer reads
    again.  One timer, re-armed when it fires, hangs up an idle peer.
    """

    def __init__(self, server: Mserver) -> None:
        self.server = server
        self.session = _ClientSession(server)
        self.subscription: Optional[Subscription] = None
        self.transport: Optional[asyncio.Transport] = None
        #: resolved by ``connection_lost``; ``Mserver.stop`` waits on it
        self.done: Optional[asyncio.Future] = None
        self._buffer = bytearray()              # bytes behind the last newline
        self._pending: Deque[bytes] = deque()   # framed, not yet started
        self._busy = False          # a request is started and not yet written
        self._pumping = False
        self._writable = True
        self._closing = False
        #: what to write before hanging up once ``_pending`` is answered:
        #: nothing after EOF, the refusal after an oversized line
        self._farewell: Optional[bytes] = None
        self._wake_queued = False

    # -- lifecycle ------------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        loop = self._loop = asyncio.get_running_loop()
        self.transport = transport
        self.done = loop.create_future()
        self.server._conns.add(self)
        SERVER_CONNECTIONS.inc()
        SERVER_CONNECTIONS_ACTIVE.inc()
        self._idle_timeout = _IDLE_TIMEOUT_S
        self._active_at = loop.time()
        self._check_idle()  # arms the one timer this connection has

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closing = True
        self._idle_timer.cancel()
        if self.subscription is not None:
            self.subscription.close()
            self.subscription = None
        self.session.close()
        self.server._conns.discard(self)
        SERVER_CONNECTIONS_ACTIVE.dec()
        self.done.set_result(None)

    def kill(self) -> None:
        """Hang up (on the loop thread); what is running for this
        connection finishes and its answer is dropped."""
        self._closing = True
        self.transport.close()

    def _check_idle(self) -> None:
        """Idle is a whole period with no byte heard, nothing pending,
        nothing running and no subscription — a statement that outruns
        the period is not idleness, nor is a viewer reading a stream."""
        now = self._loop.time()
        if self._busy or self._pending or self.subscription is not None:
            self._active_at = now
        due = self._active_at + self._idle_timeout
        if due <= now:
            self.kill()
        else:
            self._idle_timer = self._loop.call_at(due, self._check_idle)

    # -- in: framing and backpressure -----------------------------------

    def data_received(self, data: bytes) -> None:
        self._active_at = self._loop.time()
        buffer = self._buffer
        searched = len(buffer)
        buffer += data
        start = 0
        end = buffer.find(b"\n", searched)
        while end >= 0 and end - start <= MAX_MESSAGE_BYTES:
            line = bytes(buffer[start:end])
            if line.strip():
                self._pending.append(line)
            start = end + 1
            end = buffer.find(b"\n", start)
        del buffer[:start]
        if end >= 0 or len(buffer) > MAX_MESSAGE_BYTES:
            # framing garbage: answer what was framed before it, refuse,
            # hang up — and hear no more
            buffer.clear()
            self._farewell = encode_message({
                "ok": False,
                "error": f"request exceeds {MAX_MESSAGE_BYTES} "
                         "bytes without a newline"})
        if self._farewell is not None or \
                len(self._pending) >= _PIPELINE_DEPTH:
            self.transport.pause_reading()
        self._pump()

    def eof_received(self) -> bool:
        if self._farewell is None:
            if self._buffer.strip():  # a last line without its newline
                self._pending.append(bytes(self._buffer))
            self._farewell = b""
        self._pump()
        # stay open: every request already framed still gets its answer
        return True

    def pause_writing(self) -> None:
        self._writable = False

    def resume_writing(self) -> None:
        self._writable = True
        self._stream()
        self._pump()

    # -- requests, one at a time ----------------------------------------

    def _pump(self) -> None:
        """Start pending requests until one has to wait for the executor,
        for a fault's delay or for the peer to read.

        A loop, and not re-entered: a verb answered on the loop gets here
        again from its own ``_write``, and a burst of pipelined pings
        would otherwise recurse once per request.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._writable and not (self._busy or self._closing):
                if not self._pending:
                    if self._farewell is not None:
                        if self._farewell:
                            self.transport.write(self._farewell)
                        self.kill()
                    return
                line = self._pending.popleft()
                if len(self._pending) == _PIPELINE_DEPTH - 1 and \
                        self._farewell is None:  # just below the depth
                    self.transport.resume_reading()
                self._start(line)
        finally:
            self._pumping = False

    def _start(self, line: bytes) -> None:
        self._busy = True
        op = "invalid"
        try:
            request = decode_message(line)
        except ReproError as exc:
            response = _error_response(exc)
            self._finish(op, response, encode_message(response))
            return
        if request.get("op") is not None:
            op = str(request["op"])
        if op in _BLOCKING_VERBS:
            self.server._executor.submit(self._answer, op, request, True)
        else:
            self._answer(op, request, False)

    def _answer(self, op: str, request: Dict, offloaded: bool) -> None:
        """Handle one request and encode its response — on the loop, or
        on an executor thread that then hands the finished bytes back."""
        frames: Sequence[bytes] = ()
        try:
            if op == "query":
                response, frames = self.session._handle_query(request)
            elif op == "subscribe":
                response = self._handle_subscribe(request)
            elif op == "unsubscribe":
                response = self._handle_unsubscribe()
            else:
                response = self.session.handle(request)
            data = encode_message(response, frames)
        except Exception as exc:  # surface, do not kill server
            response = _error_response(exc)
            data = encode_message(response)
        if not offloaded:
            self._finish(op, response, data)
            return
        try:
            self._loop.call_soon_threadsafe(
                self._finish, op, response, data)
        except RuntimeError:
            pass  # the loop closed under a query that outlived the drain

    def _finish(self, op: str, response: Dict, data: bytes) -> None:
        """Count one handled request, consult the fault plan, write."""
        # the label is ours, not the peer's: one child per verb
        verb = op if op in VERBS else "invalid"
        SERVER_REQUESTS.labels(verb).inc()
        if not response.get("ok"):
            SERVER_REQUEST_ERRORS.labels(verb).inc()
        bye = response.get("bye")
        plan = ACTIVE.plan
        decision = None if plan is None else \
            plan.decide("server.loop", detail=op)
        if decision is None:
            self._write(data, bye)
        elif decision.action == "reset":
            self.kill()  # drop the connection without answering
        else:  # latency: this answer is late, and so all behind it
            self._loop.call_later(
                min(decision.value or 25.0, 2000.0) / 1000.0,
                self._write, data, bye)

    def _write(self, data: bytes, bye: Any) -> None:
        if self._closing:
            return
        self.transport.write(data)
        self._busy = False
        self._active_at = self._loop.time()
        if bye:
            self.kill()
            return
        if self.subscription is not None:
            self._stream()
        self._pump()

    # -- the subscribe verb ---------------------------------------------

    def _handle_subscribe(self, request: Dict) -> Dict:
        if self.subscription is not None:
            raise ServerError(
                "already subscribed on this connection; unsubscribe "
                "first")
        server = self.server
        query_id = str(request.get("query_id", "") or "")
        from_seq = request.get("from_seq")  # the hub checks the numbers
        if query_id and from_seq is None:
            # subscribing to a named query: it must be live, or at
            # least still retained in the hub's resume ring
            live = server.registry.get(query_id) is not None
            if not live and not server.hub.has_query(query_id):
                raise ServerError(
                    f"unknown query {query_id!r}: not running and no "
                    "trace retained in the broadcast history")
            if not live:
                # finished but retained — replay its trace from the ring
                from_seq = 0
        # any backfill is streamed by _write, right behind this response
        self.subscription = server.hub.subscribe(
            from_seq=from_seq, buffer_size=request.get("buffer"),
            query_id=query_id, wake=self._wake)
        return {"ok": True,
                "subscriber_id": self.subscription.subscriber_id,
                "next_seq": server.hub.next_seq(),
                "missed": self.subscription.missed,
                "buffer": self.subscription.buffer_size}

    def _handle_unsubscribe(self) -> Dict:
        if self.subscription is None:
            raise ServerError("not subscribed")
        sub = self.subscription
        self.subscription = None
        sub.close()
        # entries are popped only to be written at once (_stream), so
        # what the summary counts as delivered was handed to the peer
        summary = sub.describe()
        return {"ok": True, "unsubscribed": True,
                "delivered": summary["delivered"],
                "dropped": summary["dropped"],
                "missed": summary["missed"]}

    def _wake(self) -> None:
        """The hub has an entry for us (any thread): one queued
        ``_stream`` covers every entry offered before it runs."""
        if not self._wake_queued:
            self._wake_queued = True
            self._loop.call_soon_threadsafe(self._stream)

    def _stream(self) -> None:
        """Write the hub entries buffered for this connection.

        Entry lines carry ``seq`` and never carry ``ok`` — a client
        reading the connection tells them apart from request responses
        by that key (``docs/streaming.md`` §5).
        """
        self._wake_queued = False
        while self._writable and not self._closing and \
                self.subscription is not None:
            batch = self.subscription.pop_batch(max_entries=256)
            if not batch:
                return
            self.transport.write(b"".join(
                [encode_message(entry.payload()) for entry in batch]))


#: Verbs that may block — SQL, plan compilation, and the replication
#: verbs (sync reads WAL bytes from disk, promote re-runs recovery):
#: they run on the executor, every other verb on the loop.
_BLOCKING_VERBS = frozenset((
    "query", "explain", "dot", "repl.status", "repl.sync", "repl.promote"))


class _ClientSession:
    """Per-connection state and request dispatch (executor side).

    ``pipeline_name``/``workers`` are session-local
    overrides applied at execute time — ``op=set`` never mutates the
    shared :class:`~repro.server.database.Database`, so one client's
    settings cannot leak into another's queries.
    """

    def __init__(self, server: Mserver) -> None:
        self.server = server
        self.emitter: Optional[UdpEmitter] = None
        self.event_filter = EventFilter()
        self.pipeline_name: Optional[str] = None
        self.workers: Optional[int] = None

    def close(self) -> None:
        if self.emitter is not None:
            self.emitter.close()
            self.emitter = None

    # ------------------------------------------------------------------

    def handle(self, request: Dict) -> Dict:
        """Answer any verb but ``query``, whose response has frames
        behind it (:meth:`_handle_query`)."""
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "quit":
            return {"ok": True, "bye": True}
        if op == "stats":
            database = self.server.database
            return {"ok": True, "metrics": metrics_snapshot(),
                    "plan_cache": database.plan_cache.stats(),
                    "plan_entries": database.plan_cache.entries(),
                    "stats_store": database.stats_store.summary(),
                    "stats_top": database.stats_store.top_entries(),
                    "broadcast": self.server.hub.stats()}
        if op == "set":
            return self._handle_set(request)
        if op == "profiler":
            return self._handle_profiler(request)
        if op == "cancel":
            return self._handle_cancel(request)
        if op == "queries":
            return {"ok": True,
                    "queries": self.server.registry.list(),
                    "recent": self.server.registry.recent()}
        if op in ("repl.status", "repl.sync", "repl.promote"):
            return self._handle_repl(op, request)
        # explain/dot/stats never enter admission, so they stay
        # responsive while the execution slots are busy
        if op == "explain":
            return {"ok": True,
                    "plan": self.server.database.explain(
                        request.get("sql", ""),
                        self.pipeline_name, self.workers)}
        if op == "dot":
            return {"ok": True,
                    "dot": self.server.database.dot(
                        request.get("sql", ""),
                        self.pipeline_name, self.workers)}
        raise ServerError(f"unknown op {op!r}")

    def _handle_set(self, request: Dict) -> Dict:
        unknown = sorted(set(request) - _SET_KEYS)
        if unknown:
            raise ServerError(
                f"unknown setting {unknown[0]!r}; valid: pipeline, workers")
        if "pipeline" in request:
            pipeline_by_name(request["pipeline"])  # validate eagerly
            self.pipeline_name = request["pipeline"]
        if "workers" in request:
            self.workers = checked_workers(request["workers"])
        return {"ok": True}

    def _handle_profiler(self, request: Dict) -> Dict:
        self.close()
        if request.get("off"):
            return {"ok": True}
        host = request.get("host", "127.0.0.1")
        port = int(request["port"])
        self.emitter = UdpEmitter(host=host, port=port)
        options = request.get("filter", {})
        self.event_filter = EventFilter(
            statuses=set(options["statuses"]) if "statuses" in options
            else None,
            modules=set(options["modules"]) if "modules" in options
            else None,
            min_usec=int(options.get("min_usec", 0)),
        )
        return {"ok": True}

    def _handle_repl(self, op: str, request: Dict) -> Dict:
        manager = self.server.replication
        if manager is None:
            if op == "repl.status":
                # standalone servers still answer status probes, so
                # tooling can tell "not replicated" from "unreachable"
                durability = self.server.database.durability
                return {
                    "ok": True, "role": "standalone", "addr": "",
                    "primary": "", "peers": [],
                    "epoch": durability.epoch if durability else 0,
                    "durable_lsn":
                        durability.wal.durable_lsn if durability else 0,
                    "checkpoint_lsn":
                        durability.checkpoint_lsn if durability else 0,
                }
            raise ServerError(
                f"{op} requires replication; start the server with "
                f"--replicate-from or --peers")
        if op == "repl.status":
            return manager.status()
        if op == "repl.sync":
            return manager.handle_sync(request)
        return manager.handle_promote(request)

    def _handle_cancel(self, request: Dict) -> Dict:
        query_id = str(request.get("query_id", ""))
        verdict = self.server.registry.cancel(query_id, source="client")
        return {"ok": True, "query_id": query_id, **verdict}

    def _handle_query(self, request: Dict
                      ) -> Tuple[Dict, Sequence[bytes]]:
        """Run one statement; a result's columns are encoded here, on
        the thread that ran it, and returned beside their header."""
        sql = request.get("sql", "")
        if not isinstance(sql, str):
            # refused before it is registered: nothing would finish it
            raise ServerError("query needs its sql as a string")
        server = self.server
        database = server.database
        deadline_s = request.get("deadline_s", server.default_deadline_s)
        context = server.registry.register(
            sql, deadline_s=deadline_s,
            rss_budget_bytes=request.get("max_rss_bytes"))
        head = sql.lstrip()[:8].lower()
        exclusive = not head.startswith(_READ_HEADS)
        replication = server.replication
        if exclusive and replication is not None and \
                not replication.accepts_writes():
            server.registry.finish(context, "failed")
            raise ReadOnlyReplicaError(
                "this node is a read-only replica; send writes to the "
                "primary", primary=replication.primary_hint())
        state = "failed"
        began = time.perf_counter()
        try:
            with server.admission.slot(context, exclusive=exclusive):
                context.mark_running()
                profiler = None
                sinks = []
                if self.emitter is not None:
                    sinks.append(self.emitter)
                if server.hub.active():
                    sinks.append(HubPipe(server.hub, context.query_id))
                if sinks:
                    profiler = Profiler(self.event_filter,
                                        keep_events=False)
                    for sink in sinks:
                        profiler.add_sink(sink)
                    # ship the plan's dot file before execution begins
                    if head.startswith("select"):
                        dot_text = database.dot(
                            sql, self.pipeline_name, self.workers)
                        for sink in sinks:
                            sink.send_dot(dot_text)
                outcome = database.execute(
                    sql, listener=profiler, context=context,
                    pipeline_name=self.pipeline_name,
                    workers=self.workers)
                for sink in sinks:
                    sink.send_end()
            state = "done"
        except ReproError as exc:
            state = "cancelled" if context.cancelled else "failed"
            if not getattr(exc, "query_id", ""):
                exc.query_id = context.query_id
            raise
        finally:
            server.registry.finish(context, state)
            SERVER_QUERY_USEC.observe((time.perf_counter() - began) * 1e6)
        response = {"ok": True, "kind": outcome.kind,
                    "affected": outcome.affected,
                    "query_id": context.query_id}
        if outcome.kind != "rows":
            return response, ()
        vectors = outcome.vectors
        response["columns"] = outcome.columns
        response["row_count"] = len(vectors[0]) if vectors else 0
        response["frames"], frames = encode_rows(vectors)
        return response, frames
