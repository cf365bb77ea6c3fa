"""The Mserver TCP server: an asyncio front-end over executor-run queries.

The front-end is a single event loop (running in a background thread)
that accepts connections, frames line-delimited JSON requests, and
dispatches them.  Each connection gets a reader task that feeds a
bounded queue and a processor task that answers requests **in order**
— so clients may pipeline requests without waiting for responses, and
ten thousand idle viewers cost ten thousand coroutines, not threads.

Blocking work (SQL execution, plan explain/dot) runs on a thread-pool
executor so the interpreter, schedulers and admission control are
untouched: every query still gets a server-assigned id and a
cancellation token threaded down to the schedulers, admission control
bounds concurrency with typed load-shedding, a watchdog force-cancels
queries past their deadline, and ``stop()`` drains gracefully.

Session state (optimizer pipeline choice, worker count, scheduler,
profiler streaming target and filter) is per-connection, applied at
execute time.  When a profiler target is set, every subsequent SELECT
first ships its plan's dot file over the UDP stream, then streams the
execution trace events, then an end marker — exactly the online-mode
contract the Stethoscope expects (paper §4.2).

New in the asyncio front-end: the **trace broadcast hub**
(:mod:`repro.profiler.broadcast`).  Every profiled line is also
published once into the hub, and any number of connections can
``subscribe`` to follow it live with bounded drop-oldest buffers and
resumable sequence numbers — the full wire contract is specified in
``docs/streaming.md``.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Sequence, Tuple

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
    StuckQueryWatchdog,
    record_drain,
)
from repro.server.protocol import (
    MAX_MESSAGE_BYTES,
    decode_message,
    encode_message,
    encode_rows,
    error_payload,
)

#: Statement heads that only read — they share execution slots; anything
#: else (DDL, INSERT) admits exclusively.
_READ_HEADS = ("select", "explain", "trace")

#: Seconds an idle connection may sit between requests before the
#: server hangs up.  Connections with an active hub subscription are
#: exempt — a viewer legitimately reads for minutes without writing.
_IDLE_TIMEOUT_S = 30.0

#: Pipelined requests buffered per connection before the reader stops
#: pulling from the socket (TCP backpressure does the rest).
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
                 watchdog_interval_s: float = 0.05,
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
        self.watchdog = StuckQueryWatchdog(
            self.registry, interval_s=watchdog_interval_s)
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
        self._stopping = threading.Event()
        self._conns_lock = threading.Lock()
        self._conns: Dict[int, "_Connection"] = {}
        #: the node's :class:`~repro.replication.ReplicationManager`,
        #: attached after :meth:`start` (it advertises the bound port);
        #: None on standalone servers.
        self.replication: Optional[Any] = None

    # ------------------------------------------------------------------

    def start(self) -> "Mserver":
        """Bind, listen, and serve on a background event loop."""
        if self._loop is not None:
            raise ServerError("server already started")
        self._stopping.clear()
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
                    asyncio.start_server(
                        self._handle_connection, host=self.host,
                        port=self._requested_port,
                        limit=MAX_MESSAGE_BYTES,
                        reuse_address=True))
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
        self.watchdog.start()
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
        self._stopping.set()
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
            with self._conns_lock:
                conns = list(self._conns.values())
            for conn in conns:
                conn.kill()
            waits = [c.done for c in conns if c.done is not None]
            if waits:
                await asyncio.wait(waits, timeout=2.0)

        _run_on_loop(loop, close_connections(), timeout=4.0)
        loop.call_soon_threadsafe(loop.stop)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
            self._loop_thread = None
        self._loop = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.watchdog.stop()
        self.database.close()

    def __enter__(self) -> "Mserver":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = _Connection(self, reader, writer)
        with self._conns_lock:
            self._conns[id(conn)] = conn
        try:
            await conn.run()
        finally:
            with self._conns_lock:
                self._conns.pop(id(conn), None)


def _run_on_loop(loop: asyncio.AbstractEventLoop, coro,
                 timeout: float) -> None:
    """Run a coroutine on the server loop from the caller's thread."""
    future = asyncio.run_coroutine_threadsafe(coro, loop)
    try:
        future.result(timeout=timeout)
    except Exception:
        future.cancel()


class _Connection:
    """One client connection: reader task + in-order processor task.

    The reader frames lines into a bounded queue (pipelining up to
    ``_PIPELINE_DEPTH`` requests); the processor answers them one at a
    time so responses arrive in request order.  A hub subscription adds
    a third task streaming broadcast entries; all writes go through one
    lock, one message a hold, so an entry line never lands inside a
    response — not between a result's header and its column frames.
    """

    def __init__(self, server: Mserver, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.session = _ClientSession(server)
        self.requests: asyncio.Queue = asyncio.Queue(
            maxsize=_PIPELINE_DEPTH)
        self.write_lock = asyncio.Lock()
        self.subscription: Optional[Subscription] = None
        self._stream_task: Optional[asyncio.Task] = None
        self._wake = asyncio.Event()
        self.done: Optional[asyncio.Future] = None
        self._closing = False

    # -- lifecycle ------------------------------------------------------

    async def run(self) -> None:
        loop = asyncio.get_event_loop()
        self.done = loop.create_future()
        SERVER_CONNECTIONS.inc()
        SERVER_CONNECTIONS_ACTIVE.inc()
        reader_task = loop.create_task(self._read_requests())
        try:
            await self._process_requests()
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, Exception):
                pass
            await self._teardown()
            SERVER_CONNECTIONS_ACTIVE.dec()
            if not self.done.done():
                self.done.set_result(None)

    async def _teardown(self) -> None:
        self._closing = True
        if self.subscription is not None:
            self.subscription.close()
            self.subscription = None
        if self._stream_task is not None:
            self._wake.set()
            self._stream_task.cancel()
            try:
                await self._stream_task
            except (asyncio.CancelledError, Exception):
                pass
            self._stream_task = None
        self.session.close()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except Exception:
            pass

    def kill(self) -> None:
        """Force-close from the server loop thread (shutdown path)."""
        self._closing = True
        try:
            self.writer.close()
        except Exception:
            pass

    # -- reader ---------------------------------------------------------

    async def _read_requests(self) -> None:
        """Frame lines off the socket into the pipeline queue."""
        while not self._closing:
            try:
                if self.subscription is None:
                    line = await asyncio.wait_for(
                        self.reader.readline(), timeout=_IDLE_TIMEOUT_S)
                else:
                    # a subscriber legitimately idles while reading the
                    # stream — no inbound timeout while subscribed
                    line = await self.reader.readline()
            except asyncio.TimeoutError:
                # re-check before hanging up: a pipelined `subscribe`
                # may have activated after this timed wait was armed —
                # the exemption must hold even though the reader raced
                # ahead of the processor
                if self.subscription is not None:
                    continue
                await self.requests.put(_HANGUP)
                return
            except ValueError:
                # StreamReader limit overrun: request line too long
                await self.requests.put(_OVERSIZED)
                return
            except (ConnectionError, OSError):
                await self.requests.put(_HANGUP)
                return
            if not line:
                await self.requests.put(_HANGUP)
                return
            if not line.strip():
                continue
            await self.requests.put(line)

    # -- processor ------------------------------------------------------

    async def _process_requests(self) -> None:
        while not self._closing:
            line = await self.requests.get()
            if line is _HANGUP:
                return
            if line is _OVERSIZED:
                await self._send(encode_message({
                    "ok": False,
                    "error": f"request exceeds {MAX_MESSAGE_BYTES} "
                             "bytes without a newline",
                }))
                return
            op = "invalid"
            frames: Sequence[bytes] = ()
            try:
                request = decode_message(line)
                if request.get("op") is not None:
                    op = str(request["op"])
                response, frames = await self._dispatch(op, request)
            except ReproError as exc:
                response = error_payload(exc)
            except Exception as exc:  # surface, do not kill server
                response = {"ok": False,
                            "error": f"internal error: {exc}"}
            SERVER_REQUESTS.labels(op=op).inc()
            if not response.get("ok"):
                SERVER_REQUEST_ERRORS.labels(op=op).inc()
            plan = ACTIVE.plan
            if plan is not None:
                decision = plan.decide("server.loop", detail=op)
                if decision is not None:
                    if decision.action == "latency":
                        delay_ms = decision.value if decision.value \
                            else 25.0
                        await asyncio.sleep(
                            min(delay_ms, 2000.0) / 1000.0)
                    elif decision.action == "reset":
                        # drop the connection without answering
                        return
            if not await self._send(encode_message(response, frames)):
                return
            if response.get("bye"):
                return

    async def _dispatch(self, op: str, request: Dict
                        ) -> Tuple[Dict, Sequence[bytes]]:
        """Route one request: async verbs here, blocking ones offloaded.

        Returns the response and, behind a ``rows`` header, its column
        frames — already encoded by the executor thread that ran the
        query, so a wide result costs the loop one join and one write.
        """
        if op == "subscribe":
            return self._handle_subscribe(request), ()
        if op == "unsubscribe":
            return await self._handle_unsubscribe(), ()
        loop = asyncio.get_event_loop()
        if op == "query":
            return await loop.run_in_executor(
                self.server._executor, self.session._handle_query, request)
        if op in ("explain", "dot",
                  "repl.status", "repl.sync", "repl.promote"):
            # repl verbs offload too: sync reads WAL bytes from disk and
            # promote re-runs recovery — neither belongs on the loop
            return await loop.run_in_executor(
                self.server._executor, self.session.handle, request), ()
        return self.session.handle(request), ()

    async def _send(self, data: bytes) -> bool:
        """Write one encoded message; False when the peer is gone."""
        async with self.write_lock:
            try:
                self.writer.write(data)
                await self.writer.drain()
                return True
            except (ConnectionError, OSError):
                return False

    # -- the subscribe verb ---------------------------------------------

    def _handle_subscribe(self, request: Dict) -> Dict:
        if self.subscription is not None:
            raise ServerError(
                "already subscribed on this connection; unsubscribe "
                "first")
        server = self.server
        query_id = str(request.get("query_id", "") or "")
        from_seq = request.get("from_seq")
        if from_seq is not None:
            from_seq = int(from_seq)
        buffer_size = request.get("buffer")
        if buffer_size is not None:
            buffer_size = int(buffer_size)
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
        loop = asyncio.get_event_loop()
        wake_event = self._wake

        def wake() -> None:
            loop.call_soon_threadsafe(wake_event.set)

        self.subscription = server.hub.subscribe(
            from_seq=from_seq, buffer_size=buffer_size,
            query_id=query_id, wake=wake)
        self._wake.set()  # flush any backfill immediately
        self._stream_task = loop.create_task(self._stream_entries())
        return {"ok": True,
                "subscriber_id": self.subscription.subscriber_id,
                "next_seq": server.hub.next_seq(),
                "missed": self.subscription.missed,
                "buffer": self.subscription.buffer_size}

    async def _handle_unsubscribe(self) -> Dict:
        if self.subscription is None:
            raise ServerError("not subscribed")
        sub = self.subscription
        self.subscription = None
        sub.close()
        task = self._stream_task
        self._stream_task = None
        if task is not None:
            self._wake.set()
            task.cancel()
            # await it so an in-flight batch is accounted (the task's
            # cancellation handler uncredits entries popped but never
            # written) before the summary counters are read
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        summary = sub.describe()
        return {"ok": True, "unsubscribed": True,
                "delivered": summary["delivered"],
                "dropped": summary["dropped"],
                "missed": summary["missed"]}

    async def _stream_entries(self) -> None:
        """Pump hub entries to the peer as they arrive.

        Entry lines carry ``seq`` and never carry ``ok`` — a client
        reading the connection tells them apart from request responses
        by that key (``docs/streaming.md`` §5).
        """
        sub = None
        batch: list = []
        sent = 0
        try:
            while not self._closing:
                sub = self.subscription
                if sub is None:
                    return
                batch = sub.pop_batch(max_entries=256)
                sent = 0
                if not batch:
                    self._wake.clear()
                    if self.subscription is None or \
                            self.subscription.closed:
                        return
                    await self._wake.wait()
                    continue
                for entry in batch:
                    if not await self._send(
                            encode_message(entry.payload())):
                        return
                    sent += 1
                batch = []
        except asyncio.CancelledError:
            # cancelled mid-batch (unsubscribe/teardown): entries popped
            # but never written must not count as delivered in the
            # summary; the one in flight is conservatively uncounted too
            if sub is not None:
                sub.uncredit(len(batch) - sent)


#: Reader→processor sentinels (peer hung up / oversized request line).
_HANGUP = object()
_OVERSIZED = object()


class _ClientSession:
    """Per-connection state and request dispatch (executor side).

    ``pipeline_name``/``workers``/``scheduler`` are session-local
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
        self.scheduler: Optional[str] = None

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
        if "pipeline" in request:
            pipeline_by_name(request["pipeline"])  # validate eagerly
            self.pipeline_name = request["pipeline"]
        if "workers" in request:
            workers = int(request["workers"])
            if workers < 1:
                raise ServerError("workers must be >= 1")
            self.workers = workers
        if "scheduler" in request:
            scheduler = str(request["scheduler"])
            if scheduler not in ("simulated", "threaded"):
                raise ServerError(
                    f"unknown scheduler {scheduler!r}; valid: "
                    "simulated, threaded")
            self.scheduler = scheduler
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
                traced = self.emitter is not None or server.hub.active()
                if not traced:
                    outcome = database.execute(
                        sql, context=context,
                        pipeline_name=self.pipeline_name,
                        workers=self.workers, scheduler=self.scheduler)
                else:
                    profiler = Profiler(self.event_filter,
                                        keep_events=False)
                    sinks = []
                    if self.emitter is not None:
                        sinks.append(self.emitter)
                    if server.hub.active():
                        sinks.append(
                            HubPipe(server.hub, context.query_id))
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
                        workers=self.workers, scheduler=self.scheduler)
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
