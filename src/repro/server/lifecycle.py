"""Server-side query lifecycle supervision.

Every query the Mserver admits gets a server-assigned id and a
:class:`QueryContext` — a cancellation token plus optional deadline and
simulated-RSS budget — which is threaded through
:meth:`~repro.server.database.Database.execute`, the interpreter and
the dataflow scheduler.  Execution engines call
:meth:`QueryContext.check` at every instruction boundary, so a
``cancel`` issued from another connection stops a running plan within
one instruction instead of waiting for the whole plan to finish.

:meth:`QueryContext.check` is also the server's one deadline enforcer:
it runs at every instruction boundary and, while the query waits for a
slot, at every wake-up of the admission queue, and it is what cancels
a query whose deadline has passed.  No thread sweeps for expired
queries — a cancel cannot stop a plan anywhere but at a check, so a
sweeper could only flag what the next check discovers anyway.

Two cooperating pieces:

* :class:`QueryRegistry` — assigns query ids, tracks queued/running
  queries (the ``queries`` protocol op reads it) and keeps a short
  history of finished ones, including deadline kills.
* :class:`AdmissionController` — replaces the old single global query
  lock: a bounded concurrency limit plus a bounded wait queue with a
  queue-wait deadline.  Overflow sheds load with a typed
  :class:`~repro.errors.ServerOverloadedError` instead of queueing
  unboundedly, so ``explain``/``dot``/``stats`` stay responsive while
  queries run.  Writes (DDL/INSERT) admit *exclusively* — they wait for
  running readers and block new ones — preserving the old serialised
  semantics where it matters.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.errors import (
    QueryBudgetError,
    QueryCancelledError,
    QueryDeadlineError,
    ServerOverloadedError,
)
from repro.metrics.families import (
    SERVER_ADMISSION_QUEUE_DEPTH,
    SERVER_DRAINS,
    SERVER_QUERIES_ACTIVE,
    SERVER_QUERIES_ADMITTED,
    SERVER_QUERIES_CANCELLED,
    SERVER_QUERIES_SHED,
    SERVER_QUERY_DEADLINE_EXCEEDED,
)


class QueryContext:
    """Cancellation token, deadline and RSS budget for one query.

    Execution engines call :meth:`check` between instructions; the
    ``cancel`` verb and the drain call :meth:`cancel` from other
    threads.  All
    state transitions are guarded by one lock, and a cancel of an
    already-finished query is a no-op, so metrics count each cancelled
    query exactly once.  :attr:`cancelled` is written under that lock
    and read bare — :meth:`check` runs at every instruction.
    """

    def __init__(self, query_id: str, sql: str = "",
                 deadline_s: Optional[float] = None,
                 rss_budget_bytes: Optional[int] = None) -> None:
        self.query_id = query_id
        self.sql = sql
        self.submitted = time.monotonic()
        self.deadline = (None if deadline_s is None
                         else self.submitted + float(deadline_s))
        self.deadline_s = deadline_s
        self.rss_budget_bytes = rss_budget_bytes
        #: queued | running | done | failed | cancelled
        self.state = "queued"
        self.cancel_reason = ""
        self.cancel_source = ""
        self._lock = threading.Lock()
        #: True once cancellation has been requested
        self.cancelled = False

    # -- transitions ----------------------------------------------------

    def mark_running(self) -> None:
        """Record that the query got its execution slot."""
        with self._lock:
            if self.state == "queued":
                self.state = "running"

    def finish(self, state: str) -> None:
        """Record the terminal state (``done``/``failed``/``cancelled``)."""
        with self._lock:
            if self.state in ("queued", "running"):
                self.state = state

    def cancel(self, reason: str = "cancel requested",
               source: str = "client") -> bool:
        """Request cancellation; returns True if this call caused it.

        ``source`` labels the metrics: ``client`` (the ``cancel`` op),
        ``deadline`` (:meth:`check` found the deadline passed),
        ``drain`` (shutdown) or ``rss-budget``.
        """
        with self._lock:
            if self.state not in ("queued", "running") or self.cancelled:
                return False
            self.cancelled = True
            self.cancel_reason = reason
            self.cancel_source = source
        SERVER_QUERIES_CANCELLED.labels(source=source).inc()
        if source == "deadline":
            SERVER_QUERY_DEADLINE_EXCEEDED.inc()
        return True

    # -- queries --------------------------------------------------------

    def elapsed_s(self) -> float:
        """Seconds since the query was submitted."""
        return time.monotonic() - self.submitted

    def check(self, rss_bytes: int = 0) -> None:
        """Raise the typed cancellation error if this query must stop.

        Called by the execution engines at every instruction boundary
        (and by admission while queued).  This is where an expired
        deadline or a blown RSS budget is discovered and the query
        cancelled.
        """
        if not self.cancelled:
            if self.deadline is not None and \
                    time.monotonic() >= self.deadline:
                self.cancel(f"deadline of {self.deadline_s:g}s exceeded",
                            source="deadline")
            elif self.rss_budget_bytes is not None and \
                    rss_bytes > self.rss_budget_bytes:
                self.cancel(
                    f"rss {rss_bytes} bytes exceeds budget of "
                    f"{self.rss_budget_bytes} bytes", source="rss-budget")
            else:
                return
        reason = self.cancel_reason or "cancelled"
        message = f"query {self.query_id} cancelled: {reason}"
        if self.cancel_source == "deadline":
            raise QueryDeadlineError(message, query_id=self.query_id)
        if self.cancel_source == "rss-budget":
            raise QueryBudgetError(message, query_id=self.query_id)
        raise QueryCancelledError(message, query_id=self.query_id)

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary for the ``queries`` protocol op."""
        return {
            "query_id": self.query_id,
            "sql": self.sql,
            "state": self.state,
            "elapsed_s": round(self.elapsed_s(), 4),
            "deadline_s": self.deadline_s,
            "cancel_reason": self.cancel_reason,
        }


class QueryRegistry:
    """Id assignment plus the live and recently-finished query tables."""

    def __init__(self, history: int = 32) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._active: Dict[str, QueryContext] = {}
        self._recent: Deque[Dict[str, object]] = deque(maxlen=history)

    def register(self, sql: str, deadline_s: Optional[float] = None,
                 rss_budget_bytes: Optional[int] = None) -> QueryContext:
        """Assign the next query id and start tracking the query."""
        with self._lock:
            self._seq += 1
            context = QueryContext(f"q{self._seq}", sql=sql,
                                   deadline_s=deadline_s,
                                   rss_budget_bytes=rss_budget_bytes)
            self._active[context.query_id] = context
        return context

    def finish(self, context: QueryContext, state: str) -> None:
        """Move a query to the history with its terminal state."""
        context.finish(state)
        with self._lock:
            self._active.pop(context.query_id, None)
            self._recent.append(context.describe())

    def get(self, query_id: str) -> Optional[QueryContext]:
        """The live context for ``query_id`` (None when not running)."""
        with self._lock:
            return self._active.get(query_id)

    def cancel(self, query_id: str, reason: str = "cancel requested",
               source: str = "client") -> Dict[str, object]:
        """Cancel a live query by id; reports what happened either way."""
        context = self.get(query_id)
        if context is None:
            return {"cancelled": False, "state": "unknown"}
        fired = context.cancel(reason, source=source)
        return {"cancelled": fired, "state": context.state}

    def cancel_all(self, reason: str, source: str) -> int:
        """Cancel every live query; returns how many were cancelled."""
        return sum(1 for context in self.active_contexts()
                   if context.cancel(reason, source=source))

    def active_contexts(self) -> List[QueryContext]:
        """Snapshot of the live contexts (safe to iterate)."""
        with self._lock:
            return list(self._active.values())

    def active_count(self) -> int:
        """How many queries are queued or running right now."""
        with self._lock:
            return len(self._active)

    def list(self) -> List[Dict[str, object]]:
        """Live queries as JSON-safe dicts, oldest first."""
        contexts = sorted(self.active_contexts(),
                          key=lambda c: c.submitted)
        return [context.describe() for context in contexts]

    def recent(self) -> List[Dict[str, object]]:
        """The most recently finished queries (includes deadline kills)."""
        with self._lock:
            return list(self._recent)


class AdmissionController:
    """Bounded concurrency plus a bounded wait queue with load-shedding.

    ``max_concurrent`` execution slots are shared by readers (SELECT,
    EXPLAIN, TRACE); a write admits exclusively — it waits for all
    readers to drain and holds the only slot.  A query that cannot run
    immediately waits in a queue bounded by ``max_queue``; overflow, a
    queue wait longer than ``queue_wait_s``, or a draining server all
    shed the query with :class:`~repro.errors.ServerOverloadedError`.
    """

    def __init__(self, max_concurrent: int = 4, max_queue: int = 16,
                 queue_wait_s: float = 5.0) -> None:
        self._cv = threading.Condition(threading.Lock())
        self._active = 0
        self._exclusive_active = False
        self._waiting = 0
        self._exclusive_waiting = 0
        self._draining = False
        self.configure(max_concurrent=max_concurrent, max_queue=max_queue,
                       queue_wait_s=queue_wait_s)

    def configure(self, max_concurrent: Optional[int] = None,
                  max_queue: Optional[int] = None,
                  queue_wait_s: Optional[float] = None) -> None:
        """Adjust the limits (used by tests and the chaos harness)."""
        with self._cv:
            if max_concurrent is not None:
                self.max_concurrent = max(1, int(max_concurrent))
            if max_queue is not None:
                self.max_queue = max(0, int(max_queue))
            if queue_wait_s is not None:
                self.queue_wait_s = float(queue_wait_s)
            self._cv.notify_all()

    def begin_drain(self) -> None:
        """Stop admitting; subsequent queries shed with ``stopping``."""
        with self._cv:
            self._draining = True
            self._cv.notify_all()

    def end_drain(self) -> None:
        """Re-open admission (a stopped server being restarted)."""
        with self._cv:
            self._draining = False

    # -- the slot protocol ---------------------------------------------

    def _can_admit(self, exclusive: bool) -> bool:
        if self._exclusive_active:
            return False
        if exclusive:
            return self._active == 0
        # writer priority: queued writes block new readers
        return (self._exclusive_waiting == 0
                and self._active < self.max_concurrent)

    def _shed(self, reason: str, detail: str) -> None:
        SERVER_QUERIES_SHED.labels(reason=reason).inc()
        raise ServerOverloadedError(
            f"server overloaded ({reason}): {detail}")

    def slot(self, context: QueryContext,
             exclusive: bool = False) -> "_Slot":
        """``with controller.slot(context):`` holds one execution slot
        for the duration of the block.

        Entering raises :class:`~repro.errors.ServerOverloadedError`
        when the query is shed, or the context's typed cancellation
        error when it is cancelled while queued.
        """
        return _Slot(self, context, exclusive)

    def _admit(self, context: QueryContext, exclusive: bool) -> None:
        deadline = time.monotonic() + self.queue_wait_s
        with self._cv:
            if self._draining:
                self._shed("stopping", "server is draining")
            if not self._can_admit(exclusive) and \
                    self._waiting >= self.max_queue:
                self._shed(
                    "queue-full",
                    f"{self._active} running, {self._waiting} queued "
                    f"(max_queue={self.max_queue})")
            self._waiting += 1
            if exclusive:
                self._exclusive_waiting += 1
            SERVER_ADMISSION_QUEUE_DEPTH.set(self._waiting)
            try:
                while not self._can_admit(exclusive):
                    context.check()  # cancelled / deadline while queued
                    if self._draining:
                        self._shed("stopping", "server is draining")
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._shed(
                            "queue-wait",
                            f"no slot within {self.queue_wait_s:g}s")
                    self._cv.wait(min(remaining, 0.05))
                if exclusive:
                    self._exclusive_active = True
                else:
                    self._active += 1
                SERVER_QUERIES_ACTIVE.set(
                    self._active + (1 if self._exclusive_active else 0))
            finally:
                self._waiting -= 1
                if exclusive:
                    self._exclusive_waiting -= 1
                SERVER_ADMISSION_QUEUE_DEPTH.set(self._waiting)
        SERVER_QUERIES_ADMITTED.inc()

    def _release(self, exclusive: bool) -> None:
        with self._cv:
            if exclusive:
                self._exclusive_active = False
            else:
                self._active -= 1
            SERVER_QUERIES_ACTIVE.set(
                self._active + (1 if self._exclusive_active else 0))
            self._cv.notify_all()


class _Slot:
    """One execution slot: admitted on entry, released on exit."""

    __slots__ = ("_controller", "_context", "_exclusive")

    def __init__(self, controller: AdmissionController,
                 context: QueryContext, exclusive: bool) -> None:
        self._controller = controller
        self._context = context
        self._exclusive = exclusive

    def __enter__(self) -> None:
        self._controller._admit(self._context, self._exclusive)

    def __exit__(self, *exc) -> None:
        self._controller._release(self._exclusive)


def record_drain(forced: bool) -> None:
    """Count one drain shutdown by outcome."""
    SERVER_DRAINS.labels(outcome="forced" if forced else "clean").inc()
