"""The live trace broadcast hub: one profiler stream, many viewers.

The UDP stream (:mod:`repro.profiler.stream`) is point-to-point — one
receiver per session, exactly what the original Stethoscope did.  The
hub is the fan-out layer on top of the same line vocabulary: the server
publishes each trace line (event, framed dot content, end marker)
**once**, and the hub distributes it to any number of concurrent
subscribers, each with its own bounded buffer.  This is the paper's
"many analysts watching one query" scenario at production concurrency
(`docs/streaming.md` specifies the wire protocol around it).

Design rules, in order of importance:

1. **Publishing never blocks.**  The query being watched must not slow
   down because a viewer is slow.  Every subscriber owns a bounded
   drop-oldest deque; a laggard loses its *oldest* undelivered entries
   (counted in ``repro_broadcast_dropped_total``) while the publisher
   only ever pays one lock + one append per subscriber.
2. **Sequence numbers are hub-global and monotonic.**  Every published
   entry gets the next sequence number; subscribers can detect their
   own gaps, and ``subscribe from=<seq>`` resumes a broken session from
   the hub's retained history ring (gaps older than the ring surface
   as an explicit ``missed`` count, never silently).
3. **Delivery is in sequence order per subscriber.**  Fan-out happens
   under the hub lock, so two concurrent publishers cannot interleave
   out of order into one subscriber's buffer.

The hub itself is transport-agnostic and thread-safe: the asyncio
server drains subscriptions via a wake callback
(``loop.call_soon_threadsafe``), tests and in-process viewers use the
blocking :meth:`Subscription.wait_batch`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import ServerOverloadedError
from repro.metrics.families import (
    BROADCAST_DELIVERED,
    BROADCAST_DROPPED,
    BROADCAST_PUBLISHED,
    BROADCAST_SUBSCRIBER_LAG,
    BROADCAST_SUBSCRIBERS_ACTIVE,
    BROADCAST_SUBSCRIPTIONS,
)


@dataclass(frozen=True)
class BroadcastEntry:
    """One published trace line with its hub-assigned sequence number."""

    seq: int
    kind: str          # "event" | "dot" | "end"
    query_id: str      # server-assigned id of the query that produced it
    line: str          # the trace/dot/end line, exactly as the UDP stream

    def payload(self) -> Dict[str, object]:
        """The JSON-safe wire form streamed to protocol subscribers."""
        return {"seq": self.seq, "kind": self.kind,
                "query_id": self.query_id, "line": self.line}


class Subscription:
    """One subscriber's bounded, drop-oldest view of the hub stream.

    Created through :meth:`TraceBroadcastHub.subscribe`; not meant to be
    constructed directly.  Consumers either block on :meth:`wait_batch`
    (threads, tests) or register a ``wake`` callback at subscribe time
    and drain with :meth:`pop_batch` when woken (the asyncio server).
    """

    def __init__(self, hub: "TraceBroadcastHub", subscriber_id: str,
                 buffer_size: int, query_id: str = "",
                 wake: Optional[Callable[[], None]] = None) -> None:
        self.hub = hub
        self.subscriber_id = subscriber_id
        self.buffer_size = buffer_size
        self.query_id = query_id      # "" subscribes to every query
        self._wake = wake
        self._cv = threading.Condition(threading.Lock())
        self._entries: Deque[BroadcastEntry] = deque()
        self.delivered = 0
        self.dropped = 0              # drop-oldest evictions (slow consumer)
        self.missed = 0               # resume gap older than the hub ring
        self.last_seq = -1            # newest sequence number delivered
        self.closed = False

    # -- hub side -------------------------------------------------------

    def _offer(self, entry: BroadcastEntry) -> None:
        """Append one entry (hub thread); never blocks the publisher."""
        if self.query_id and entry.query_id != self.query_id:
            return
        with self._cv:
            if self.closed:
                return
            self._entries.append(entry)
            if len(self._entries) > self.buffer_size:
                self._entries.popleft()
                self.dropped += 1
                BROADCAST_DROPPED.labels(reason="slow-subscriber").inc()
            self._cv.notify_all()
            wake = self._wake
        if wake is not None:
            wake()

    # -- consumer side --------------------------------------------------

    def pop_batch(self, max_entries: Optional[int] = None) \
            -> List[BroadcastEntry]:
        """Drain buffered entries without blocking (oldest first)."""
        with self._cv:
            count = len(self._entries)
            if max_entries is not None:
                count = min(count, max_entries)
            batch = [self._entries.popleft() for _ in range(count)]
        if batch:
            self.delivered += len(batch)
            self.last_seq = batch[-1].seq
            BROADCAST_DELIVERED.inc(len(batch))
            BROADCAST_SUBSCRIBER_LAG.observe(float(self.lag()))
        return batch

    def wait_batch(self, timeout: Optional[float] = None,
                   max_entries: Optional[int] = None) \
            -> List[BroadcastEntry]:
        """Block until at least one entry is buffered, then drain.

        Returns an empty list on timeout or when the subscription is
        closed while waiting.
        """
        with self._cv:
            if not self._entries and not self.closed:
                self._cv.wait(timeout)
        return self.pop_batch(max_entries)

    def pending(self) -> int:
        """Entries buffered but not yet popped."""
        with self._cv:
            return len(self._entries)

    def lag(self) -> int:
        """How far behind the hub's newest sequence this subscriber is."""
        return max(0, self.hub.latest_seq() - self.last_seq)

    def describe(self) -> Dict[str, object]:
        """JSON-safe counters for the unsubscribe summary and tests."""
        return {"subscriber_id": self.subscriber_id,
                "delivered": self.delivered, "dropped": self.dropped,
                "missed": self.missed, "pending": self.pending(),
                "lag": self.lag(), "buffer": self.buffer_size}

    def close(self) -> None:
        """Detach from the hub and wake any blocked consumer."""
        self.hub.unsubscribe(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceBroadcastHub:
    """Fan-out of the profiler's trace stream to N bounded subscribers.

    Args:
        history: entries retained in the resume ring (``subscribe
            from=<seq>`` can backfill anything still inside it).
        default_buffer: per-subscriber buffer size when the subscriber
            does not choose one.
        max_subscribers: subscriptions beyond this are refused with a
            typed :class:`~repro.errors.ServerOverloadedError`.
    """

    def __init__(self, history: int = 8192, default_buffer: int = 512,
                 max_subscribers: int = 1024) -> None:
        self.history = max(1, int(history))
        self.default_buffer = max(1, int(default_buffer))
        self.max_subscribers = max(1, int(max_subscribers))
        self._lock = threading.Lock()
        self._ring: Deque[BroadcastEntry] = deque(maxlen=self.history)
        self._next_seq = 0
        self._sub_seq = 0
        self._subs: Dict[str, Subscription] = {}

    # -- publishing -----------------------------------------------------

    def publish(self, kind: str, line: str, query_id: str = "") -> int:
        """Publish one line to every subscriber; returns its sequence.

        Called from executor threads on the query's execution path, so
        the work under the lock is strictly bounded: one ring append
        plus one deque append per subscriber — no waiting on consumers.
        """
        wakes: List[Callable[[], None]] = []
        with self._lock:
            entry = BroadcastEntry(self._next_seq, kind, query_id, line)
            self._next_seq += 1
            self._ring.append(entry)
            for sub in self._subs.values():
                sub._offer(entry)
        BROADCAST_PUBLISHED.labels(kind=kind).inc()
        return entry.seq

    def active(self) -> bool:
        """True when at least one subscription is attached."""
        with self._lock:
            return bool(self._subs)

    def latest_seq(self) -> int:
        """The newest sequence number published (-1 when none yet)."""
        with self._lock:
            return self._next_seq - 1

    def next_seq(self) -> int:
        """The sequence number the next published entry will get."""
        with self._lock:
            return self._next_seq

    def has_query(self, query_id: str) -> bool:
        """True when the ring still holds entries for ``query_id``."""
        with self._lock:
            return any(e.query_id == query_id for e in self._ring)

    # -- subscribing ----------------------------------------------------

    def subscribe(self, from_seq: Optional[int] = None,
                  buffer_size: Optional[int] = None, query_id: str = "",
                  wake: Optional[Callable[[], None]] = None) \
            -> Subscription:
        """Attach a subscriber; optionally resume from a sequence number.

        ``from_seq`` backfills every retained entry with ``seq >=
        from_seq`` (filtered by ``query_id`` when set) into the new
        subscription's buffer before any live entry can arrive, so the
        consumer sees one ordered stream.  A resume point older than
        the ring surfaces as the subscription's ``missed`` count and in
        ``repro_broadcast_dropped_total{reason="resume-gap"}``.

        Raises:
            ServerOverloadedError: at the ``max_subscribers`` cap.
        """
        size = self.default_buffer if buffer_size is None \
            else max(1, int(buffer_size))
        with self._lock:
            if len(self._subs) >= self.max_subscribers:
                BROADCAST_SUBSCRIPTIONS.labels(outcome="refused").inc()
                raise ServerOverloadedError(
                    f"subscriber limit reached "
                    f"({self.max_subscribers} attached)")
            self._sub_seq += 1
            sub = Subscription(self, f"s{self._sub_seq}", size,
                               query_id=query_id, wake=wake)
            if from_seq is not None:
                from_seq = max(0, int(from_seq))
                oldest = (self._ring[0].seq if self._ring
                          else self._next_seq)
                if from_seq < oldest:
                    sub.missed = oldest - from_seq
                    BROADCAST_DROPPED.labels(reason="resume-gap").inc(
                        sub.missed)
                backfill = [e for e in self._ring if e.seq >= from_seq
                            and (not query_id or e.query_id == query_id)]
                # seed directly: the sub is not yet visible to
                # publishers, so no lock ordering or duplicate risk
                for entry in backfill[-size:]:
                    sub._entries.append(entry)
                overflow = max(0, len(backfill) - size)
                if overflow:
                    sub.dropped += overflow
                    BROADCAST_DROPPED.labels(
                        reason="slow-subscriber").inc(overflow)
            self._subs[sub.subscriber_id] = sub
            # set the gauge under the hub lock: concurrent
            # subscribe/unsubscribe would otherwise apply their `set`
            # calls out of order and leave the gauge permanently stale
            BROADCAST_SUBSCRIBERS_ACTIVE.set(len(self._subs))
        outcome = "resumed" if from_seq is not None else "accepted"
        BROADCAST_SUBSCRIPTIONS.labels(outcome=outcome).inc()
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach a subscription (idempotent)."""
        with self._lock:
            self._subs.pop(sub.subscriber_id, None)
            BROADCAST_SUBSCRIBERS_ACTIVE.set(len(self._subs))
        with sub._cv:
            sub.closed = True
            sub._cv.notify_all()

    def close_all(self) -> None:
        """Detach every subscription (server shutdown)."""
        with self._lock:
            subs = list(self._subs.values())
            self._subs.clear()
            BROADCAST_SUBSCRIBERS_ACTIVE.set(0)
        for sub in subs:
            with sub._cv:
                sub.closed = True
                sub._cv.notify_all()

    def stats(self) -> Dict[str, object]:
        """JSON-safe hub summary (exposed on the ``stats`` verb)."""
        with self._lock:
            subs = list(self._subs.values())
            published = self._next_seq
            retained = len(self._ring)
        return {
            "subscribers": len(subs),
            "published": published,
            "retained": retained,
            "max_subscribers": self.max_subscribers,
            "default_buffer": self.default_buffer,
            "history": self.history,
            "max_lag": max((s.lag() for s in subs), default=0),
            "dropped": sum(s.dropped for s in subs),
        }


class HubPipe:
    """Adapts one query's profiler stream onto the hub.

    Usable as a profiler sink (like
    :class:`~repro.profiler.stream.UdpEmitter`): calling it with a
    :class:`~repro.profiler.events.TraceEvent` publishes one ``event``
    line.  ``send_dot``/``send_end`` mirror the UDP framing so a
    subscriber sees exactly the stream a UDP listener would, plus
    sequence numbers and the query id.
    """

    def __init__(self, hub: TraceBroadcastHub, query_id: str = "") -> None:
        self.hub = hub
        self.query_id = query_id

    def __call__(self, event) -> None:
        from repro.profiler.events import format_event

        self.hub.publish("event", format_event(event),
                         query_id=self.query_id)

    def send_dot(self, dot_text: str) -> None:
        """Publish framed dot content, one ``#dot\\t`` line per entry."""
        from repro.profiler.stream import DOT_PREFIX

        for line in dot_text.splitlines():
            self.hub.publish("dot", DOT_PREFIX + line,
                             query_id=self.query_id)

    def send_end(self) -> None:
        """Publish the end-of-query marker."""
        from repro.profiler.stream import END_MARKER

        self.hub.publish("end", END_MARKER, query_id=self.query_id)
