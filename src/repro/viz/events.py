"""The event-dispatch render queue (the paper's §4.2.1 bottleneck).

"Coloring graph nodes in an online stream is a complex task due to
rendering limitations from the Java system.  The Stethoscope uses the
Java Event Dispatch thread queuing framework for queuing up nodes to
render.  This introduces a delay of up-to 150ms between rendering of
consecutive nodes."

:class:`EventDispatchQueue` models exactly that: render tasks are queued
and drained at most one per ``min_interval_ms`` of (virtual or wall)
time.  The online monitor measures this queue's backlog to decide how
aggressively to sample the trace (benchmark E5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional

from repro.metrics.families import (
    RENDER_QUEUE_DEPTH,
    RENDER_QUEUE_WAIT_MS,
    RENDER_TASKS_EXECUTED,
    RENDER_TASKS_POSTED,
)


@dataclass
class RenderTask:
    """A queued render action (e.g. "colour node n7 RED")."""

    description: str
    action: Callable[[], None]
    posted_at_ms: float = 0.0
    executed_at_ms: Optional[float] = None


class EventDispatchQueue:
    """A single-threaded render queue with a minimum inter-task delay.

    Time is explicit: callers advance the clock with :meth:`run_until`,
    which executes as many queued tasks as the elapsed virtual time
    allows (one per ``min_interval_ms``).  This keeps tests and
    benchmarks deterministic while faithfully reproducing the throughput
    ceiling of the paper's Swing-based renderer.
    """

    def __init__(self, min_interval_ms: float = 150.0) -> None:
        self.min_interval_ms = min_interval_ms
        self._queue: Deque[RenderTask] = deque()
        #: tasks run so far, and the longest any of them waited (ms);
        #: a task is dropped once it has run
        self.executed = 0
        self._max_wait_ms = 0.0
        self.clock_ms = 0.0
        self._next_slot_ms = 0.0

    # ------------------------------------------------------------------

    def post(self, description: str, action: Callable[[], None]) -> RenderTask:
        """Queue a render task (returns it for inspection)."""
        task = RenderTask(description, action, posted_at_ms=self.clock_ms)
        self._queue.append(task)
        RENDER_TASKS_POSTED.inc()
        RENDER_QUEUE_DEPTH.set(len(self._queue))
        return task

    def pending(self) -> int:
        """Tasks waiting to run — the backlog the sampler watches."""
        return len(self._queue)

    def run_until(self, clock_ms: float) -> int:
        """Advance time to ``clock_ms``, executing due tasks; returns how
        many ran."""
        if clock_ms < self.clock_ms:
            return 0
        ran = 0
        while self._queue and self._next_slot_ms <= clock_ms:
            task = self._queue.popleft()
            execute_at = max(self._next_slot_ms, task.posted_at_ms)
            if execute_at > clock_ms:
                self._queue.appendleft(task)
                break
            task.executed_at_ms = execute_at
            task.action()
            self._next_slot_ms = execute_at + self.min_interval_ms
            ran += 1
            wait = execute_at - task.posted_at_ms
            if wait > self._max_wait_ms:
                self._max_wait_ms = wait
            RENDER_QUEUE_WAIT_MS.observe(wait)
        if ran:
            self.executed += ran
            RENDER_TASKS_EXECUTED.inc(ran)
            RENDER_QUEUE_DEPTH.set(len(self._queue))
        self.clock_ms = clock_ms
        return ran

    def drain(self) -> int:
        """Run everything regardless of pacing (end-of-query flush);
        advances the clock to the last slot used."""
        ran = 0
        while self._queue:
            horizon = self._next_slot_ms + self.min_interval_ms * (
                len(self._queue) + 1
            )
            ran += self.run_until(max(self.clock_ms, horizon))
        return ran

    def max_latency_ms(self) -> float:
        """Worst queue latency (execution - posting) among executed tasks."""
        return self._max_wait_ms

    def throughput_per_second(self) -> float:
        """Upper bound on renders per second under the configured delay."""
        if self.min_interval_ms <= 0:
            return float("inf")
        return 1000.0 / self.min_interval_ms
