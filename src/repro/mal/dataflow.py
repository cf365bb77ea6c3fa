"""Multi-worker dataflow execution of MAL plans.

MonetDB interprets a MAL plan as a dataflow graph: an instruction may run
as soon as the instructions defining its arguments have finished, and a
pool of worker threads drains the ready set.  Stethoscope's *multi-core
utilisation analysis* (paper §5, online demo) inspects the thread field of
trace events to see how well a plan parallelised.

Two scheduling policies drive the executor core of
:mod:`repro.mal.interpreter` (``Execution.step`` over a ``ReadySet``):
:class:`ListSchedule`, deterministic on a virtual clock and what the
benchmarks use (:class:`SimulatedScheduler`), and :class:`ThreadPool`,
real threads on the wall clock (:class:`ThreadedScheduler`).

Both honour ``program.dataflow_enabled``: when the dataflow optimizer pass
did not run (or declined), execution degrades to sequential on one worker
— reproducing the paper's observed anomaly of "sequential execution of a
MAL plan where multithreaded execution was expected".
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Dict, List, Optional

from repro.errors import MalRuntimeError
from repro.mal.interpreter import (CostModel, Execution, Executor, ReadySet,
                                   RunListener)
# Tracers patch ``execute_instruction`` in both executor modules, so the
# name stays here; the core calls the interpreter module's.
from repro.mal.interpreter import execute_instruction  # noqa: F401
from repro.storage.catalog import Catalog


class ListSchedule(Execution):
    """Greedy list scheduling on a virtual clock: the instruction that
    became ready earliest (ties broken by pc) goes to the worker that
    frees earliest.  Durations come from the cost model, so the same
    plan and worker count always give byte-identical traces.  The
    listener hears the interleaved start/done stream after the run, in
    chronological order, both events carrying the finished record —
    what the online Stethoscope would read off the wire."""

    label = "simulated"
    live = False
    faults = True

    def drive(self) -> None:
        self.free = [0] * self.workers  # when each worker next idles
        tracker = self.program.derived(ReadySet)
        waiting = list(tracker.waiting)
        ready = [(0, pc) for pc in tracker.initial]  # (ready_usec, pc)
        heapq.heapify(ready)
        ends: Dict[int, int] = {}
        for _ in self.program.instructions:
            if not ready:
                raise MalRuntimeError("dataflow deadlock: no ready instruction")
            self.ready_usec, pc = heapq.heappop(ready)
            widx = self.free.index(min(self.free))  # lowest index on a tie
            ends[pc] = self.step(tracker.instructions[pc], widx).end_usec
            for succ in tracker.complete(waiting, pc):
                heapq.heappush(
                    ready, (max(ends[d] for d in tracker.deps[succ]), succ))
        if self.engine.listener is not None:
            events = [(r.start_usec, r.pc, False, r) for r in self.runs]
            events += [(r.end_usec, r.pc, True, r) for r in self.runs]
            events.sort(key=lambda e: e[:3])
            for _usec, _pc, done, run in events:
                self.engine.listener("done" if done else "start", run)

    def begin(self, thread: int, stall: int) -> int:
        self.free[thread] += stall  # the worker idles before taking the job
        return max(self.free[thread], self.ready_usec)

    def finish(self, thread: int, start: int, cost: int) -> int:
        if self.engine.contention > 0:
            busy = sum(1 for w, free in enumerate(self.free)
                       if w != thread and free > start)
            cost = int(round(cost * (1 + self.engine.contention * busy)))
        self.free[thread] = start + cost
        return start + cost


class SimulatedScheduler(Executor):
    """Deterministic dataflow scheduling (:class:`ListSchedule`)."""

    policy = ListSchedule

    def __init__(self, catalog: Catalog, workers: int = 4,
                 cost_model: Optional[CostModel] = None,
                 listener: Optional[RunListener] = None,
                 contention: float = 0.0) -> None:
        """``contention`` models shared-resource (memory bandwidth)
        pressure: an instruction starting while *n* other workers are
        busy runs ``1 + contention * n`` times slower.  Zero (default)
        gives the ideal-machine speedups; ~0.05-0.15 reproduces the
        sub-linear scaling real multi-cores show.
        """
        if contention < 0:
            raise MalRuntimeError("contention must be non-negative")
        super().__init__(catalog, cost_model, listener, workers)
        self.contention = contention


class ThreadPool(Execution):
    """Real threads drain the ready set, each taking the env lock for
    its step.  Timestamps are wall-clock microseconds since query start;
    durations are enforced with ``time.sleep(cost * realtime_scale)``,
    slept with the lock released, so concurrency is real while staying
    fast.  Events reach the listener live, from the worker threads."""

    label = "threaded"
    faults = True

    def drive(self) -> None:
        self.lock = threading.Lock()  # guards the env, tracker and ready list
        turn = threading.Condition(self.lock)
        self.epoch = time.perf_counter()
        tracker = self.program.derived(ReadySet)
        waiting = list(tracker.waiting)
        ready = sorted(tracker.initial)
        failure: List[BaseException] = []

        def worker(widx: int) -> None:
            with turn:
                while not failure and len(self.runs) < len(tracker.instructions):
                    if not ready:
                        turn.wait()
                        continue
                    pc = ready.pop(0)
                    try:
                        self.step(tracker.instructions[pc], widx)
                        ready.extend(tracker.complete(waiting, pc))
                        ready.sort()
                    except BaseException as exc:  # re-raised by drive()
                        failure.append(exc)
                    turn.notify_all()

        threads = [threading.Thread(target=worker, args=(w,), daemon=True)
                   for w in range(self.workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failure:
            raise failure[0]
        self.runs.sort(key=lambda r: (r.start_usec, r.pc))

    def begin(self, thread: int, stall: float) -> int:
        """Let ``stall`` modelled microseconds pass without holding the
        env lock; returns the wall clock after them."""
        if stall * self.engine.realtime_scale > 0:
            self.lock.release()
            try:
                time.sleep(stall * self.engine.realtime_scale / 1_000_000.0)
            finally:
                self.lock.acquire()
        return int((time.perf_counter() - self.epoch) * 1_000_000)

    def finish(self, thread: int, start: int, cost: int) -> int:
        return self.begin(thread, cost)  # a cost elapses as a stall does


class ThreadedScheduler(Executor):
    """Dataflow execution on real Python threads (:class:`ThreadPool`)."""

    policy = ThreadPool

    def __init__(self, catalog: Catalog, workers: int = 4,
                 cost_model: Optional[CostModel] = None,
                 listener: Optional[RunListener] = None,
                 realtime_scale: float = 1e-3) -> None:
        super().__init__(catalog, cost_model, listener, workers)
        self.realtime_scale = realtime_scale
