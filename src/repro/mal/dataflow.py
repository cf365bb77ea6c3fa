"""Multi-worker dataflow execution of MAL plans.

MonetDB interprets a MAL plan as a dataflow graph: an instruction may run
as soon as the instructions defining its arguments have finished, and a
pool of workers drains the ready set.  Stethoscope's *multi-core
utilisation analysis* (paper §5, online demo) inspects the thread field of
trace events to see how well a plan parallelised.

One scheduling policy drives the executor core of
:mod:`repro.mal.interpreter` (``Execution.step`` over a ``ReadySet``):
:class:`ListSchedule`, deterministic on a virtual clock
(:class:`SimulatedScheduler`).  The kernels run on the calling thread, one
at a time; the N workers are modelled, so the same plan and worker count
always give the same trace.

It honours ``program.dataflow_enabled``: when the dataflow optimizer pass
did not run (or declined), execution degrades to sequential on one worker
— reproducing the paper's observed anomaly of "sequential execution of a
MAL plan where multithreaded execution was expected".
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional

from repro.errors import MalRuntimeError
from repro.mal.interpreter import (CostModel, Execution, Executor,
                                   RunListener)
# Tracers patch ``execute_instruction`` in both executor modules, so the
# name stays here; the core calls the interpreter module's.
from repro.mal.interpreter import execute_instruction  # noqa: F401
from repro.storage.catalog import Catalog


class ListSchedule(Execution):
    """Greedy list scheduling on a virtual clock: the instruction that
    became ready earliest (ties broken by pc) goes to the worker that
    frees earliest.  Durations come from the cost model, so the same
    plan and worker count always give byte-identical traces.

    The listener hears the interleaved start/done stream while the run
    goes on, in chronological ``(usec, pc, start before done)`` order,
    both events carrying the finished record — what the online
    Stethoscope would read off the wire.  An event is released once
    every worker's clock has passed it: no later instruction can start
    before the earliest-freeing worker does.
    """

    label = "simulated"
    faults = True

    def drive(self) -> None:
        free = self.free
        tracker = self.plan
        instructions, deps = tracker.instructions, tracker.deps
        successors, waiting = tracker.successors, list(tracker.waiting)
        ready = [(0, pc) for pc in tracker.initial]  # (ready_usec, pc)
        heapq.heapify(ready)
        ends = [0] * len(instructions)
        end_of = ends.__getitem__
        # step stays quiet; this loop releases its events in clock order
        listener, self.listener = self.listener, None
        pending: List[tuple] = []  # (usec, pc, done, run) not yet heard

        def release(horizon: float) -> None:
            while pending and pending[0][0] < horizon:
                _usec, _pc, done, record = heapq.heappop(pending)
                listener("done" if done else "start", record)

        for _ in instructions:
            if not ready:
                raise MalRuntimeError("dataflow deadlock: no ready instruction")
            self.ready_usec, pc = heapq.heappop(ready)
            # the worker that frees earliest, the lowest index on a tie
            run = self.step(instructions[pc], pc, free.index(min(free)))
            ends[pc] = run.end_usec
            for succ in successors[pc]:
                waiting[succ] -= 1
                if not waiting[succ]:
                    heapq.heappush(ready, (max(map(end_of, deps[succ])), succ))
            if listener is not None:
                heapq.heappush(pending, (run.start_usec, pc, False, run))
                heapq.heappush(pending, (run.end_usec, pc, True, run))
                release(min(free))
        release(math.inf)


class SimulatedScheduler(Executor):
    """Deterministic dataflow scheduling (:class:`ListSchedule`)."""

    policy = ListSchedule

    def __init__(self, catalog: Catalog, workers: int = 4,
                 cost_model: Optional[CostModel] = None,
                 listener: Optional[RunListener] = None) -> None:
        super().__init__(catalog, cost_model, listener, workers)
