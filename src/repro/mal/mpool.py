"""Process-based partition worker pool: mitosis fragments on real cores.

The dataflow schedulers model parallelism, but until this module every
kernel ran inside one GIL-bound process — the visualization showed
parallelism the engine did not have.  :class:`PartitionWorkerPool`
executes the partition fragments of a mitosis-rewritten plan
one-partition-per-worker in forked child processes:

1. :func:`repro.mal.optimizer.mitosis.extract_fragments` turns the plan
   into self-contained fragments with declared inputs and outputs;
2. a *prologue* pre-pass executes the pure ancestors of the fragments
   (``sql.mvc``, the 7-argument partition binds, unpartitioned columns)
   in the parent, against the catalog;
3. each fragment's inputs are serialized through the memoized
   :meth:`~repro.storage.bat.BAT.to_ship_bytes` cache and shipped over a
   pipe to a persistent worker process, which runs the member
   instructions (selections, joins, batcalc, aggregate partials) and
   ships back declared outputs in full — intermediates nobody outside
   the fragment reads return as *shadows* (type, row count and byte
   footprint only);
4. :meth:`precompute` returns a ``{pc: outputs}`` map; the interpreter
   and both schedulers replay the plan binding those precomputed values
   instead of invoking the kernels, so scheduling decisions, the cost
   model, rows and RSS accounting — the whole trace shape — stay
   byte-identical to an in-process run while the heavy kernels actually
   executed on other cores.  The residual plan (``mat.pack`` merges,
   aggregate fold chains, result-set construction) runs in the parent
   as before.

The pool falls back to in-process execution (returning an empty map and
counting ``repro_mpool_fallbacks_total``) for plans with no fragments,
fewer than two workers, shipped rows under ``min_rows``, or inputs
produced by impure instructions.

Lifecycle supervision propagates into workers: the task payload carries
the query's deadline and RSS budget (checked between instructions in
the worker), the parent polls its :class:`~repro.server.lifecycle.QueryContext`
while collecting replies, and an abort kills the busy workers so remote
work actually stops.  A crashed or killed worker surfaces as a typed
:class:`~repro.errors.WorkerCrashError` — never a hang — and the pool
re-forks the worker for the next query.

Fault sites (see :mod:`repro.faults`): ``mpool.worker`` (crash, stall)
and ``mpool.ship`` (truncate, latency), decided in the parent in
fragment order so chaos journals replay deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _conn_wait
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import (
    MalRuntimeError,
    PartitionShipError,
    WorkerCrashError,
)
from repro.faults.plan import ACTIVE
from repro.mal.ast import MalInstruction, MalProgram, Var
from repro.mal.interpreter import EvalContext, execute_instruction
from repro.mal.optimizer.mitosis import PlanFragment, extract_fragments
from repro.metrics.families import (
    MPOOL_FALLBACKS,
    MPOOL_MERGE_USEC,
    MPOOL_SHIP_BYTES,
    MPOOL_TASKS,
    MPOOL_WORKER_RESTARTS,
    MPOOL_WORKERS,
)
from repro.storage.bat import BAT
from repro.storage.catalog import Catalog
from repro.storage.types import type_by_name

if TYPE_CHECKING:  # pragma: no cover — avoids a repro.server import cycle
    from repro.server.lifecycle import QueryContext

__all__ = ["PartitionWorkerPool", "ShadowBAT", "DEFAULT_MIN_ROWS"]

#: Plans shipping fewer total partition rows than this run in-process:
#: below it, fork/encode/pipe overhead dwarfs the kernel work.
DEFAULT_MIN_ROWS = 2048

#: ``sql`` is catalog access; only these three are safe to re-execute in
#: the parent prologue (pure reads).  Everything result-set shaped
#: (``sql.resultSet``/``rsColumn``/``exportResult``/``append``) is not.
_PURE_SQL = frozenset(("mvc", "bind", "tid"))
_PURE_MODULES = frozenset((
    "algebra", "batcalc", "aggr", "bat", "group", "calc", "mat",
    "mtime", "batmtime", "batstr", "language",
))


def _prologue_safe(instr: MalInstruction) -> bool:
    if instr.module == "sql":
        return instr.function in _PURE_SQL
    return instr.module in _PURE_MODULES


class ShadowBAT(BAT):
    """Stand-in for a worker-side intermediate the parent never reads.

    Carries the real result's row count and byte footprint so the cost
    model, ``rows`` fields and RSS accounting in replayed traces match
    an in-process run exactly, without shipping the payload back.  Only
    ``language.pass`` ever receives one as an argument.
    """

    __slots__ = ("_shadow_rows", "_shadow_bytes")

    def __init__(self, tail_type, rows: int, footprint: int) -> None:
        super().__init__(tail_type)
        self._shadow_rows = rows
        self._shadow_bytes = footprint

    def __len__(self) -> int:
        return self._shadow_rows

    def count(self) -> int:
        return self._shadow_rows

    def bytes(self) -> int:
        return self._shadow_bytes


# --------------------------------------------------------------------------
# wire encoding (parent <-> worker, over a multiprocessing Pipe)
# --------------------------------------------------------------------------

def _encode_value(value: Any) -> Tuple[str, Any]:
    if isinstance(value, BAT):
        return ("bat", value.to_ship_bytes())
    return ("val", value)


def _decode_value(encoded: Tuple[str, Any]) -> Any:
    tag, payload = encoded
    if tag == "bat":
        return BAT.from_ship_bytes(payload)
    return payload


def _strip(instr: MalInstruction) -> MalInstruction:
    """A copy the pipe can carry: ``impl_cache`` may hold closure-local
    kernels."""
    return MalInstruction(results=instr.results, module=instr.module,
                          function=instr.function, args=instr.args,
                          pc=instr.pc)


def _run_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one fragment task inside the worker process."""
    stall_ms = task.get("stall_ms")
    if stall_ms:
        time.sleep(stall_ms / 1000.0)
    ctx = EvalContext(None, None)
    try:
        for name, encoded in task["inputs"].items():
            ctx.bind(name, _decode_value(encoded))
    except Exception as exc:
        return {"ok": False, "kind": "decode",
                "message": f"partition shipment corrupt: {exc}"}
    deadline = task.get("deadline")
    rss_limit = task.get("rss_limit")
    full = set(task["full"])
    try:
        for instr in task["instructions"]:
            if deadline is not None and time.monotonic() >= deadline:
                return {"ok": False, "kind": "deadline",
                        "message": f"worker pc={instr.pc} past deadline"}
            if rss_limit is not None and ctx.rss > rss_limit:
                return {"ok": False, "kind": "rss",
                        "message": f"worker pc={instr.pc} over rss budget"}
            execute_instruction(ctx, instr)
    except MalRuntimeError as exc:
        return {"ok": False, "kind": "error", "message": str(exc)}
    except Exception as exc:  # pragma: no cover — defensive
        return {"ok": False, "kind": "error",
                "message": f"{type(exc).__name__}: {exc}"}
    values: Dict[str, Tuple] = {}
    for instr in task["instructions"]:
        for name in instr.results:
            value = ctx.env.get(name)
            if name in full or not isinstance(value, BAT):
                values[name] = _encode_value(value)
            else:
                values[name] = ("shadow", value.tail_type.name,
                                len(value), value.bytes())
    return {"ok": True, "values": values}


def _worker_main(conn) -> None:
    """Worker process loop: recv task, run, send reply, repeat."""
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        try:
            conn.send(_run_task(task))
        except (BrokenPipeError, OSError):
            return


class _Worker:
    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


# --------------------------------------------------------------------------
# the pool
# --------------------------------------------------------------------------

class PartitionWorkerPool:
    """A pool of forked partition workers (see the module docstring).

    Args:
        workers: worker process count; below 2 the pool always falls
            back to in-process execution.
        min_rows: plans shipping fewer total partition rows than this
            run in-process (0 forces the pool, used by tests/chaos).
        poll_s: parent-side reply poll slice; bounds how often the
            query's lifecycle context is re-checked while collecting.
    """

    def __init__(self, workers: int = 2, min_rows: int = DEFAULT_MIN_ROWS,
                 poll_s: float = 0.05) -> None:
        self.workers = int(workers)
        self.min_rows = int(min_rows)
        self.poll_s = poll_s
        self._workers: List[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "PartitionWorkerPool":
        """Fork the worker processes (idempotent); returns ``self``."""
        with self._lock:
            self._closed = False
            self._ensure_workers_locked()
        return self

    def _spawn_locked(self) -> _Worker:
        mp = multiprocessing.get_context("fork")
        parent_conn, child_conn = mp.Pipe()
        process = mp.Process(target=_worker_main, args=(child_conn,),
                             daemon=True, name="repro-mpool-worker")
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _ensure_workers_locked(self) -> None:
        if self.workers < 2 or self._closed:
            return
        for index in range(len(self._workers), self.workers):
            self._workers.append(self._spawn_locked())
        for index, worker in enumerate(self._workers):
            if not worker.alive:
                worker.conn.close()
                self._workers[index] = self._spawn_locked()
                MPOOL_WORKER_RESTARTS.inc()
        MPOOL_WORKERS.set(len(self._workers))

    def _kill_locked(self, worker: _Worker) -> None:
        try:
            worker.process.kill()
            worker.process.join(timeout=5.0)
        except (OSError, ValueError):  # pragma: no cover — already dead
            pass
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _reset_locked(self) -> None:
        """Kill every worker and re-fork: clean state after a failure."""
        for worker in self._workers:
            self._kill_locked(worker)
        self._workers = []
        self._ensure_workers_locked()

    def close(self) -> None:
        """Stop every worker (idempotent); the pool can be restarted."""
        with self._lock:
            self._closed = True
            for worker in self._workers:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            for worker in self._workers:
                worker.process.join(timeout=2.0)
                if worker.alive:
                    self._kill_locked(worker)
                else:
                    try:
                        worker.conn.close()
                    except OSError:  # pragma: no cover
                        pass
            self._workers = []
            MPOOL_WORKERS.set(0)

    def __enter__(self) -> "PartitionWorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def alive(self) -> int:
        """Number of currently live worker processes."""
        with self._lock:
            return sum(1 for w in self._workers if w.alive)

    # -- the main entry point -------------------------------------------

    def precompute(self, program: MalProgram, catalog: Catalog,
                   context: Optional["QueryContext"] = None,
                   ) -> Dict[int, List[Any]]:
        """Run the plan's partition fragments on the pool.

        Returns ``{pc: [outputs]}`` for every fragment member
        instruction, or ``{}`` when the plan should run in-process.
        Raises typed errors (:class:`~repro.errors.WorkerCrashError`,
        :class:`~repro.errors.PartitionShipError`, lifecycle errors) on
        failure; the pool resets itself so the next query is clean.
        """
        if self.workers < 2 or self._closed:
            MPOOL_FALLBACKS.labels(reason="workers").inc()
            return {}
        fragments = extract_fragments(program)
        if not fragments:
            MPOOL_FALLBACKS.labels(reason="no-fragments").inc()
            return {}
        prologue = self._prologue_instructions(program, fragments)
        if prologue is None:
            MPOOL_FALLBACKS.labels(reason="impure-input").inc()
            return {}
        with self._lock:
            self._ensure_workers_locked()
            if len(self._workers) < 2:
                MPOOL_FALLBACKS.labels(reason="workers").inc()
                return {}
            ctx = EvalContext(catalog, program)
            for instr in prologue:
                if context is not None:
                    context.check(ctx.rss)
                execute_instruction(ctx, instr)
            shipped_rows = 0
            for fragment in fragments:
                for name in fragment.inputs:
                    value = ctx.env.get(name)
                    if isinstance(value, BAT):
                        shipped_rows += len(value)
            if shipped_rows < self.min_rows:
                MPOOL_FALLBACKS.labels(reason="small-plan").inc()
                return {}
            return self._dispatch_locked(program, fragments, ctx, context)

    # -- internals ------------------------------------------------------

    @staticmethod
    def _prologue_instructions(
            program: MalProgram,
            fragments: List[PlanFragment]) -> Optional[List[MalInstruction]]:
        """The pure ancestor closure of every fragment input, in pc
        order — or None when an input depends on an impure instruction."""
        sites = program.def_sites()
        instructions = {i.pc: i for i in program.instructions}
        needed: List[int] = []
        seen = set()
        stack = [name for f in fragments for name in f.inputs]
        while stack:
            name = stack.pop()
            pc = sites.get(name)
            if pc is None or pc in seen:
                continue
            seen.add(pc)
            instr = instructions[pc]
            if not _prologue_safe(instr):
                return None
            needed.append(pc)
            for arg in instr.args:
                if isinstance(arg, Var):
                    stack.append(arg.name)
        return [instructions[pc] for pc in sorted(needed)]

    def _dispatch_locked(self, program: MalProgram,
                         fragments: List[PlanFragment], ctx: EvalContext,
                         context: Optional["QueryContext"],
                         ) -> Dict[int, List[Any]]:
        fault_plan = ACTIVE.plan
        instructions = {i.pc: i for i in program.instructions}
        tasks: List[Dict[str, Any]] = []
        kill_first: List[int] = []  # task indices hit by a crash fault
        deadline = context.deadline if context is not None else None
        rss_limit = (context.rss_budget_bytes
                     if context is not None else None)
        to_worker = 0
        for index, fragment in enumerate(fragments):
            inputs: Dict[str, Tuple] = {}
            for name in fragment.inputs:
                encoded = _encode_value(ctx.env[name])
                if encoded[0] == "bat":
                    to_worker += len(encoded[1])
                inputs[name] = encoded
            task = {
                "instructions": [_strip(instructions[pc])
                                 for pc in fragment.pcs],
                "inputs": inputs,
                "full": list(fragment.outputs),
                "deadline": deadline,
                "rss_limit": rss_limit,
                "stall_ms": None,
            }
            # fault decisions happen here, in fragment order, so the
            # journal is deterministic regardless of reply timing
            if fault_plan is not None:
                worker_fault = fault_plan.decide(
                    "mpool.worker", detail=str(fragment.partition))
                if worker_fault is not None:
                    if worker_fault.action == "crash":
                        kill_first.append(index)
                    elif worker_fault.action == "stall":
                        task["stall_ms"] = worker_fault.value or 50
                ship_fault = fault_plan.decide(
                    "mpool.ship", detail=str(fragment.partition))
                if ship_fault is not None:
                    if ship_fault.action == "truncate":
                        self._truncate_task(task)
                    elif ship_fault.action == "latency":
                        task["latency_ms"] = ship_fault.value or 5
            tasks.append(task)
        MPOOL_SHIP_BYTES.labels(direction="to-worker").inc(to_worker)
        try:
            replies = self._collect(tasks, kill_first, context, ctx)
        except BaseException:
            # typed failure or abort: leave no half-busy workers behind
            self._reset_locked()
            raise
        began = time.perf_counter()
        from_worker = 0
        values: Dict[str, Any] = {}
        for reply in replies:
            for name, encoded in reply["values"].items():
                if encoded[0] == "shadow":
                    _tag, type_name, rows, footprint = encoded
                    values[name] = ShadowBAT(type_by_name(type_name),
                                             rows, footprint)
                else:
                    if encoded[0] == "bat":
                        from_worker += len(encoded[1])
                    values[name] = _decode_value(encoded)
        precomputed: Dict[int, List[Any]] = {}
        for fragment in fragments:
            for pc in fragment.pcs:
                instr = instructions[pc]
                precomputed[pc] = [values[name] for name in instr.results]
        MPOOL_SHIP_BYTES.labels(direction="from-worker").inc(from_worker)
        MPOOL_MERGE_USEC.observe((time.perf_counter() - began) * 1e6)
        return precomputed

    @staticmethod
    def _truncate_task(task: Dict[str, Any]) -> None:
        """Corrupt the task's largest BAT payload (ship fault)."""
        largest, size = None, -1
        for name, (tag, payload) in task["inputs"].items():
            if tag == "bat" and len(payload) > size:
                largest, size = name, len(payload)
        if largest is not None:
            _tag, payload = task["inputs"][largest]
            task["inputs"][largest] = ("bat", payload[: size // 2])

    def _collect(self, tasks: List[Dict[str, Any]], kill_first: List[int],
                 context: Optional["QueryContext"], ctx: EvalContext,
                 ) -> List[Dict[str, Any]]:
        """Static round-robin dispatch, one outstanding task per worker.

        Bounding in-flight tasks to one per worker keeps the pipes free
        of reply backlog (no deadlock between a parent still sending
        and a worker blocked writing a large reply).
        """
        nworkers = len(self._workers)
        queues: List[deque] = [deque() for _ in range(nworkers)]
        for index in range(len(tasks)):
            queues[index % nworkers].append(index)
        for index in kill_first:
            # the crash fault kills the real process; detection below is
            # the same code path as a genuine worker death
            self._kill_locked(self._workers[index % nworkers])
        inflight: Dict[Any, Tuple[int, int]] = {}  # conn -> (widx, tidx)
        replies: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
        outstanding = len(tasks)

        def send_next(widx: int) -> None:
            if not queues[widx]:
                return
            tidx = queues[widx].popleft()
            task = tasks[tidx]
            latency_ms = task.pop("latency_ms", None)
            if latency_ms:
                time.sleep(latency_ms / 1000.0)
            worker = self._workers[widx]
            try:
                worker.conn.send(task)
            except (BrokenPipeError, OSError):
                raise self._crash(widx, tidx)
            inflight[worker.conn] = (widx, tidx)

        for widx in range(nworkers):
            send_next(widx)
        while outstanding:
            if context is not None:
                context.check(ctx.rss)
            if not inflight:  # pragma: no cover — defensive
                raise MalRuntimeError("partition pool lost its tasks")
            for conn in _conn_wait(list(inflight), timeout=self.poll_s):
                widx, tidx = inflight.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    raise self._crash(widx, tidx)
                self._check_reply(reply, context)
                replies[tidx] = reply
                MPOOL_TASKS.labels(outcome="ok").inc()
                outstanding -= 1
                send_next(widx)
        return [r for r in replies if r is not None]

    def _crash(self, widx: int, tidx: int) -> WorkerCrashError:
        MPOOL_TASKS.labels(outcome="crash").inc()
        pid = self._workers[widx].process.pid
        return WorkerCrashError(
            f"partition worker {widx} (pid {pid}) died executing "
            f"fragment {tidx}; pool will restart it")

    @staticmethod
    def _check_reply(reply: Dict[str, Any],
                     context: Optional["QueryContext"]) -> None:
        if reply.get("ok"):
            return
        MPOOL_TASKS.labels(outcome="error").inc()
        kind = reply.get("kind", "error")
        message = reply.get("message", "worker task failed")
        if kind == "decode":
            raise PartitionShipError(message)
        if kind in ("deadline", "rss") and context is not None:
            # route through the context so the cancellation is typed and
            # counted exactly like a parent-side budget violation
            context.cancel(message, source="deadline" if kind == "deadline"
                           else "rss-budget")
            context.check()
        raise MalRuntimeError(message)
