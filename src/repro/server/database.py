"""The embedded execution environment: catalog, compiler, optimizer,
interpreter and profiler in one object.

``Database.execute`` is the single entry point for SQL: DDL and INSERT
apply directly to the catalog; SELECT compiles to MAL, runs through the
configured optimizer pipeline, executes on the dataflow scheduler and
returns rows.  Every compiled plan and its dot file are kept for the
Stethoscope to pick up.
"""

from __future__ import annotations

import datetime
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

from repro.dot.writer import plan_to_dot
from repro.errors import SqlError, StorageError, TypeMismatchError
from repro.metrics.families import (
    ADAPTIVE_DEADLINE_REROUTES, PLAN_CACHE_EVICTIONS, PLAN_CACHE_HITS,
    PLAN_CACHE_MISSES, PLAN_CACHE_SIZE,
)
from repro.stats import StatsStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.lifecycle import QueryContext
from repro.mal.ast import MalProgram
from repro.mal.dataflow import SimulatedScheduler
from repro.mal.interpreter import (
    CostModel, ExecutionResult, Interpreter, RunListener,
)
from repro.mal.optimizer import (
    AdaptiveOrder, Mitosis, Pipeline, pipeline_by_name,
)
from repro.mal.printer import format_program
from repro.server.protocol import checked_workers
from repro.sqlfe.ast import CreateTable, DropTable, Insert, Literal, Select, UnaryOp
from repro.sqlfe.compiler import SqlCompiler
from repro.sqlfe.lexer import normalize_sql
from repro.sqlfe.parser import parse_sql
from repro.storage.catalog import Catalog, Column, _sql_type_to_mal
from repro.storage.durable import (
    CheckpointReport, DurableEngine, RecoveryReport, apply_record,
)


class _PlanEntry:
    """One cached plan plus what the ``stats`` verb shows of it."""

    __slots__ = ("program", "last_usec", "hits", "created_monotonic",
                 "replan", "replanning")

    def __init__(self, program: MalProgram, replan: bool = False) -> None:
        self.program = program
        self.last_usec: Optional[float] = None
        self.hits = 0
        self.created_monotonic = time.monotonic()
        #: compiled while a select chain had no observed selectivity:
        #: the first lookup after a run was observed compiles it again
        self.replan = replan
        #: that lookup happened; the next ``put`` of the key is the
        #: re-plan, which is never marked
        self.replanning = False


class PlanCache:
    """A thread-safe LRU cache of optimized MAL plans.

    A key is what shapes a compiled plan besides the data: the
    normalized SQL text, the optimizer pipeline and the worker count
    (mitosis partitions by it).  What the plan assumed of the data it
    carries itself (``program.reads``, see :meth:`MalProgram.seal
    <repro.mal.ast.MalProgram.seal>`): :meth:`get` serves it for as long
    as each table it reads is the same table with the same row count,
    so a write invalidates exactly the plans that read its table.  DDL
    and ``swap_catalog`` also :meth:`clear`, which frees a dropped
    table's plans at once instead of at their next lookup.  Nothing
    else evicts a plan but capacity: no statement rewrites rows in
    place, so a plan whose tables are unchanged still fits their data.

    One plan is compiled again without being evicted: one put with
    ``replan`` (``adaptive_order`` found a select chain whose
    selectivities the stats store had never observed, so the plan kept
    its syntactic order).  Once a run of it has been observed, the next
    :meth:`get` of its key is a miss, and that caller compiles with warm
    statistics; every other caller keeps the old, still valid plan
    until the successor is put.  The successor is never marked, so an
    entry re-plans at most once; an evicted or invalidated one starts
    afresh.

    A ``capacity`` of 0 disables caching entirely (every ``get`` is a
    silent miss and ``put`` is a no-op) — useful for benchmarking cold
    compiles and for workloads of one-off statements.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 0:
            raise ValueError("plan cache capacity must be >= 0")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, _PlanEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        """False when constructed with capacity 0."""
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple,
            catalog: Optional[Catalog] = None) -> Optional[MalProgram]:
        """The cached plan for ``key``, or None (counts a hit/miss).

        A plan one of whose tables changed in ``catalog`` since it was
        compiled is dropped: a miss plus an ``invalidate`` eviction.  A
        plan owed its re-plan stays, and this one lookup is a miss."""
        if not self.capacity:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and catalog is not None \
                    and not catalog.holds(entry.program.reads):
                del self._entries[key]
                self.evictions += 1
                PLAN_CACHE_EVICTIONS.labels(reason="invalidate").inc()
                PLAN_CACHE_SIZE.set(len(self._entries))
                entry = None
            elif entry is not None and entry.replan \
                    and entry.last_usec is not None:
                entry.replan = False
                entry.replanning = True
                entry = None
            if entry is None:
                self.misses += 1
                PLAN_CACHE_MISSES.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            entry.hits += 1
            PLAN_CACHE_HITS.inc()
            return entry.program

    def put(self, key: tuple, program: MalProgram,
            replan: bool = False) -> None:
        """Insert ``key`` → ``program``, evicting the LRU entry if full;
        ``replan`` marks it for one re-plan unless it is one."""
        if not self.capacity:
            return
        with self._lock:
            old = self._entries.get(key)
            if old is not None and old.replanning:
                replan = False
            self._entries[key] = _PlanEntry(program, replan)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                PLAN_CACHE_EVICTIONS.labels(reason="lru").inc()
            PLAN_CACHE_SIZE.set(len(self._entries))

    def observe(self, key: tuple, usec: float) -> None:
        """Record ``key``'s latest execution latency for :meth:`entries`
        (for a plan marked ``replan``, also that a run was observed)."""
        if not self.capacity:
            return
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.last_usec = usec

    def clear(self) -> int:
        """Drop every entry (DDL, ``swap_catalog``); returns the count."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            if dropped:
                self.evictions += dropped
                PLAN_CACHE_EVICTIONS.labels(reason="invalidate").inc(dropped)
            PLAN_CACHE_SIZE.set(0)
            return dropped

    def stats(self) -> Dict[str, int]:
        """Counters and occupancy, for the CLI/server ``stats`` surface."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def entries(self) -> List[Dict[str, Any]]:
        """Per-entry diagnostics for the ``stats`` verb: what is cached,
        how hot it is, and what its latest run cost."""
        now = time.monotonic()
        with self._lock:
            out = []
            for key, entry in self._entries.items():
                nsql, pipeline, workers = key[0], key[1], key[2]
                out.append({
                    "sql": nsql,
                    "pipeline": pipeline,
                    "workers": workers,
                    "tables": [f"{schema}.{table}" for schema, table, *_
                               in entry.program.reads.states],
                    "hits": entry.hits,
                    "age_s": round(now - entry.created_monotonic, 3),
                    "last_usec": entry.last_usec,
                })
            return out


@dataclass
class QueryOutcome:
    """What one SQL statement produced.

    A result is held the way the executor left it — ``vectors``, one
    value list per entry of ``columns`` — which is also how the server
    ships it; ``rows`` transposes them the first time it is asked for.
    """

    kind: str  # "rows" | "ddl" | "insert"
    columns: List[str] = field(default_factory=list)
    vectors: List[List[Any]] = field(default_factory=list)
    affected: int = 0
    program: Optional[MalProgram] = None
    execution: Optional[ExecutionResult] = None

    @cached_property
    def rows(self) -> List[Tuple[Any, ...]]:
        return list(zip(*self.vectors))


class Database:
    """An embedded database instance.

    Args:
        catalog: existing catalog (a fresh one when omitted).
        workers: dataflow worker count (also the mitosis partition
            count), 1 to :data:`~repro.server.protocol.MAX_WORKERS` like
            a session's ``set``; anything else is a :class:`ServerError`.
        pipeline_name: optimizer pipeline (``default_pipe``,
            ``sequential_pipe``, ``minimal_pipe``).
        plan_cache_size: maximum optimized plans kept by the LRU plan
            cache; 0 disables plan caching.
        wal_dir: directory for the write-ahead log and checkpoints.
            When given, opening the database *recovers* whatever the
            directory holds (newest valid checkpoint + WAL replay; see
            :attr:`recovery`), and every DDL/INSERT is write-ahead
            logged and fsynced before it is acknowledged.  None (the
            default) keeps the catalog purely in-memory, as before.
        commit_window_ms: group-commit window — the longest a
            committing leader with company (another writer's record
            already pending) waits for more to share its fsync.  A
            lone writer never waits: its commit is one fsync.
        checkpoint_interval: write a checkpoint (and truncate the WAL)
            every this many logged statements; 0 disables automatic
            checkpoints (:meth:`checkpoint` still works).
        stats_store: runtime statistics store feeding the adaptive
            optimizer; a fresh one when omitted.  Durable databases
            persist it as ``<wal_dir>/stats.json`` on close and reload
            it on open (a missing or corrupt snapshot just starts the
            feedback loop cold).
    """

    STATS_FILENAME = "stats.json"

    def __init__(self, catalog: Optional[Catalog] = None, workers: int = 4,
                 pipeline_name: str = "default_pipe",
                 mitosis_threshold: int = 1000,
                 plan_cache_size: int = 64,
                 wal_dir: Optional[str] = None,
                 commit_window_ms: float = 2.0,
                 checkpoint_interval: int = 0,
                 stats_store: Optional[StatsStore] = None) -> None:
        workers = checked_workers(workers)
        #: the durable engine (WAL + checkpoints), or None when opened
        #: without a ``wal_dir``.
        self.durability: Optional[DurableEngine] = None
        #: what opening the ``wal_dir`` recovered, or None.
        self.recovery: Optional[RecoveryReport] = None
        if wal_dir:
            self.durability = DurableEngine(
                wal_dir, commit_window_ms=commit_window_ms,
                checkpoint_interval=checkpoint_interval)
            self.recovery = self.durability.report
            if self.recovery.recovered_anything:
                if catalog is not None:
                    self.durability.close()
                    raise StorageError(
                        f"wal directory {wal_dir!r} already holds a "
                        f"database; open it with catalog=None to "
                        f"recover it")
                catalog = self.durability.catalog
            elif catalog is not None:
                # seed catalog (e.g. the data generator's): make the
                # baseline durable before the first statement runs
                try:
                    self.durability.adopt(catalog)
                except Exception:
                    self.durability.close()
                    raise
            else:
                catalog = self.durability.catalog
        self.catalog = catalog or Catalog()
        self.workers = workers
        self.pipeline_name = pipeline_name
        self.mitosis_threshold = mitosis_threshold
        self.compiler = SqlCompiler(self.catalog)
        #: the modelled clock of every run; one instance, so it resolves
        #: an instruction's operator class once per function
        self.cost_model = CostModel()
        #: LRU cache of optimized plans, shared by every session on this
        #: database; per-session pipeline/worker overrides are part of
        #: the key, so sessions never see each other's plans.
        self.plan_cache = PlanCache(plan_cache_size)
        #: last compiled (optimized) plan, for explain/dot consumers
        self.last_program: Optional[MalProgram] = None
        #: runtime statistics feeding the adaptive optimizer; durable
        #: databases reload the previous run's snapshot so the feedback
        #: loop survives restarts
        self._stats_path: Optional[str] = (
            os.path.join(wal_dir, self.STATS_FILENAME) if wal_dir else None)
        if stats_store is not None:
            self.stats_store = stats_store
        else:
            self.stats_store = StatsStore()
            if self._stats_path and os.path.exists(self._stats_path):
                try:
                    self.stats_store = StatsStore.load(self._stats_path)
                except (StorageError, OSError):
                    pass  # cold stats beat refusing to open

    def close(self) -> None:
        """Release owned resources (stats snapshot, WAL); idempotent.

        Closing the WAL fsyncs it, so a *graceful* shutdown preserves
        every applied statement even if none were checkpointed."""
        if self._stats_path is not None and len(self.stats_store):
            try:
                self.stats_store.save(self._stats_path)
            except OSError:
                pass  # stats are advisory; never fail shutdown on them
        if self.durability is not None:
            self.durability.close()

    def checkpoint(self) -> CheckpointReport:
        """Force a checkpoint now (durable databases only).

        Raises:
            StorageError: the database was opened without a ``wal_dir``.
            CheckpointError: the checkpoint could not be written (the
                WAL is left intact, so nothing is lost).
        """
        if self.durability is None:
            raise StorageError(
                "checkpoint requires a database opened with a wal_dir")
        return self.durability.checkpoint()

    # ------------------------------------------------------------------

    def set_pipeline(self, name: str) -> None:
        """Switch the optimizer pipeline (validated immediately)."""
        pipeline_by_name(name)  # raises on unknown names
        self.pipeline_name = name

    def _pipeline(self, name: Optional[str] = None,
                  workers: Optional[int] = None,
                  scope: Optional[str] = None) -> Pipeline:
        name = name or self.pipeline_name
        workers = workers or self.workers
        if name in ("default_pipe", "static_pipe"):
            pipeline = pipeline_by_name(
                name, nparts=workers,
                mitosis_threshold=self.mitosis_threshold,
            )
            for opt_pass in pipeline.passes:
                if isinstance(opt_pass, Mitosis):
                    opt_pass.catalog = self.catalog
                elif isinstance(opt_pass, AdaptiveOrder):
                    opt_pass.stats = self.stats_store
                    opt_pass.scope = scope
            return pipeline
        return pipeline_by_name(name)

    # ------------------------------------------------------------------

    def swap_catalog(self, catalog: Catalog) -> None:
        """Replace the live catalog wholesale (replication only).

        Used when a node's state is rebuilt from disk — a replica
        installing a bootstrap snapshot, or a promotion re-running
        recovery.  The compiler binds to the new catalog and every
        cached plan is dropped; in-flight reads keep executing against
        the old catalog object they already resolved, exactly like a
        read racing a concurrent write.
        """
        self.catalog = catalog
        self.compiler = SqlCompiler(catalog)
        self.plan_cache.clear()

    def install_replica_snapshot(self, catalog: Catalog, lsn: int) -> None:
        """Adopt a bootstrap checkpoint shipped from the primary.

        The checkpoint directory for ``lsn`` must already be valid on
        disk (the replication layer lands and CRC-verifies it first);
        this swaps it into both the durable engine and the execution
        surface atomically with respect to the write path.
        """
        if self.durability is None:
            raise StorageError(
                "snapshot install requires a durable database")
        self.durability.install_snapshot(catalog, lsn)
        self.swap_catalog(catalog)

    def _plan(self, sql: str, nsql: Optional[str],
              pipeline_name: Optional[str] = None,
              workers: Optional[int] = None,
              statement: Optional[Select] = None,
              ) -> Tuple[MalProgram, Optional[tuple]]:
        """The optimized plan of one SELECT, and its plan-cache key.

        The one place a plan is looked up, checked against the tables it
        reads, compiled, sealed and cached.  The key is the statement as
        :func:`normalize_sql` left it (``nsql``; None means never
        cached) plus the effective pipeline and worker count.  A
        hit skips lexing, parsing, binding and the optimizer pipeline.
        A plan in which ``adaptive_order`` met a chain it knew nothing
        of is cached for one re-plan (see :class:`PlanCache`).
        """
        key = None
        program = None
        if nsql is not None and self.plan_cache.enabled:
            key = (nsql, pipeline_name or self.pipeline_name,
                   workers or self.workers)
            program = self.plan_cache.get(key, self.catalog)
        if program is None:
            tables = self.catalog.tables()  # before the binder reads them
            program = self.compiler.compile(statement or parse_sql(sql))
            # observed once, before any pass looks at a row count: what
            # AdaptiveOrder looks statistics up under is what the plan is
            # sealed with and what its runs are recorded under
            reads = self.catalog.observe(program.tables_read(), tables)
            pipeline = self._pipeline(pipeline_name, workers, reads.scope)
            program = pipeline.apply(program)
            program.seal(reads)
            if key is not None:
                self.plan_cache.put(key, program, any(
                    isinstance(opt_pass, AdaptiveOrder) and opt_pass.unknown
                    for opt_pass in pipeline.passes))
        self.last_program = program
        return program, key

    def compile(self, sql: str, pipeline_name: Optional[str] = None,
                workers: Optional[int] = None) -> MalProgram:
        """Compile a SELECT to its optimized MAL plan.

        ``pipeline_name``/``workers`` override the instance defaults for
        this one compilation — how the server applies per-session
        settings without mutating the shared database.
        """
        nsql = normalize_sql(sql) if self.plan_cache.enabled else None
        return self._plan(sql, nsql, pipeline_name, workers)[0]

    def explain(self, sql: str, pipeline_name: Optional[str] = None,
                workers: Optional[int] = None) -> str:
        """The optimized MAL plan as text (``EXPLAIN``)."""
        return format_program(self.compile(sql, pipeline_name, workers))

    def dot(self, sql: str, pipeline_name: Optional[str] = None,
            workers: Optional[int] = None) -> str:
        """The optimized plan's dot file."""
        return plan_to_dot(self.compile(sql, pipeline_name, workers))

    def execute(self, sql: str,
                listener: Optional[RunListener] = None,
                context: Optional["QueryContext"] = None,
                pipeline_name: Optional[str] = None,
                workers: Optional[int] = None) -> QueryOutcome:
        """Execute one SQL statement.

        ``listener`` (usually a :class:`~repro.profiler.Profiler`)
        receives the instruction run records of SELECT execution.
        ``context`` is an optional
        :class:`~repro.server.lifecycle.QueryContext` checked at every
        instruction boundary (cancellation, deadline, RSS budget).
        ``pipeline_name``/``workers`` are per-call
        overrides of the instance defaults; the server uses them to
        apply per-session settings without mutating shared state.

        MonetDB's statement modifiers are supported: ``EXPLAIN SELECT
        ...`` returns the optimized MAL plan as one text column instead
        of executing, and ``TRACE SELECT ...`` executes the query and
        returns its profiler trace as rows.
        """
        if context is not None:
            context.check()
        # The statement's first word, however it is separated from the
        # rest: "explain\nselect ..." is EXPLAIN like "explain select".
        words = sql.split(None, 1)
        head = words[0].lower() if words else ""
        if head == "explain" and len(words) == 2:
            plan_text = self.explain(words[1], pipeline_name, workers)
            outcome = QueryOutcome(kind="rows", columns=["mal"],
                                   vectors=[plan_text.splitlines()])
            outcome.program = self.last_program
            return outcome
        if head == "trace" and len(words) == 2:
            return self._execute_traced(words[1], context,
                                        pipeline_name, workers)
        # Only a statement that starts with SELECT is looked up without
        # being parsed; anything else is parsed to find out what it is.
        statement = None
        if not head.startswith("select"):
            statement = parse_sql(sql)
            if isinstance(statement, (CreateTable, DropTable)):
                if isinstance(statement, CreateTable):
                    self._execute_create(statement)
                else:
                    self._execute_drop(statement)
                self.plan_cache.clear()
                return QueryOutcome(kind="ddl")
            if isinstance(statement, Insert):
                return self._execute_insert(statement)
            if not isinstance(statement, Select):
                raise SqlError(
                    f"unsupported statement {type(statement).__name__}")
        # Normalised once: the plan key, the deadline reroute and the
        # whole-query observation all read this text.
        nsql = normalize_sql(sql)
        cached_as = nsql if statement is None else None  # behind a comment
        program, key = self._plan(sql, cached_as, pipeline_name, workers,
                                  statement)
        # Deadline-carrying SELECTs run a Maliva-style cheapest-feasible
        # variant: when the stats store has seen this statement under
        # several pipelines and predicts this one will blow the deadline,
        # reroute to the cheapest.
        if statement is None and context is not None and \
                getattr(context, "deadline_s", None):
            chosen, rerouted = self.stats_store.choose_pipeline(
                nsql, workers or self.workers, program.reads.scope,
                deadline_usec=context.deadline_s * 1_000_000.0,
                default=pipeline_name or self.pipeline_name)
            if rerouted:
                pipeline_name = chosen
                ADAPTIVE_DEADLINE_REROUTES.inc()
                program, key = self._plan(sql, nsql, chosen, workers)
        started = time.perf_counter_ns()
        execution = self.run_program(program, listener, context, workers)
        # measured, not modelled: the reroute compares it with a deadline
        wall_usec = (time.perf_counter_ns() - started) / 1000.0
        # Close the feedback loop: fold the completed trace into the
        # stats store; the plan cache keeps the run's latency for display
        # and, once it has it, re-plans a plan compiled on cold stats.
        scope = program.reads.scope
        self.stats_store.observe_program(program, execution.runs, scope)
        self.stats_store.observe_query(
            nsql, pipeline_name or self.pipeline_name,
            workers or self.workers, wall_usec, scope)
        if key is not None:
            self.plan_cache.observe(key, wall_usec)
        result_set = execution.first
        return QueryOutcome(
            kind="rows",
            columns=list(result_set.names) if result_set else [],
            vectors=result_set.columns if result_set else [],
            program=program,
            execution=execution,
        )

    def run_program(self, program: MalProgram,
                    listener: Optional[RunListener] = None,
                    context: Optional["QueryContext"] = None,
                    workers: Optional[int] = None) -> ExecutionResult:
        """Execute an already-compiled plan: list-scheduled over the
        workers when the dataflow pass admitted it, else in order."""
        workers = workers or self.workers
        if program.dataflow_enabled:
            return SimulatedScheduler(
                self.catalog, workers=workers, listener=listener,
                cost_model=self.cost_model,
            ).run(program, context)
        return Interpreter(self.catalog, listener=listener,
                           cost_model=self.cost_model).run(program, context)

    def _execute_traced(self, sql: str,
                        context: Optional["QueryContext"] = None,
                        pipeline_name: Optional[str] = None,
                        workers: Optional[int] = None) -> QueryOutcome:
        """``TRACE SELECT ...``: run the query, return its trace rows."""
        from repro.profiler import Profiler

        profiler = Profiler()
        inner = self.execute(sql, listener=profiler, context=context,
                             pipeline_name=pipeline_name, workers=workers)
        outcome = QueryOutcome(
            kind="rows",
            columns=["event", "clock", "status", "pc", "thread", "usec",
                     "rss", "stmt"],
            vectors=[[getattr(e, field_name) for e in profiler.events]
                     for field_name in ("event", "clock_usec", "status",
                                        "pc", "thread", "usec",
                                        "rss_bytes", "stmt")],
        )
        outcome.program = inner.program
        outcome.execution = inner.execution
        return outcome

    # ------------------------------------------------------------------
    # the write path (DDL / INSERT): one record per statement, checked
    # and applied by repro.storage.durable — through the WAL if durable
    # ------------------------------------------------------------------

    def _write(self, kind: str, data: Dict[str, Any]) -> int:
        """Check and apply one statement's record; returns the rows it
        inserted."""
        if self.durability is None:
            return apply_record(self.catalog, kind, data)
        return self.durability.log(kind, data)

    def _execute_create(self, statement: CreateTable) -> None:
        self._write("ddl", {
            "op": "create", "schema": self.catalog.schema().name,
            "table": statement.table,
            "columns": [[name, _sql_type_to_mal(type_name).name]
                        for name, type_name in statement.columns]})

    def _execute_drop(self, statement: DropTable) -> None:
        self._write("ddl", {"op": "drop", "schema": self.catalog.schema().name,
                            "table": statement.table})

    def _execute_insert(self, statement: Insert) -> QueryOutcome:
        table = self.catalog.table(statement.table)
        columns = list(table.columns.values())
        rows: List[List[Any]] = []
        for row_exprs in statement.rows:
            if len(row_exprs) != len(columns):
                raise SqlError(
                    f"INSERT row has {len(row_exprs)} value(s); table "
                    f"{statement.table!r} has {len(columns)} column(s)")
            rows.append([
                self._bind_insert_value(expr, column)
                for expr, column in zip(row_exprs, columns)
            ])
        return QueryOutcome(kind="insert", affected=self._write("insert", {
            "schema": self.catalog.schema().name, "table": table.name,
            "rows": rows}))

    def _bind_insert_value(self, expr: Any, column: Column) -> Any:
        """Evaluate one INSERT literal and type-check it at bind time.

        A literal whose type cannot losslessly land in the column's atom
        type is rejected with a typed :class:`SqlError` *before* any
        column is touched (and, for durable databases, before the row is
        write-ahead logged) — previously a mistyped literal could land
        in a BAT and only fail later inside a kernel.
        """
        if isinstance(expr, Literal):
            value = expr.value
        elif isinstance(expr, UnaryOp) and expr.op == "-" and \
                isinstance(expr.operand, Literal):
            operand = expr.operand.value
            if isinstance(operand, bool) or \
                    not isinstance(operand, (int, float)):
                raise SqlError(
                    f"cannot negate non-numeric literal {operand!r}")
            value = -operand
        else:
            raise SqlError("INSERT supports literal values only")
        if value is None:
            return None
        type_name = column.mal_type.name
        target = f"column {column.name!r} ({type_name})"
        if isinstance(value, bool):
            if type_name != "bit":
                raise SqlError(
                    f"cannot insert boolean {value!r} into {target}")
            return value
        if isinstance(value, int):
            if type_name not in ("int", "lng", "oid", "flt", "dbl"):
                raise SqlError(
                    f"cannot insert integer {value!r} into {target}")
        elif isinstance(value, float):
            if type_name not in ("flt", "dbl"):
                raise SqlError(
                    f"cannot insert float {value!r} into {target}")
        elif isinstance(value, datetime.date):
            if type_name != "date":
                raise SqlError(
                    f"cannot insert date {value!r} into {target}")
        elif isinstance(value, str):
            if type_name == "date":
                try:
                    return datetime.date.fromisoformat(value.strip())
                except ValueError:
                    raise SqlError(
                        f"bad date literal {value!r} for {target}: "
                        f"expected YYYY-MM-DD") from None
            if type_name != "str":
                raise SqlError(
                    f"cannot insert string {value!r} into {target}")
        else:
            raise SqlError(
                f"unsupported literal {value!r} for {target}")
        try:
            return column.mal_type.caster(value)
        except TypeMismatchError as exc:
            raise SqlError(str(exc)) from None
