"""The traced run: where one workload's time goes, layer by layer.

Two parts.  First the workload is replayed *in-process* (the wire
workloads through a real ``MClient`` and ``Mserver`` over loopback, the
server's threads inside this process so that its calls can be wrapped),
alternating untraced and traced rounds; the traced rounds wrap the
public calls of each layer in spans, and a layer's share is its spans'
self time over the traced operation time.  Then a fixed set of *probes*
drives each layer's public calls on fixed inputs, the same in every
workload's traced run, so the per-layer timings of two commits are
comparable whatever the workload.

Spans are recorded from this file, around calls into ``src/``; nothing
inside the program is instrumented.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

import repro.core.session as session_module
import repro.layout.engine as layout_module
import repro.mal.dataflow as dataflow_module
import repro.mal.interpreter as interpreter_module
import repro.mal.optimizer as optimizer_module
import repro.server.client as client_module
import repro.server.database as database_module
import repro.server.mserver as mserver_module
from repro import Profiler, plan_to_dot, populate
from repro.core.replay import ReplayController
from repro.core.session import OfflineSession
from repro.profiler import write_trace
from repro.profiler.traceio import iter_trace
from repro.server import Database, MClient, Mserver
from repro.server.database import PlanCache
from repro.sqlfe.compiler import SqlCompiler
from repro.stats import StatsStore
from repro.storage import Catalog
from repro.storage.bat import BAT
from repro.storage.catalog import Table
from repro.storage.durable import DurableEngine
from repro.storage.types import DBL, INT, OID, STR
from repro.tpch import query_sql
from repro.viz.view import View
from repro.workloads import random_query, synthetic_plan, trace_for_program

import harness
import metrics
import replay
import workloads as wl

UNITS = {name: unit for name, unit, _better in metrics.PER_LAYER}


# ---------------------------------------------------------------------
# which public calls become spans


def _instruction_span(_context, instruction) -> str:
    return "mal.op." + instruction.module


def _count_runs(execution) -> int:
    return len(execution.runs)


def engine_patches(count_runs: Callable = _count_runs) -> List[tuple]:
    """The calls one statement makes between ``MClient.query`` and the
    decoded rows, layer by layer.  The protocol functions are wrapped
    where the client and the server call them, so the spans time the
    program's own framing, result building and decoding."""
    patches = [
        (MClient, "query", "server.roundtrip"),
        (client_module, "encode_message", "protocol.encode_request"),
        (mserver_module, "decode_message", "protocol.decode_request"),
        (mserver_module, "encode_rows", "protocol.encode_result"),
        (mserver_module, "encode_message", "protocol.encode_result", len),
        (client_module, "decode_message", "protocol.decode_result"),
        (client_module, "decode_rows", "protocol.decode_result"),
        (Database, "execute", "database.execute"),
        (database_module, "parse_sql", "sqlfe.parse"),
        (SqlCompiler, "compile", "sqlfe.compile", len),
        (optimizer_module.Pipeline, "apply", "optimizer.total", len),
        (Database, "run_program", "mal.execute", count_runs),
        (dataflow_module, "execute_instruction", _instruction_span),
        (interpreter_module, "execute_instruction", _instruction_span),
        (PlanCache, "get", "plancache.get"),
        (PlanCache, "put", "plancache.put"),
        (PlanCache, "observe", "stats.observe_plan"),
        (StatsStore, "observe_program", "stats.observe_program"),
        (StatsStore, "observe_query", "stats.observe_query"),
        (Table, "insert_many", "storage.insert_many"),
        (DurableEngine, "log", "durable.log"),
        (DurableEngine, "maybe_checkpoint", "durable.checkpoint"),
    ]
    patches += [(getattr(optimizer_module, name), "run",
                 f"optimizer.pass.{name}")
                for name in metrics.OPTIMIZER_PASSES]
    return patches


def _finished(generator_function: Callable) -> Callable:
    """A generator's work happens when it is consumed: consume it inside
    the span."""
    return lambda *args, **kwargs: list(generator_function(*args, **kwargs))


def tool_patches() -> List[tuple]:
    """The calls an offline session makes, dot file to painted SVG."""
    return [
        (OfflineSession, "__init__", "core.session"),
        (session_module, "iter_trace", "profiler.trace_read", None,
         _finished),
        (session_module, "parse_dot", "dot.parse"),
        (session_module, "layout_graph", "layout.total"),
        (layout_module, "acyclic_orientation", "layout.acyclic"),
        (layout_module, "assign_ranks", "layout.rank"),
        (layout_module, "layers_from_ranks", "layout.rank"),
        (layout_module, "insert_virtual_nodes", "layout.ordering"),
        (layout_module, "minimize_crossings", "layout.ordering"),
        (layout_module, "count_crossings", "layout.crossings",
         lambda crossings: crossings),
        (layout_module, "assign_coordinates", "layout.position"),
        (session_module, "layout_to_svg", "svg.write"),
        (session_module, "svg_to_graph", "svg.parse"),
        (session_module, "build_virtual_space", "viz.space"),
        (View, "fit_all", "viz.space"),
        (session_module, "PlanTraceMap", "core.mapping"),
        (ReplayController, "run_to_end", "core.replay"),
        (OfflineSession, "apply_gradient_coloring", "core.coloring"),
        (OfflineSession, "save_svg", "core.save"),
        (View, "render_svg", "viz.render_svg"),
    ]


#: span-name prefix -> layer, first match wins
_LAYER_PREFIXES = (
    # server.roundtrip's self time: socket, asyncio loop, admission
    # queue, executor hand-off
    ("protocol.", "server"), ("server.", "server"),
    ("database.", "server.database"), ("plancache.", "server.database"),
    ("stats.", "server.database"),
    ("sqlfe.", "sqlfe"),
    ("optimizer.", "mal.optimizer"),
    # inside execute_instruction: the module function and the BAT
    # kernels it calls; what is left of run_program is the executor
    ("mal.op.", "storage"), ("mal.", "mal"),
    ("storage.", "storage"),
    ("durable.", "storage.durable"),
    ("profiler.", "profiler"),
    ("dot.", "dot"), ("layout.", "layout"), ("svg.", "svg"),
    ("core.", "core"), ("viz.", "viz"),
    ("op", "harness"),
)


def layer_of(span_name: str) -> str:
    for prefix, layer in _LAYER_PREFIXES:
        if span_name.startswith(prefix):
            return layer
    raise KeyError(span_name)


# ---------------------------------------------------------------------
# folds over the span list


def layer_self_ns(spans: Sequence[Sequence]) -> Dict[str, int]:
    """Self time per layer; sums to the total op time by construction."""
    totals = {layer: 0 for layer in metrics.LAYERS}
    for span, own in zip(spans, harness.self_times(spans)):
        totals[layer_of(span[0])] += own
    return totals


class SpanTable:
    """Per-operation totals of each span name.

    Operations carry a key (the statement or plan they ran);
    :meth:`ns` is the mean over keys of the median over that key's
    repeats — steady against one slow repeat, and not dominated by the
    key that was repeated most.
    """

    def __init__(self, spans: Sequence[Sequence],
                 op_keys: Sequence[Any]) -> None:
        self.op_keys = list(op_keys)
        self.durations: Dict[str, Dict[int, int]] = {}
        self.counts: Dict[str, Dict[int, float]] = {}
        for name, op_id, _parent, start, end, count in spans:
            per_op = self.durations.setdefault(name, {})
            per_op[op_id] = per_op.get(op_id, 0) + end - start
            if count is not None:
                per_op = self.counts.setdefault(name, {})
                per_op[op_id] = per_op.get(op_id, 0) + count

    def _fold(self, table: Dict[str, Dict[int, float]],
              names: Iterable[str]) -> float:
        by_key: Dict[Any, List[float]] = {}
        names = list(names)
        for op_id, key in enumerate(self.op_keys):
            by_key.setdefault(key, []).append(
                sum(table.get(name, {}).get(op_id, 0) for name in names))
        if not by_key:
            return 0.0
        return statistics.fmean(statistics.median(v)
                                for v in by_key.values())

    def ns(self, *names: str) -> float:
        return self._fold(self.durations, names)

    def count(self, name: str) -> float:
        """Mean of the span's work count over the ops that have it."""
        values = list(self.counts.get(name, {}).values())
        return statistics.fmean(values) if values else 0.0

    def names(self, prefix: str) -> List[str]:
        return [name for name in self.durations if name.startswith(prefix)]


# ---------------------------------------------------------------------


class Loopback:
    """A database behind a real ``Mserver`` inside this process, and one
    ``MClient`` connected to it: the wire path with every call in reach
    of the tracer."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.server = Mserver(database).start()
        self.client = MClient(port=self.server.port)

    def query(self, tracer: harness.Tracer, sql: str) -> MClient.Result:
        """One operation: the statement sent, answered and decoded."""
        with tracer.op():
            return self.client.query(sql)

    def close(self) -> None:
        self.client.close()
        self.server.stop()
        self.database.close()


def timed(function: Callable, *args) -> Tuple[int, Any]:
    began = time.perf_counter_ns()
    result = function(*args)
    return time.perf_counter_ns() - began, result


def median_ns(function: Callable, repeats: int) -> float:
    return statistics.median(timed(function)[0] for _ in range(repeats))


# ---------------------------------------------------------------------
# part one: the workload, in-process, untraced and traced rounds


class Replay:
    """In-process stand-in for one workload: ``rounds()`` yields lists
    of operations taking a tracer.  An operation checks its own result,
    outside its span, and records what is wrong in ``failures``."""

    patches: Callable[[], List[tuple]] = staticmethod(engine_patches)

    def __init__(self) -> None:
        self.failures: List[str] = []

    def warm_up(self, tracer: harness.Tracer) -> None:
        for operation in next(self.rounds(random.Random(0))):
            operation(tracer)

    def rounds(self, rng: random.Random):
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class WireReplay(Replay):
    def __init__(self, name: str, seed: int) -> None:
        super().__init__()
        self.name = name
        self.scale = wl.WORKLOADS[name].scale
        catalog = Catalog()
        populate(catalog, scale_factor=self.scale, seed=wl.DATA_SEED)
        self.wal_dir = None
        if name == "ingest_mixed":
            self.wal_dir = os.path.join(
                harness.OUT, f"wal_trace_{os.getpid()}_{seed}")
            shutil.rmtree(self.wal_dir, ignore_errors=True)
            os.makedirs(self.wal_dir)
            database = Database(
                catalog=catalog, workers=2, wal_dir=self.wal_dir,
                commit_window_ms=wl.COMMIT_WINDOW_MS,
                checkpoint_interval=wl.CHECKPOINT_INTERVAL)
            database.execute(wl.EVENTS_DDL)
            self.next_id = 0
        else:
            database = Database(catalog=catalog, workers=2)
        self.wire = Loopback(database)
        self.cache_before: Dict[str, int] = {}
        self.reference = wl.reference_database(self.scale)
        self.expected: Dict[str, list] = {}
        self.check_rng = random.Random(f"{name}.check:{seed}")

    def _statements(self, rng: random.Random) -> List[str]:
        if self.name in wl.SQL_ROUNDS:
            return wl.SQL_ROUNDS[self.name](rng)
        # ingest_mixed, one thread: each insert followed by one read
        statements = []
        for index in range(wl.INGEST_INSERTS_PER_ROUND):
            statements.append(wl.insert_statement(rng, self.next_id)[0])
            self.next_id += wl.INGEST_ROWS_PER_INSERT
            statements.append(query_sql(
                wl.INGEST_READS[index % len(wl.INGEST_READS)]))
        return statements

    def _check(self, sql: str, result: MClient.Result) -> None:
        """Against the same oracle as the wire run: every repeated
        statement, and one ad-hoc statement in sixteen."""
        rows = result.rows
        if result.kind == "insert":
            if result.affected != wl.INGEST_ROWS_PER_INSERT:
                self.failures.append(f"insert acked {result.affected}")
            return
        if self.name == "adhoc_small":
            if self.check_rng.randrange(wl.ADHOC_CHECK_ONE_IN):
                return
            want = self.reference.execute(sql).rows
        elif sql in self.expected:
            want = self.expected[sql]
        else:
            want = self.reference.execute(sql).rows
            if self.name == "wide_result":
                want = wl.wide_checksum(want)
            self.expected[sql] = want
        if self.name == "wide_result":
            right = wl.wide_checksum(rows) == want
        else:
            right = harness.rows_match(rows, want, harness.is_ordered(sql))
        if not right:
            self.failures.append(f"{sql[:60]!r}: rows differ")

    def _operation(self, sql: str) -> Callable:
        def operation(tracer: harness.Tracer) -> None:
            self._check(sql, self.wire.query(tracer, sql))
        return operation

    def rounds(self, rng: random.Random):
        while True:
            yield [self._operation(sql) for sql in self._statements(rng)]

    def warm_up(self, tracer: harness.Tracer) -> None:
        super().warm_up(tracer)
        self.cache_before = self.wire.database.plan_cache.stats()

    def counts(self) -> Dict[str, float]:
        after = self.wire.database.plan_cache.stats()
        delta = {key: after[key] - self.cache_before.get(key, 0)
                 for key in ("hits", "misses", "evictions")}
        lookups = delta["hits"] + delta["misses"]
        return {"plancache.hit_share": 100.0 * delta["hits"]
                / max(1, lookups),
                "plancache.evictions": float(delta["evictions"])}

    def close(self) -> None:
        self.wire.close()
        if self.wal_dir:
            shutil.rmtree(self.wal_dir, ignore_errors=True)


class ToolReplay(Replay):
    patches = staticmethod(tool_patches)

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.directory = os.path.join(
            harness.OUT, f"replay_trace_{os.getpid()}_{seed}")
        shutil.rmtree(self.directory, ignore_errors=True)
        self.files = replay.generate_files(self.directory)
        self.svg_path = os.path.join(self.directory, "display.svg")

    def _operation(self, entry: Dict[str, Any]) -> Callable:
        def operation(tracer: harness.Tracer) -> None:
            with tracer.op():
                session = replay.replay_op(entry["dot"], entry["trace"],
                                           self.svg_path)
            problem = replay.verify_replay(session, self.svg_path,
                                           entry["nodes"], strict=True)
            if problem:
                self.failures.append(f"{entry['name']}: {problem}")
        return operation

    def rounds(self, rng: random.Random):
        while True:
            yield [self._operation(self.files[index])
                   for index in replay.round_order(rng, len(self.files))]

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def replay_workload(name: str, seed: int, budget_s: float
                    ) -> Tuple[Dict[str, float], harness.Tracer, Replay]:
    """Alternate untraced and traced rounds for ``budget_s``; returns
    the workload-scoped metrics, the tracer and the (closed) replay."""
    source = ToolReplay(seed) if name == "steth_replay" \
        else WireReplay(name, seed)
    tracer = harness.Tracer()
    silent = harness.Tracer(enabled=False)
    overheads: List[float] = []
    speeds: List[float] = []
    try:
        source.warm_up(silent)
        untraced = source.rounds(random.Random(f"{name}.untraced:{seed}"))
        traced = source.rounds(random.Random(f"{name}:{seed}"))
        deadline = time.perf_counter() + budget_s
        before = harness.core_speed()
        while True:
            plain = sum(timed(operation, silent)[0]
                        for operation in next(untraced))
            between = harness.core_speed()
            with tracer.patched(source.patches()):
                spanned = sum(timed(operation, tracer)[0]
                              for operation in next(traced))
            after = harness.core_speed()
            # adjacent rounds of the same mix, each at reference speed
            overheads.append(spanned * (between + after)
                             / (plain * (before + between)) - 1.0)
            speeds.append((between + after) / 2)
            before = after
            if time.perf_counter() >= deadline:
                break
        values = source.counts()
    finally:
        source.close()

    spans = tracer.spans
    by_layer = layer_self_ns(spans)
    op_total = sum(span[4] - span[3] for span in spans if span[0] == "op")
    ops = tracer.op_id + 1
    table = SpanTable(spans, range(ops))
    for layer, own in by_layer.items():
        values[f"share.{layer}"] = 100.0 * own / op_total
    values.setdefault("plancache.hit_share", 0.0)
    values.setdefault("plancache.evictions", 0.0)
    values.update({
        "trace.op_ms": op_total / ops / 1e6 * statistics.median(speeds),
        "trace.overhead_share": 100.0 * statistics.median(overheads),
        "trace.spans_per_op": len(spans) / ops,
        "sqlfe.plan_instructions": table.count("sqlfe.compile"),
        "optimizer.instructions_out": table.count("optimizer.total"),
        "mal.instructions": table.count("mal.execute"),
        "protocol.result_bytes": table.count("protocol.encode_result"),
    })
    return values, tracer, source


# ---------------------------------------------------------------------
# part two: probes — each layer's public calls on fixed inputs

PROBE_SCALE = 2.0
PROBE_ROWS = 30_000


def probe_engine(repeats: int) -> Dict[str, float]:
    """server.protocol, server.database, sqlfe, mal.optimizer and mal on
    the 11 TPC-H statements at scale 2: cold (plan cache cleared before
    each statement) for the compile path, warm for the lookup."""
    database = Database(workers=2)
    populate(database.catalog, scale_factor=PROBE_SCALE, seed=wl.DATA_SEED)
    wire = Loopback(database)
    try:
        return _probe_engine(wire, repeats)
    finally:
        wire.close()


def _probe_engine(wire: Loopback, repeats: int) -> Dict[str, float]:
    database = wire.database
    statements = [(name, query_sql(name)) for name in wl.TPCH_QUERIES]
    tracer = harness.Tracer()
    keys: List[str] = []
    runs: list = []

    def keep_runs(execution) -> int:
        runs.extend(execution.runs)
        return len(execution.runs)

    with tracer.patched(engine_patches(keep_runs)):
        for _ in range(repeats):
            for name, sql in statements:
                database.plan_cache.clear()
                wire.query(tracer, sql)
                keys.append(name)
    modelled_usec = sum(run.usec for run in runs)
    rows_in = sum(run.rows_in for run in runs)
    table = SpanTable(tracer.spans, keys)
    out = {
        "protocol.encode_request_us": table.ns(
            "protocol.encode_request") / 1e3,
        "protocol.decode_request_us": table.ns(
            "protocol.decode_request") / 1e3,
        "stats.observe_us": table.ns(*table.names("stats.")) / 1e3,
        "sqlfe.parse_ms": table.ns("sqlfe.parse") / 1e6,
        "sqlfe.compile_ms": table.ns("sqlfe.compile") / 1e6,
        "optimizer.total_ms": table.ns("optimizer.total") / 1e6,
        "mal.execute_ms": table.ns("mal.execute") / 1e6,
    }
    for name in metrics.OPTIMIZER_PASSES:
        out[f"optimizer.pass.{name}_ms"] = table.ns(
            f"optimizer.pass.{name}") / 1e6
    kernel_names = table.names("mal.op.")
    groups = {module: [f"mal.op.{module}"]
              for module in metrics.MAL_MODULES[:-1]}
    groups["other"] = [name for name in kernel_names
                       if [name] not in groups.values()]
    for module, names in groups.items():
        out[f"mal.op.{module}_ms"] = table.ns(*names) / 1e6
    measured_ns = sum(sum(table.durations[name].values())
                      for name in kernel_names)
    execute_ns = sum(table.durations["mal.execute"].values())
    out["mal.model_ratio"] = modelled_usec / (measured_ns / 1e3)
    out["mal.ns_per_input_row"] = execute_ns / max(1, rows_in)

    # warm: every statement is in the plan cache now
    for _name, sql in statements:
        database.compile(sql)
    out["plancache.lookup_us"] = statistics.fmean(
        median_ns(lambda sql=sql: database.compile(sql), 5 * repeats)
        for _name, sql in statements) / 1e3

    # result encoding on one wide result (10.8k rows of 4 columns)
    wide = wl.WIDE_SQL.format(wl.WIDE_BANDS[2][1])
    wide_tracer = harness.Tracer()
    with wide_tracer.patched(engine_patches()):
        for _ in range(2 * repeats + 1):
            wire.query(wide_tracer, wide)
    wide_table = SpanTable(wide_tracer.spans,
                           ["wide"] * (wide_tracer.op_id + 1))
    out["protocol.encode_result_ms"] = wide_table.ns(
        "protocol.encode_result") / 1e6
    out["protocol.decode_result_ms"] = wide_table.ns(
        "protocol.decode_result") / 1e6
    return out


def probe_scaffolding(repeats: int) -> Dict[str, float]:
    """Executor cost per instruction where the kernels touch a few
    hundred rows: 100 random statements at scale 0.1."""
    database = Database(workers=2)
    populate(database.catalog, scale_factor=0.1, seed=wl.DATA_SEED)
    rng = random.Random("probe.scaffolding")
    programs = [database.compile(random_query(rng)) for _ in range(100)]
    samples = []
    for _ in range(repeats):
        began = time.perf_counter_ns()
        instructions = sum(len(database.run_program(program).runs)
                           for program in programs)
        samples.append((time.perf_counter_ns() - began) / instructions)
    return {"mal.us_per_instruction": statistics.median(samples) / 1e3}


def probe_server(repeats: int) -> Dict[str, float]:
    """Round trips against an in-process ``Mserver``: a ping, and a
    small query minus the same statement executed directly — socket,
    asyncio loop, admission queue and executor hand-off."""
    database = Database(workers=2)
    populate(database.catalog, scale_factor=0.1, seed=wl.DATA_SEED)
    sql = "select count(*) from nation"
    with Mserver(database) as server, \
            MClient(port=server.port) as client:
        client.query(sql)
        ping = median_ns(client.ping, 100 * repeats)
        over_wire = median_ns(lambda: client.query(sql), 100 * repeats)
    direct = median_ns(lambda: database.execute(sql), 100 * repeats)
    return {"server.ping_us": ping / 1e3,
            "server.residual_us": (over_wire - direct) / 1e3}


def probe_storage(repeats: int) -> Dict[str, float]:
    """Direct kernel calls on 30k-row BATs, as E9 does — reads, and the
    write use of the same layer."""
    rng = random.Random(7)
    measure = BAT(INT, [rng.randrange(0, 1000) for _ in range(PROBE_ROWS)])
    grouping = BAT(INT, [rng.randrange(0, 32) for _ in range(PROBE_ROWS)])
    keys = BAT(OID, list(range(0, PROBE_ROWS, 2)))
    hashed = BAT(INT, list(measure.tail), head=list(range(PROBE_ROWS)))
    groups = grouping.group()[0]
    rows = [[i, rng.randrange(100), rng.uniform(0, 100), f"label-{i % 97}"]
            for i in range(PROBE_ROWS)]

    def insert_many() -> None:
        Table("probe", [("a", INT), ("b", INT), ("c", DBL),
                        ("d", STR)]).insert_many(rows)

    calls = {
        "storage.select_scan_ms": lambda: measure.select(100, 899),
        "storage.select_indexed_ms": lambda: measure.select(100, 299),
        "storage.thetaselect_ms": lambda: measure.thetaselect(500, "<"),
        "storage.leftjoin_ms": lambda: keys.leftjoin(hashed),
        "storage.group_ms": grouping.group,
        "storage.aggr_ms":
            lambda: measure.grouped_aggregate(groups, 32, "sum"),
        "storage.sort_ms": measure.sort,
        "storage.insert_many_ms": insert_many,
    }
    out = {name: median_ns(call, 2 * repeats + 1) / 1e6
           for name, call in calls.items()}
    out["storage.bytes_per_value"] = measure.bytes() / len(measure)
    return out


def probe_durable(repeats: int) -> Dict[str, float]:
    """WAL commit, checkpoint, a read beside a checkpoint, recovery —
    ``ingest_mixed``'s flush policy on its scale-1 catalog."""
    wal_dir = os.path.join(harness.OUT, f"wal_probe_{os.getpid()}")
    shutil.rmtree(wal_dir, ignore_errors=True)
    os.makedirs(wal_dir)
    try:
        catalog = Catalog()
        populate(catalog, scale_factor=1.0, seed=wl.DATA_SEED)
        database = Database(catalog=catalog, workers=2, wal_dir=wal_dir,
                            commit_window_ms=wl.COMMIT_WINDOW_MS)
        try:
            database.execute(wl.EVENTS_DDL)
            rng = random.Random("probe.durable")
            inserts = 20 * repeats
            before = database.durability.wal.stats()
            commit = median_ns(
                lambda: database.execute(wl.insert_statement(rng, 0)[0]),
                inserts)
            after = database.durability.wal.stats()
            rows = inserts * wl.INGEST_ROWS_PER_INSERT
            reports = []
            checkpoint = median_ns(
                lambda: reports.append(database.checkpoint()), repeats)

            # a reader beside checkpoints: worst read minus typical read
            read = query_sql("q6")
            quiet = median_ns(lambda: database.execute(read), 5)
            stop = threading.Event()

            def checkpoints() -> None:
                while not stop.is_set():
                    database.checkpoint()

            worker = threading.Thread(target=checkpoints)
            worker.start()
            try:
                beside = max(timed(database.execute, read)[0]
                             for _ in range(5 * repeats))
            finally:
                stop.set()
                worker.join()
            # leave a WAL tail for recovery to replay
            for _ in range(inserts):
                database.execute(wl.insert_statement(rng, 0)[0])
        finally:
            database.close()
        recover_ns, recovered = timed(lambda: Database(wal_dir=wal_dir))
        recovered.close()
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    return {
        "durable.commit_ms": commit / 1e6,
        "durable.fsyncs_per_commit":
            (after["fsyncs"] - before["fsyncs"]) / inserts,
        "durable.wal_bytes_per_row":
            (after["written_bytes"] - before["written_bytes"]) / rows,
        "durable.checkpoint_ms": checkpoint / 1e6,
        "durable.checkpoint_bytes": float(reports[-1].bytes),
        "durable.read_stall_ms": max(0.0, beside - quiet) / 1e6,
        "durable.recover_ms": recover_ns / 1e6,
    }


def probe_profiler(repeats: int, directory: str) -> Dict[str, float]:
    """Execution with a ``Profiler`` listener against without: each
    statement warmed once untimed, then run as a pair whose order
    alternates, the overhead the median of the pairs' ratios; trace file
    write and read."""
    database = Database(workers=2)
    populate(database.catalog, scale_factor=PROBE_SCALE, seed=wl.DATA_SEED)
    statements = [query_sql(name) for name in wl.TPCH_QUERIES]
    for sql in statements:
        database.execute(sql)
    ratios: List[float] = []
    events = 0
    for repeat in range(repeats):
        for position, sql in enumerate(statements):
            profiler = Profiler()

            def plain() -> int:
                return timed(database.execute, sql)[0]

            def profiled() -> int:
                return timed(lambda: database.execute(
                    sql, listener=profiler))[0]

            if (repeat + position) % 2:
                profiled_ns, plain_ns = profiled(), plain()
            else:
                plain_ns, profiled_ns = plain(), profiled()
            ratios.append(profiled_ns / plain_ns)
            events += len(profiler.events)
    program = synthetic_plan(chains=replay.LARGE_CHAINS)
    trace = trace_for_program(program, workers=4, seed=11)
    path = os.path.join(directory, "probe.trace")
    return {
        "profiler.overhead_share":
            100.0 * (statistics.median(ratios) - 1.0),
        "profiler.events_per_query": events / len(ratios),
        "profiler.trace_write_ms":
            median_ns(lambda: write_trace(trace, path), repeats) / 1e6,
        "profiler.trace_read_ms":
            median_ns(lambda: list(iter_trace(path)), repeats) / 1e6,
    }


def probe_tool(repeats: int, directory: str) -> Dict[str, float]:
    """dot, layout, svg, core and viz on the 1004-node plan and on the
    median TPC-H plan (q3, 127 nodes)."""
    database = Database(workers=2)
    populate(database.catalog, scale_factor=replay.PROFILE_SCALE,
             seed=wl.DATA_SEED)
    profiler = Profiler()
    tpch_program = database.execute(query_sql("q3"),
                                    listener=profiler).program
    large_program = synthetic_plan(chains=replay.LARGE_CHAINS)
    plans = {
        "large": (large_program,
                  trace_for_program(large_program, workers=4, seed=11)),
        "tpch": (tpch_program, profiler.events),
    }
    out: Dict[str, float] = {}
    svg_path = os.path.join(directory, "probe.svg")
    for plan, (program, events) in plans.items():
        dot_path = os.path.join(directory, f"probe_{plan}.dot")
        trace_path = os.path.join(directory, f"probe_{plan}.trace")
        out[f"dot.write_ms.{plan}"] = median_ns(
            lambda: plan_to_dot(program), repeats) / 1e6
        with open(dot_path, "w") as handle:
            handle.write(plan_to_dot(program))
        write_trace(events, trace_path)
        tracer = harness.Tracer()
        with tracer.patched(tool_patches()):
            for _ in range(repeats):
                with tracer.op():
                    session = replay.replay_op(dot_path, trace_path,
                                               svg_path)
        table = SpanTable(tracer.spans, [plan] * repeats)
        out[f"dot.parse_ms.{plan}"] = table.ns("dot.parse") / 1e6
        out[f"layout.total_ms.{plan}"] = table.ns("layout.total") / 1e6
        for phase in metrics.LAYOUT_PHASES:
            out[f"layout.{phase}_ms.{plan}"] = table.ns(
                f"layout.{phase}") / 1e6
        out[f"layout.crossings.{plan}"] = table.count("layout.crossings")
        out[f"svg.write_ms.{plan}"] = table.ns("svg.write") / 1e6
        out[f"svg.parse_ms.{plan}"] = table.ns("svg.parse") / 1e6
        if plan != "large":
            continue
        out["core.mapping_ms"] = table.ns("core.mapping") / 1e6
        out["core.replay_events_per_s"] = len(events) / (
            table.ns("core.replay") / 1e9)
        out["core.coloring_ms"] = table.ns("core.coloring") / 1e6
        out["viz.space_ms"] = table.ns("viz.space") / 1e6
        out["viz.render_svg_ms"] = table.ns("viz.render_svg") / 1e6
        out["viz.render_ascii_ms"] = median_ns(
            session.render_ascii, repeats) / 1e6

        def analysis() -> None:
            session.birdseye()
            session.thread_utilization()
            session.costly_clusters()

        out["core.analysis_ms"] = median_ns(analysis, repeats) / 1e6
    return out


#: units of values that are a time, and of values that are per time
#: (``mal.model_ratio`` is modelled over measured microseconds)
TIME_UNITS = ("ms", "us", "ns")
PER_TIME_UNITS = ("1/s", "ratio")


def at_reference_speed(values: Dict[str, float], speed: float
                       ) -> Dict[str, float]:
    """``values`` measured on a core of ``speed``, as a core of speed 1
    would have measured them; shares and counts are left alone."""
    out = {}
    for name, value in values.items():
        if UNITS[name] in TIME_UNITS:
            value *= speed
        elif UNITS[name] in PER_TIME_UNITS:
            value /= speed
        out[name] = value
    return out


def run_probes(repeats: int) -> Dict[str, float]:
    directory = os.path.join(harness.OUT, f"probe_{os.getpid()}")
    os.makedirs(directory, exist_ok=True)
    probes = (probe_engine, probe_scaffolding, probe_server, probe_storage,
              probe_durable,
              lambda repeats: probe_profiler(repeats, directory),
              lambda repeats: probe_tool(repeats, directory))
    out: Dict[str, float] = {}
    try:
        before = harness.core_speed()
        for probe in probes:
            values = probe(repeats)
            after = harness.core_speed()
            out.update(at_reference_speed(values, (before + after) / 2))
            before = after
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return out


# ---------------------------------------------------------------------


def trace(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The ``--trace 1`` run of one workload: every per-layer metric."""
    os.makedirs(harness.OUT, exist_ok=True)
    values, tracer, source = replay_workload(name, seed, 0.4 * seconds)
    ops = tracer.op_id + 1
    span_count = len(tracer.spans)
    tracer.write(os.path.join(harness.OUT, f"spans_{name}.jsonl"))
    # a hundred thousand span records make every full collection slow:
    # drop them before the probes allocate
    tracer.spans.clear()
    gc.collect()
    values.update(run_probes(repeats=3 if seconds >= 5 else 1))
    missing = set(UNITS) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": 1,
        "correct": not source.failures,
        "attempted": ops,
        "failed": len(source.failures),
        "errors": source.failures[:5],
        "metrics": {metric: {"value": float(values[metric]), "unit": unit}
                    for metric, unit in UNITS.items()},
        "detail": {"samples": ops, "spans": span_count,
                   "spans_file": f"out/spans_{name}.jsonl"},
    }
