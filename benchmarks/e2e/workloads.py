"""The five workloads: seeded input generators and the closed loops
that drive the process under test.

Every workload is a sequence of *rounds*; a round is a fixed mix of
operations (each TPC-H query once, 250 ad-hoc statements, ...), so a run
that fits more rounds into its window has done more of the same work,
never different work.  The program under test only ever sees generated
SQL text or files; the workload seed stays on this side.
"""

from __future__ import annotations

import datetime
import math
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.server import Database, MClient
from repro.tpch import populate, query_sql
from repro.workloads import random_query

import harness
import replay

DATA_SEED = 3

#: The timed TPC-H mix.  ``q14`` is left out: it raises ``MalRuntimeError
#: ... batcalc.ifthenelse: cannot cast ... to int`` on this data, and a
#: workload must not contain an operation that fails.
TPCH_QUERIES = ("demo", "q1", "q3", "q4", "q5", "q6", "q10", "q12", "q17",
                "q18", "q19")


@dataclass
class Round:
    """What one round measured."""

    latencies_ns: List[int]      # the user-visible operations, and
    labels: List[str]            # what each one was (query, file)
    completed: int               # correct operations of any kind
    busy_ns: int                 # time the loop had work in flight
    writes_ns: List[int] = field(default_factory=list)  # INSERT acks
    rows: int = 0                # result rows decoded at the client
    #: speed of the core under test beside this round (measure.py)
    speed: float = 1.0


@dataclass
class Workload:
    """Common state; subclasses fill in the five hooks."""

    seed: int
    name: str = ""
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    child: Optional[harness.Child] = None
    #: harness-side cost of computing the expected results, seconds
    reference_s: float = 0.0

    def prepare(self) -> None:
        """Untimed, once: expected results for the checks."""

    def setup(self) -> None:
        """Timed as ``setup_s``: start the process under test, warm up."""
        raise NotImplementedError

    def teardown(self) -> None:
        if self.child is not None:
            self.child.stop()
            self.child = None

    def run_round(self) -> Round:
        raise NotImplementedError

    def finish(self) -> Dict[str, Any]:
        """After the window: deferred checks, extra numbers to report."""
        return {}

    def config(self) -> Dict[str, Any]:
        return {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


# ---------------------------------------------------------------------
# wire workloads: engine in a child process, driven through MClient


def reference_database(scale: float) -> Database:
    """An identically seeded catalog run by the plain interpreter under
    ``sequential_pipe`` — the in-process oracle for wire results."""
    database = Database(workers=1, pipeline_name="sequential_pipe")
    populate(database.catalog, scale_factor=scale, seed=DATA_SEED)
    return database


@dataclass
class WireWorkload(Workload):
    scale: float = 1.0
    client: Optional[MClient] = None

    def server_args(self) -> List[Any]:
        return ["--scale", self.scale, "--data-seed", DATA_SEED]

    def setup(self) -> None:
        self.child = harness.Child("server_proc.py", *self.server_args())
        self.client = MClient(port=self.child.ready["port"])
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        super().teardown()

    def timed_query(self, client: MClient, sql: str
                    ) -> Tuple[int, Optional[MClient.Result]]:
        """One statement over the wire, client decode included.  An
        error is a failed operation and yields no result."""
        self.attempted += 1
        began = time.perf_counter_ns()
        try:
            result = client.query(sql)
        except ReproError as exc:
            self.fail(f"{sql[:60]!r}: {exc}")
            return time.perf_counter_ns() - began, None
        return time.perf_counter_ns() - began, result

    def config(self) -> Dict[str, Any]:
        return {"scale": self.scale, "data_seed": DATA_SEED,
                "connections": 1}


def tpch_round(rng: random.Random) -> List[str]:
    names = list(TPCH_QUERIES)
    rng.shuffle(names)
    return names


@dataclass
class TpchScan(WireWorkload):
    name: str = "tpch_scan"
    scale: float = 2.0

    def __post_init__(self) -> None:
        self.rng = random.Random(f"tpch_scan:{self.seed}")
        self.expected: Dict[str, list] = {}

    def prepare(self) -> None:
        reference = reference_database(self.scale)
        self.expected = {name: reference.execute(query_sql(name)).rows
                         for name in TPCH_QUERIES}

    def _run(self, names: Sequence[str]) -> Round:
        latencies: List[int] = []
        labels: List[str] = []
        for name in names:
            sql = query_sql(name)
            elapsed, result = self.timed_query(self.client, sql)
            if result is None:
                continue
            if not harness.rows_match(result.rows, self.expected[name],
                                      harness.is_ordered(sql)):
                self.fail(f"{name}: rows differ from the reference")
                continue
            latencies.append(elapsed)
            labels.append(name)
        return Round(latencies, labels, len(latencies), sum(latencies))

    def warm_up(self) -> None:
        self._run(TPCH_QUERIES)

    def run_round(self) -> Round:
        return self._run(tpch_round(self.rng))

    def finish(self) -> Dict[str, Any]:
        # the known q14 defect, recorded but never timed
        try:
            self.client.query(query_sql("q14"))
            q14 = "pass"
        except ReproError as exc:
            q14 = f"fail: {exc}"
        return {f"known_issue.q14_scale{self.scale:g}": q14}


ADHOC_ROUND = 250
ADHOC_CHECK_ONE_IN = 16


def adhoc_round(rng: random.Random) -> List[str]:
    """80 % random aggregates, 20 % TPC-H texts: far more distinct
    statements than the plan cache holds."""
    return [random_query(rng) if rng.random() < 0.8
            else query_sql(rng.choice(TPCH_QUERIES))
            for _ in range(ADHOC_ROUND)]


TPCH_TEXTS = frozenset(query_sql(name) for name in TPCH_QUERIES)


@dataclass
class AdhocSmall(WireWorkload):
    name: str = "adhoc_small"
    scale: float = 0.1

    def __post_init__(self) -> None:
        self.rng = random.Random(f"adhoc_small:{self.seed}")
        self.check_rng = random.Random(f"adhoc_small.check:{self.seed}")
        self.sampled: List[Tuple[str, list]] = []
        self.distinct: set = set()

    def _run(self, statements: Sequence[str], record: bool) -> Round:
        latencies: List[int] = []
        labels: List[str] = []
        for sql in statements:
            elapsed, result = self.timed_query(self.client, sql)
            if result is None:
                continue
            latencies.append(elapsed)
            labels.append("tpch" if sql in TPCH_TEXTS else "random")
            if record:
                self.distinct.add(sql)
                if self.check_rng.randrange(ADHOC_CHECK_ONE_IN) == 0:
                    self.sampled.append((sql, result.rows))
        return Round(latencies, labels, len(latencies), sum(latencies))

    def warm_up(self) -> None:
        self._run(adhoc_round(random.Random(f"adhoc_small.warm:{self.seed}")),
                  record=False)

    def run_round(self) -> Round:
        return self._run(adhoc_round(self.rng), record=True)

    def finish(self) -> Dict[str, Any]:
        began = time.perf_counter()
        reference = reference_database(self.scale)
        for sql, rows in self.sampled:
            if not harness.rows_match(rows, reference.execute(sql).rows,
                                      harness.is_ordered(sql)):
                self.fail(f"{sql[:60]!r}: rows differ from the reference")
        self.reference_s = time.perf_counter() - began
        cache = self.client.stats_payload()["plan_cache"]
        lookups = cache["hits"] + cache["misses"]
        return {"checked_statements": len(self.sampled),
                "distinct_statements": len(self.distinct),
                "plancache.hit_share": cache["hits"] / max(1, lookups),
                "plancache.evictions": cache["evictions"]}


#: l_quantity is uniform on 1..50, so these thresholds return about
#: 10 %, 34 % and 90 % of lineitem.
WIDE_BANDS = ((44, 45, 46), (32, 33, 34), (4, 5, 6))
WIDE_SQL = ("select l_orderkey, l_quantity, l_extendedprice, l_shipdate "
            "from lineitem where l_quantity > {}")


def wide_round(rng: random.Random) -> List[str]:
    """Every threshold of every band once, in seeded order: the same
    rows cross the wire in every round of every seed."""
    statements = [WIDE_SQL.format(threshold)
                  for band in WIDE_BANDS for threshold in band]
    rng.shuffle(statements)
    return statements


def wide_checksum(rows: Sequence[tuple]) -> tuple:
    """Row count plus exact, order-independent column sums."""
    return (len(rows), sum(r[0] for r in rows),
            math.fsum(r[1] for r in rows), math.fsum(r[2] for r in rows),
            sum(r[3].toordinal() for r in rows))


@dataclass
class WideResult(WireWorkload):
    name: str = "wide_result"
    scale: float = 2.0

    def __post_init__(self) -> None:
        self.rng = random.Random(f"wide_result:{self.seed}")
        self.expected: Dict[str, tuple] = {}

    def prepare(self) -> None:
        reference = reference_database(self.scale)
        for band in WIDE_BANDS:
            for threshold in band:
                sql = WIDE_SQL.format(threshold)
                self.expected[sql] = wide_checksum(
                    reference.execute(sql).rows)

    def _run(self, statements: Sequence[str]) -> Round:
        latencies: List[int] = []
        labels: List[str] = []
        rows = 0
        for sql in statements:
            elapsed, result = self.timed_query(self.client, sql)
            if result is None:
                continue
            if wide_checksum(result.rows) != self.expected[sql]:
                self.fail(f"{sql[-20:]!r}: checksum differs")
                continue
            latencies.append(elapsed)
            labels.append(f"{len(result.rows)}_rows")
            rows += len(result.rows)
        return Round(latencies, labels, len(latencies), sum(latencies),
                     rows=rows)

    def warm_up(self) -> None:
        self._run([WIDE_SQL.format(t) for band in WIDE_BANDS for t in band])

    def run_round(self) -> Round:
        return self._run(wide_round(self.rng))


EVENTS_DDL = ("create table events (id integer, sensor integer, "
              "reading double, label varchar(16), seen date)")
INGEST_READS = ("q6", "q12", "q17")
INGEST_ROWS_PER_INSERT = 8
INGEST_INSERTS_PER_ROUND = 24
COMMIT_WINDOW_MS = 2.0
#: ~43 inserts/s beside the reads, so a 15 s window checkpoints >= 10 times
CHECKPOINT_INTERVAL = 48


def insert_statement(rng: random.Random, first_id: int
                     ) -> Tuple[str, int]:
    """One eight-row INSERT and the bytes of the values it carries."""
    rows, user_bytes = [], 0
    for offset in range(INGEST_ROWS_PER_INSERT):
        label = f"sensor-{rng.randrange(10_000)}"
        seen = datetime.date(1995, 1, 1) + datetime.timedelta(
            days=rng.randrange(365))
        rows.append(f"({first_id + offset}, {rng.randrange(100)}, "
                    f"{rng.uniform(0, 100):.3f}, '{label}', '{seen}')")
        user_bytes += 4 + 4 + 8 + len(label) + 4
    return "insert into events values " + ", ".join(rows), user_bytes


@dataclass
class IngestMixed(WireWorkload):
    name: str = "ingest_mixed"
    scale: float = 1.0
    reader: Optional[MClient] = None

    def __post_init__(self) -> None:
        self.rng = random.Random(f"ingest_mixed:{self.seed}")
        self.expected: Dict[str, list] = {}
        self.wal_dir = os.path.join(
            harness.OUT, f"wal_{os.getpid()}_{self.seed}")
        self.acked_ids: List[int] = []
        self.user_bytes = 0
        self.next_id = 0
        self.read_cursor = 0
        self.baseline_bytes = 0

    def prepare(self) -> None:
        reference = reference_database(self.scale)
        self.expected = {name: reference.execute(query_sql(name)).rows
                         for name in INGEST_READS}

    def server_args(self) -> List[Any]:
        return super().server_args() + [
            "--wal-dir", self.wal_dir,
            "--commit-window-ms", COMMIT_WINDOW_MS,
            "--checkpoint-interval", CHECKPOINT_INTERVAL]

    def setup(self) -> None:
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        os.makedirs(self.wal_dir)
        self.acked_ids, self.next_id, self.user_bytes = [], 0, 0
        self.child = harness.Child("server_proc.py", *self.server_args())
        port = self.child.ready["port"]
        self.client = MClient(port=port)
        self.reader = MClient(port=port)
        self.client.query(EVENTS_DDL)
        self._run(4)
        # growth is measured from here: warm-up bytes are in the baseline
        self.user_bytes = 0
        self.baseline_bytes = harness.directory_bytes(self.wal_dir)

    def teardown(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        super().teardown()
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    def _write(self, statements: Sequence[str], outcomes: list,
               done: threading.Event) -> None:
        """Connection A's thread: touches nothing shared but its own
        client; the main thread does the accounting after the join."""
        try:
            for sql in statements:
                began = time.perf_counter_ns()
                try:
                    affected = self.client.query(sql).affected
                except ReproError as exc:
                    affected = str(exc)
                outcomes.append((time.perf_counter_ns() - began, affected))
        finally:
            done.set()

    def _run(self, inserts: int) -> Round:
        """Connection A inserts back-to-back; connection B reads the
        static TPC-H tables until A has finished."""
        batch = []
        for _ in range(inserts):
            sql, user_bytes = insert_statement(self.rng, self.next_id)
            batch.append((sql, self.next_id, user_bytes))
            self.next_id += INGEST_ROWS_PER_INSERT
        outcomes: List[tuple] = []
        done = threading.Event()
        writer = threading.Thread(
            target=self._write,
            args=([sql for sql, _id, _bytes in batch], outcomes, done))
        began = time.perf_counter_ns()
        writer.start()
        latencies: List[int] = []
        labels: List[str] = []
        while not done.is_set():
            name = INGEST_READS[self.read_cursor % len(INGEST_READS)]
            self.read_cursor += 1
            elapsed, result = self.timed_query(self.reader, query_sql(name))
            if result is None:
                continue
            if not harness.rows_match(result.rows, self.expected[name],
                                      ordered=True):
                self.fail(f"{name}: rows differ from the reference")
                continue
            latencies.append(elapsed)
            labels.append(name)
        writer.join()
        busy = time.perf_counter_ns() - began
        writes: List[int] = []
        self.attempted += len(batch)
        for (sql, first_id, user_bytes), (elapsed, affected) in zip(
                batch, outcomes):
            if affected != INGEST_ROWS_PER_INSERT:
                self.fail(f"insert of id {first_id}: {affected}")
                continue
            writes.append(elapsed)
            self.acked_ids.extend(
                range(first_id, first_id + INGEST_ROWS_PER_INSERT))
            self.user_bytes += user_bytes
        return Round(latencies, labels, len(latencies) + len(writes), busy,
                     writes_ns=writes)

    def run_round(self) -> Round:
        return self._run(INGEST_INSERTS_PER_ROUND)

    def finish(self) -> Dict[str, Any]:
        cache = self.reader.stats_payload()["plan_cache"]
        stored = harness.directory_bytes(self.wal_dir) - self.baseline_bytes
        checkpoints = sorted(name for name in os.listdir(self.wal_dir)
                             if name.startswith("checkpoint-"))
        # crash, then recover from only what the directory holds
        self.client.close()
        self.reader.close()
        self.child.kill()
        began = time.perf_counter()
        recovered = Database(wal_dir=self.wal_dir)
        recover_s = time.perf_counter() - began
        try:
            present = set(recovered.catalog.table("events")
                          .column("id").bat.tail)
        finally:
            recovered.close()
        lost = [i for i in self.acked_ids if i not in present]
        if lost:
            # every insert with a lost row is a failed operation
            self.failed += len({i // INGEST_ROWS_PER_INSERT for i in lost})
            self.errors.append(f"{len(lost)} acked rows not recovered")
        lookups = cache["hits"] + cache["misses"]
        return {
            "stored_bytes_per_user_byte": stored / max(1, self.user_bytes),
            "acked_rows": len(self.acked_ids),
            "recovered_rows": len(present),
            "recover_s": recover_s,
            "last_checkpoint": checkpoints[-1] if checkpoints else "",
            "plancache.hit_share": cache["hits"] / max(1, lookups),
            "plancache.evictions": cache["evictions"],
        }

    def config(self) -> Dict[str, Any]:
        return {"scale": self.scale, "data_seed": DATA_SEED,
                "connections": 2, "fsync": True,
                "commit_window_ms": COMMIT_WINDOW_MS,
                "checkpoint_interval": CHECKPOINT_INTERVAL,
                "rows_per_insert": INGEST_ROWS_PER_INSERT}


# ---------------------------------------------------------------------
# the tool itself


@dataclass
class StethReplay(Workload):
    name: str = "steth_replay"

    def __post_init__(self) -> None:
        self.rng = random.Random(f"steth_replay:{self.seed}")
        self.directory = os.path.join(
            harness.OUT, f"replay_{os.getpid()}_{self.seed}")
        self.files: List[Dict[str, Any]] = []

    def setup(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)
        self.child = harness.Child("replay_proc.py", "--dir",
                                   self.directory)
        self.files = self.child.ready["files"]
        self._run(list(range(len(self.files))), strict=True)

    def teardown(self) -> None:
        super().teardown()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _run(self, order: List[int], strict: bool) -> Round:
        self.attempted += len(order)
        # the warm-up round re-parses every display; timed rounds count
        answer = self.child.request({"order": order, "strict": strict})
        for failure in answer["failures"]:
            self.fail(failure)
        latencies = answer["lat_ns"]
        return Round(latencies,
                     [self.files[index]["name"] for index in order],
                     len(latencies) - len(answer["failures"]),
                     sum(latencies))

    def run_round(self) -> Round:
        return self._run(replay.round_order(self.rng, len(self.files)),
                         strict=False)

    def config(self) -> Dict[str, Any]:
        return {"profile_scale": replay.PROFILE_SCALE,
                "files": [(f["name"], f["nodes"]) for f in self.files]}


WORKLOADS = {cls.name: cls for cls in
             (TpchScan, AdhocSmall, WideResult, IngestMixed, StethReplay)}


#: the statement rounds that are a function of the rng alone
SQL_ROUNDS = {
    "tpch_scan": lambda rng: [query_sql(name) for name in tpch_round(rng)],
    "adhoc_small": adhoc_round,
    "wide_result": wide_round,
}


def generated_inputs(name: str, seed: int, rounds: int) -> List[Any]:
    """The first ``rounds`` rounds of ``name``'s input, as the loops
    above generate them — what the determinism self-test compares."""
    rng = random.Random(f"{name}:{seed}")
    if name in SQL_ROUNDS:
        return [SQL_ROUNDS[name](rng) for _ in range(rounds)]
    if name == "ingest_mixed":
        return [insert_statement(rng, i * INGEST_ROWS_PER_INSERT)[0]
                for i in range(rounds)]
    if name == "steth_replay":
        return [replay.round_order(rng, replay.FILE_COUNT)
                for _ in range(rounds)]
    raise KeyError(name)
