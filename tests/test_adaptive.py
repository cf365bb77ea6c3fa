"""Tests for the adaptive feedback loop: the runtime statistics store,
selectivity-ordered recompilation (``adaptive_order``), what the plan
cache observes, deadline rerouting, and adaptive order-index
management."""

import json
import os
import tempfile
import threading
import time
import zlib

import pytest

from repro.errors import StorageError
from repro.faults import FaultPlan, armed
from repro.metrics.families import (
    ADAPTIVE_DEADLINE_REROUTES,
    ADAPTIVE_INDEX_BUILDS,
    ADAPTIVE_INDEX_DROPS,
    ADAPTIVE_REORDERS,
    PLAN_CACHE_EVICTIONS,
)
from repro.server import Database, MClient, Mserver
from repro.server.database import normalize_sql
from repro.server.lifecycle import QueryContext
from repro.stats import StatsStore, program_signatures, select_signature
from repro.storage import INT, BAT
from repro.storage import bat as bat_module
from repro.tpch import populate, query_sql

FP = "sys.t=3"  # a scope: the tables a plan reads and their row counts


def _skewed_db(**kwargs):
    """A database over ``t(a, b)`` where the SQL predicate order is
    pessimal: ``a < 900`` passes ~90%, ``b = 7`` passes ~1%."""
    kwargs.setdefault("workers", 2)
    db = Database(**kwargs)
    db.execute("create table t (a int, b int)")
    table = db.catalog.table("t")
    table.insert_many([[i % 1000, i % 100] for i in range(3000)])
    return db


# ---------------------------------------------------------------------------
# statistics store
# ---------------------------------------------------------------------------


class TestStatsStore:
    def test_signatures_resolve_selects_to_columns(self):
        db = Database(workers=2)
        db.execute("create table t (a int, b int)")
        program = db.compile("select a from t where a < 5 and b = 7")
        signatures = set(program_signatures(program).values())
        assert any(s.startswith("algebra.") and "sys.t.a" in s
                   for s in signatures)
        assert any(s.startswith("algebra.") and "sys.t.b" in s
                   for s in signatures)

    def test_select_signature_format(self):
        from repro.mal.ast import Const

        assert select_signature("algebra.select", "sys.t.a",
                                [Const(5), Const(None)]) == \
            "algebra.select(sys.t.a;5,nil)"

    def test_only_selections_have_signatures(self):
        db = Database(workers=2)
        db.execute("create table t (a int, b int)")
        program = db.compile("select a from t where a < 5 and b = 7")
        signatures = program_signatures(program)
        assert signatures
        for pc, signature in signatures.items():
            assert program.instructions[pc].qualified_name in (
                "algebra.select", "algebra.thetaselect")
            assert signature.startswith(
                program.instructions[pc].qualified_name + "(sys.t.")

    def test_observe_program_folds_selection_runs_only(self):
        db = _skewed_db(plan_cache_size=0)
        outcome = db.execute("select a, b from t where a < 900 and b = 7")
        runs = outcome.execution.runs
        store = StatsStore()
        selections = program_signatures(outcome.program)
        ingested = store.observe_program(
            outcome.program, runs, outcome.program.reads.scope)
        assert ingested == sum(run.pc in selections for run in runs)
        assert 0 < ingested < len(runs)
        assert store.summary()["entries"] == len(set(selections.values()))
        for entry in store.top_entries():
            assert entry.keys() == {"key", "sel", "n"}
            assert 0.0 <= entry["sel"] <= 1.0

    def test_top_entries_rank_by_observations(self):
        db = _skewed_db(plan_cache_size=0)
        db.execute("select a, b from t where a < 900 and b = 7")
        db.execute("select a from t where a = 3")
        db.execute("select a from t where a = 3")
        ranked = [entry["n"] for entry in db.stats_store.top_entries()]
        assert ranked == sorted(ranked, reverse=True)
        assert "sys.t.a;3" in db.stats_store.top_entries(1)[0]["key"]

    def test_query_latency_is_ewma_smoothed(self):
        store = StatsStore()
        store.observe_query("q", "default_pipe", 2, 100.0, FP)
        store.observe_query("q", "default_pipe", 2, 200.0, FP)
        assert store.query_variants("q", 2, FP) == \
            {"default_pipe": pytest.approx(130.0)}

    def test_lru_eviction_is_bounded(self):
        store = StatsStore(capacity=8)  # query table caps at 8 // 4
        for i in range(3):
            store.observe_query(f"q{i}", "default_pipe", 2, 10.0, FP)
        assert store.summary()["query_entries"] == 2
        assert store.summary()["evictions"] == 1
        # oldest evicted, newest retained
        assert store.query_variants("q0", 2, FP) == {}
        assert store.query_variants("q2", 2, FP) == {"default_pipe": 10.0}

    def test_snapshot_roundtrip(self, tmp_path):
        store = StatsStore(capacity=32)
        store.observe_query("q", "default_pipe", 2, 42.0, FP)
        path = str(tmp_path / "stats.json")
        assert store.save(path) == 1
        reloaded = StatsStore.load(path)
        assert reloaded.snapshot() == store.snapshot()
        assert reloaded.query_variants("q", 2, FP) == {"default_pipe": 42.0}

    def test_corrupt_snapshot_raises_storage_error(self, tmp_path):
        store = StatsStore()
        store.observe_query("q", "default_pipe", 2, 42.0, FP)
        path = str(tmp_path / "stats.json")
        store.save(path)
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text.replace("42.0", "43.0", 1))  # body no longer
        with pytest.raises(StorageError):                # matches CRC
            StatsStore.load(path)

    def test_unsupported_version_raises(self, tmp_path):
        path = str(tmp_path / "stats.json")
        with open(path, "w") as f:
            f.write('{"version": 99}')
        with pytest.raises(StorageError):
            StatsStore.load(path)

    def test_choose_pipeline_prefers_feasible_cheapest(self):
        store = StatsStore()
        # nothing observed: stay on the default
        assert store.choose_pipeline("q", 2, FP, 1e6,
                                     "default_pipe") == \
            ("default_pipe", False)
        store.observe_query("q", "default_pipe", 2, 5_000_000.0, FP)
        store.observe_query("q", "sequential_pipe", 2, 1_000.0, FP)
        # default predicted to blow the deadline: reroute to cheapest
        assert store.choose_pipeline("q", 2, FP, 1_000_000.0,
                                     "default_pipe") == \
            ("sequential_pipe", True)
        # generous deadline: the default stays
        assert store.choose_pipeline("q", 2, FP, 1e9,
                                     "default_pipe") == \
            ("default_pipe", False)


# ---------------------------------------------------------------------------
# selectivity-ordered recompilation
# ---------------------------------------------------------------------------


def _plan_text(program):
    """Formatted plan with the per-compile program name normalized away
    (only the plan *shape* matters to these assertions)."""
    from repro.mal.printer import format_program

    short = program.name.split(".")[-1]
    return format_program(program).replace(program.name, "user.q") \
                                  .replace(short, "q")


class TestAdaptiveOrder:
    def test_warm_recompile_reorders_most_selective_first(self):
        before = ADAPTIVE_REORDERS.labels(outcome="reordered").value()
        db = _skewed_db(plan_cache_size=0)
        sql = "select a, b from t where a < 900 and b = 7"
        cold = db.execute(sql)
        warm = db.execute(sql)
        assert warm.rows == cold.rows
        cold_text = _plan_text(cold.program)
        warm_text = _plan_text(warm.program)
        assert warm_text != cold_text
        # cold follows syntax: the ~90%-pass a < 900 thetaselect runs
        # first; warm runs the ~1%-pass b = 7 select first
        assert cold_text.index("algebra.thetaselect") < \
            cold_text.index("algebra.select(")
        assert warm_text.index("algebra.select(") < \
            warm_text.index("algebra.thetaselect")
        assert ADAPTIVE_REORDERS.labels(
            outcome="reordered").value() == before + 1

    def test_what_was_learned_survives_writes_to_another_table(self):
        db = _skewed_db(plan_cache_size=0)
        db.execute("create table u (x int)")
        sql = "select a, b from t where a < 900 and b = 7"
        cold = db.execute(sql)
        warm = db.execute(sql)
        assert _plan_text(warm.program) != _plan_text(cold.program)
        scope = warm.program.reads.scope
        selections = {signature for signature  # one per mitosis part
                      in program_signatures(cold.program).values()
                      if "sys.t." in signature}
        assert len(selections) == 2
        for i in range(50):
            db.execute(f"insert into u values ({i})")
        for signature in selections:
            assert db.stats_store.selectivity(signature, scope) is not None
        again = db.compile(sql)
        assert again.reads.scope == scope
        assert _plan_text(again) == _plan_text(warm.program)
        # one row into t: nothing learned about the old t applies
        db.execute("insert into t values (5, 5)")
        after = db.compile(sql)
        assert after.reads.scope == "sys.t=3001"
        for signature in selections:
            assert db.stats_store.selectivity(
                signature, after.reads.scope) is None
        assert _plan_text(after) == _plan_text(cold.program)

    def test_static_pipe_restores_syntactic_plans(self):
        db = _skewed_db(plan_cache_size=0, pipeline_name="static_pipe")
        sql = "select a, b from t where a < 900 and b = 7"
        cold = db.execute(sql)
        warm = db.execute(sql)
        # warm compiles identically: no feedback enters static plans
        assert _plan_text(warm.program) == _plan_text(cold.program)
        assert warm.rows == cold.rows


# ---------------------------------------------------------------------------
# what the plan cache observes
# ---------------------------------------------------------------------------


class TestPlanCacheObserve:
    def test_a_stalled_run_does_not_evict_a_cached_plan(self):
        db = Database(workers=2, plan_cache_size=8)
        db.execute("create table t (a int, b int)")
        db.catalog.table("t").insert_many(
            [[i % 1000, i % 100] for i in range(2000)])
        sql = "select a, b from t where a < 5"
        expected = db.execute(sql).rows      # miss: compile, cache
        usual = db.execute(sql).execution.total_usec  # hit
        with armed(FaultPlan.from_spec("scheduler.worker:stall=5000#1")):
            stalled = db.execute(sql)        # hit, one worker stalls
        # the stall shows in the run's cost, and still evicts nothing
        assert stalled.execution.total_usec > 10 * usual
        cached_program = db.last_program
        assert db.execute(sql).rows == expected
        stats = db.plan_cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3
        assert stats["evictions"] == 0
        assert db.last_program is cached_program

    def test_plan_entry_diagnostics(self):
        db = _skewed_db(plan_cache_size=8)
        sql = "select a, b from t where a < 900 and b = 7"
        db.execute(sql)  # compiled on cold stats: re-planned next
        db.execute(sql)
        started = time.perf_counter_ns()
        db.execute(sql)
        wall_usec = (time.perf_counter_ns() - started) / 1000.0
        (entry,) = db.plan_cache.entries()
        assert entry["sql"] == normalize_sql(sql)
        assert entry["pipeline"] == "default_pipe"
        assert entry["workers"] == 2
        assert entry["tables"] == ["sys.t"]
        assert entry["hits"] == 1
        assert entry["age_s"] >= 0.0
        assert 0.0 < entry["last_usec"] <= wall_usec  # measured
        assert set(entry) == {"sql", "pipeline", "workers", "tables",
                              "hits", "age_s", "last_usec"}


# ---------------------------------------------------------------------------
# a cached plan compiled on cold statistics re-plans once (counts, no clock)
# ---------------------------------------------------------------------------

SKEWED = "select a, b from t where a < 900 and b = 7"


def _counted_compiles(db):
    """A list that grows by one statement per SQL compile on ``db``."""
    compiles = []
    compile_statement = db.compiler.compile

    def counted(statement):
        compiles.append(statement)
        return compile_statement(statement)
    db.compiler.compile = counted
    return compiles


def _tpch_db(**kwargs):
    db = Database(workers=2, **kwargs)
    populate(db.catalog, scale_factor=0.01, seed=3)
    return db


class TestReplanOnce:
    @pytest.mark.parametrize("source", ["q19", "skewed"])
    def test_five_executions_compile_twice(self, source):
        if source == "q19":
            db, sql = _tpch_db(), query_sql("q19")
        else:
            db, sql = _skewed_db(), SKEWED
        compiles = _counted_compiles(db)
        programs = [db.execute(sql).program for _ in range(5)]
        assert len(compiles) == 2
        assert programs[0] is not programs[1]
        assert all(program is programs[2] for program in programs[2:])
        stats = db.plan_cache.stats()
        # the re-plan is a miss, never an eviction
        assert (stats["misses"], stats["hits"], stats["evictions"]) \
            == (2, 3, 0)

    def test_the_replan_runs_the_selective_predicate_first(self):
        db = _skewed_db()
        cold = db.execute(SKEWED).program
        warm = db.execute(SKEWED).program
        cold_text, warm_text = _plan_text(cold), _plan_text(warm)
        assert cold_text.index("algebra.thetaselect") < \
            cold_text.index("algebra.select(")
        assert warm_text.index("algebra.select(") < \
            warm_text.index("algebra.thetaselect")

    def test_a_chain_still_unknown_after_its_replan_is_kept(self):
        db = _skewed_db()
        db.execute("create table e (a int, b int)")
        # no row in, so no selectivity is learned: the re-plan is as
        # cold as the first compile, and it is not marked again
        compiles = _counted_compiles(db)
        for _ in range(5):
            db.execute("select a, b from e where a < 900 and b = 7")
        assert len(compiles) == 2

    def test_a_query_with_no_chain_compiles_once(self):
        db = _skewed_db()
        compiles = _counted_compiles(db)
        for _ in range(5):
            db.execute("select a, b from t where b = 7")
        assert len(compiles) == 1

    def test_a_chain_whose_selectivities_are_known_compiles_once(self):
        db = _skewed_db()
        # the same selections run under another pipeline warm the store
        db.execute(SKEWED, pipeline_name="static_pipe")
        compiles = _counted_compiles(db)
        programs = [db.execute(SKEWED).program for _ in range(5)]
        assert len(compiles) == 1
        assert all(program is programs[0] for program in programs)

    def test_a_plan_compiled_but_never_run_is_not_replanned(self):
        db = _skewed_db()
        compiles = _counted_compiles(db)
        first = db.compile(SKEWED)
        assert db.compile(SKEWED) is first  # no run observed yet
        assert db.execute(SKEWED).program is first
        db.execute(SKEWED)
        assert len(compiles) == 2

    def test_racing_lookups_of_a_marked_entry_compile_once(self):
        db = _skewed_db()
        expected = db.execute(SKEWED).rows  # marked, and its run observed
        compiles = _counted_compiles(db)
        start = threading.Barrier(2)
        results, failures = [], []

        def run():
            try:
                start.wait(timeout=30)
                results.append(db.execute(SKEWED).rows)
            except BaseException as exc:  # reported below
                failures.append(exc)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert results == [expected, expected]
        assert len(compiles) == 1
        db.execute(SKEWED)
        assert len(compiles) == 1

    def test_an_insert_allows_at_most_one_more_replan(self):
        db = _skewed_db()
        compiles = _counted_compiles(db)
        for _ in range(3):
            db.execute(SKEWED)
        assert len(compiles) == 2
        db.execute("insert into t values (5, 7)")
        # the insert invalidates the plan, and stats are kept per row
        # count, so the recompile is cold again and re-plans once more
        programs = [db.execute(SKEWED).program for _ in range(5)]
        assert len(compiles) == 4
        assert all(program is programs[2] for program in programs[2:])

    @pytest.mark.parametrize("source", ["q19", "skewed"])
    def test_marked_and_replanned_rows_match_static_pipe(self, source):
        if source == "q19":
            static, adaptive = (_tpch_db(pipeline_name="static_pipe"),
                                _tpch_db())
            sql = query_sql("q19")
        else:
            static, adaptive = (_skewed_db(pipeline_name="static_pipe"),
                                _skewed_db())
            sql = SKEWED
        expected = static.execute(sql).rows
        marked = adaptive.execute(sql)
        replanned = adaptive.execute(sql)
        assert replanned.program is not marked.program
        assert marked.rows == expected
        assert replanned.rows == expected


# ---------------------------------------------------------------------------
# deadline rerouting
# ---------------------------------------------------------------------------


class TestDeadlineReroute:
    def test_infeasible_default_reroutes_to_cheapest_variant(self):
        before = ADAPTIVE_DEADLINE_REROUTES.value()
        db = _skewed_db(plan_cache_size=0)
        sql = "select a, b from t where a < 900 and b = 7"
        cold = db.execute(sql)
        expected, fp = cold.rows, cold.program.reads.scope
        nsql = normalize_sql(sql)
        # teach the store that the default variant blows a 1s deadline
        # while the sequential pipeline fits it comfortably
        db.stats_store.observe_query(nsql, "default_pipe", 2,
                                     5_000_000.0, fp)
        db.stats_store.observe_query(nsql, "sequential_pipe", 2,
                                     1_000.0, fp)
        context = QueryContext("q1", sql, deadline_s=1.0)
        outcome = db.execute(sql, context=context)
        assert outcome.rows == expected
        assert ADAPTIVE_DEADLINE_REROUTES.value() == before + 1

    def test_the_store_learns_measured_latency(self, monkeypatch):
        """What the reroute compares with a wall-clock deadline is the
        measured run time, never the modelled clock."""
        db = _skewed_db(plan_cache_size=8)
        # a model of one second per instruction
        monkeypatch.setattr(db.cost_model, "cost_usec",
                            lambda *args: 1_000_000)
        sql = "select a, b from t where a < 900 and b = 7"
        started = time.perf_counter_ns()
        outcome = db.execute(sql)
        wall_usec = (time.perf_counter_ns() - started) / 1000.0
        assert outcome.execution.total_usec >= 1_000_000
        variants = db.stats_store.query_variants(
            normalize_sql(sql), 2, outcome.program.reads.scope)
        assert 0.0 < variants["default_pipe"] <= wall_usec
        (entry,) = db.plan_cache.entries()
        assert 0.0 < entry["last_usec"] <= wall_usec

    def test_no_deadline_means_no_reroute(self):
        before = ADAPTIVE_DEADLINE_REROUTES.value()
        db = _skewed_db(plan_cache_size=0)
        db.execute("select a, b from t where a < 900 and b = 7")
        assert ADAPTIVE_DEADLINE_REROUTES.value() == before


# ---------------------------------------------------------------------------
# adaptive order-index management
# ---------------------------------------------------------------------------


class TestIndexPolicy:
    def test_the_policy_is_six_constants(self):
        assert (bat_module.ORDER_INDEX_MIN_ROWS,
                bat_module.ORDER_INDEX_SCAN_FALLBACK,
                bat_module.ORDER_INDEX_EAGER_MIN_ROWS,
                bat_module.ORDER_INDEX_EAGER_AFTER,
                bat_module.ORDER_INDEX_HIT_FLOOR,
                bat_module.ORDER_INDEX_WINDOW) == (512, 4, 128, 4, 0.1, 32)

    def test_second_select_builds_from_min_rows(self, monkeypatch):
        monkeypatch.setattr(bat_module, "ORDER_INDEX_MIN_ROWS", 16)
        bat = BAT(INT, list(range(32)))
        assert bat.select(3, 5).tail == [3, 4, 5]
        assert bat._order_cache is None      # one select: no reuse seen
        assert bat.select(3, 5).tail == [3, 4, 5]
        assert bat._order_cache is not None  # built on the second touch

    def test_eager_build_on_range_heavy_small_bat(self, monkeypatch):
        monkeypatch.setattr(bat_module, "ORDER_INDEX_EAGER_MIN_ROWS", 64)
        before = ADAPTIVE_INDEX_BUILDS.labels(trigger="eager").value()
        bat = BAT(INT, list(range(200)))  # below min_rows (512)
        for _ in range(3):
            bat.select(10, 12)
        assert bat._order_cache is None   # mix not yet range-heavy
        bat.select(10, 12)                # 4th range select: build
        assert bat._order_cache is not None
        assert ADAPTIVE_INDEX_BUILDS.labels(
            trigger="eager").value() == before + 1

    def test_tiny_bats_never_build_eagerly(self, monkeypatch):
        monkeypatch.setattr(bat_module, "ORDER_INDEX_EAGER_MIN_ROWS", 64)
        monkeypatch.setattr(bat_module, "ORDER_INDEX_EAGER_AFTER", 2)
        bat = BAT(INT, list(range(32)))   # below the eager floor
        for _ in range(8):
            bat.select(1, 3)
        assert bat._order_cache is None

    def test_low_hit_rate_drops_index(self, monkeypatch):
        monkeypatch.setattr(bat_module, "ORDER_INDEX_MIN_ROWS", 16)
        monkeypatch.setattr(bat_module, "ORDER_INDEX_WINDOW", 8)
        monkeypatch.setattr(bat_module, "ORDER_INDEX_HIT_FLOOR", 0.5)
        before = ADAPTIVE_INDEX_DROPS.value()
        bat = BAT(INT, list(range(1000)))
        # the first select scans without an index; from the second on,
        # wide runs (901 * 4 > 1000 rows) always fall back to the scan
        # kernel: a full window of misses drops the index
        for _ in range(1 + 8):
            assert len(bat.select(0, 900)) == 901
        assert bat._order_disabled
        assert bat._order_cache is None
        assert ADAPTIVE_INDEX_DROPS.value() == before + 1
        # still answers correctly (by scanning), and mutation re-arms
        assert bat.select(5, 7).tail == [5, 6, 7]
        bat.append(1000)
        assert not bat._order_disabled


# ---------------------------------------------------------------------------
# stats verb and CLI surfaces
# ---------------------------------------------------------------------------


#: a well-formed version-3 snapshot body, before its checksum trailer
_V3 = json.dumps({
    "version": 3, "capacity": 64, "observations": 3,
    "entries": {f"{FP}|algebra.select(sys.t.a;5)": {"sel": 0.5, "n": 2}},
    "queries": {f"{FP}|default_pipe|2|q": {"lat": 42.0, "n": 1}},
})


def _trailed(body):
    return body + f"\n#crc32={zlib.crc32(body.encode('utf-8')):08x}\n"



class TestSnapshotRestore:
    """CI runs this class by name ("Stats-store snapshot/restore
    smoke"): a WAL-backed Database restores its stats.json on reopen,
    every restored key is a selection signature, and a snapshot with no
    trailer, or a trailed one with ``"capacity": 0``, opens cold."""

    def test_snapshot_restores_and_malformed_opens_cold(self, tmp_path):
        workdir = str(tmp_path)
        db = Database(workers=2, wal_dir=workdir)
        db.execute("create table t (a int)")
        db.catalog.table("t").insert_many([[i] for i in range(64)])
        db.execute("select count(*) from t where a < 10")
        db.close()
        path = os.path.join(workdir, "stats.json")
        assert os.path.exists(path)
        warm = Database(workers=2, wal_dir=workdir)
        assert len(warm.stats_store) > 0, "snapshot did not restore"
        keys = [entry["key"] for entry in warm.stats_store.top_entries(100)]
        assert keys, "no selection signature restored"
        for key in keys:  # scope|algebra.<select kind>(column;consts)
            signature = key.split("|", 1)[1]
            assert signature.split("(", 1)[0] in (
                "algebra.select", "algebra.thetaselect",
                "algebra.likeselect"), key
            assert "(sys.t.a;" in signature, key
        warm.close()
        with open(path) as handle:
            text = handle.read()
        body = text[:text.rindex("\n#crc32=")]
        zero = body.replace('"capacity": 4096', '"capacity": 0')
        assert zero != body
        for bad in (body, _trailed(zero)):  # no trailer; capacity 0
            with open(path, "w") as handle:
                handle.write(bad)
            cold = Database(workers=2, wal_dir=workdir)
            assert len(cold.stats_store) == 0, "malformed snapshot loaded"
            cold.close()


class TestStatsSurfaces:
    def test_stats_verb_exposes_feedback_state(self):
        db = _skewed_db(plan_cache_size=8)
        with Mserver(db) as server:
            with MClient(port=server.port) as client:
                # the first plan is compiled on cold stats, the second
                # is its re-plan, the third run is a hit
                for _ in range(3):
                    client.query(
                        "select a, b from t where a < 900 and b = 7")
                payload = client.stats_payload()
        store = payload["stats_store"]
        assert store["observations"] > 0
        assert store["entries"] > 0
        assert payload["stats_top"], "hot signatures should be listed"
        (entry,) = payload["plan_entries"]
        assert entry["hits"] == 1
        assert "where a <" in entry["sql"]
        assert payload["plan_cache"]["evictions"] == 0

    def test_cli_stats_renders_snapshot(self, capsys):
        import io

        from repro.cli import main as cli_main

        store = StatsStore()
        store.observe_query("select 1", "default_pipe", 2, 42.0, FP)
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "stats.json")
            store.save(path)
            out = io.StringIO()
            assert cli_main(["stats", "--snapshot", path], out=out) == 0
        text = out.getvalue()
        assert "stats store:" in text
        assert "observations: 1" in text

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_cli_stats_refuses_a_top_below_one(self, top, tmp_path, capsys):
        from repro.cli import main as cli_main

        store = StatsStore()
        store.observe_query("select 1", "default_pipe", 2, 42.0, FP)
        path = str(tmp_path / "stats.json")
        store.save(path)
        with pytest.raises(SystemExit) as exited:
            cli_main(["stats", "--snapshot", path, "--top", top])
        assert exited.value.code == 2
        assert "--top" in capsys.readouterr().err

    def test_cli_stats_lists_the_most_observed_selections(self):
        import io

        from repro.cli import main as cli_main

        db = _skewed_db(plan_cache_size=0)
        db.execute("select a, b from t where a < 900 and b = 7")
        db.execute("select a from t where a = 3")
        db.execute("select a from t where a = 3")
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "stats.json")
            db.stats_store.save(path)
            out = io.StringIO()
            assert cli_main(["stats", "--snapshot", path, "--top", "1"],
                            out=out) == 0
        lines = out.getvalue().splitlines()
        heading = lines.index("most observed selections (n, selectivity):")
        (listed,) = [line for line in lines[heading + 1:]
                     if line.startswith("  ")]
        assert listed.split()[0] == "4"   # 2 runs x 2 mitosis partitions
        assert "sys.t.a;3" in listed

    def test_cli_stats_requires_target(self):
        import io

        from repro.cli import main as cli_main

        out = io.StringIO()
        assert cli_main(["stats"], out=out) == 2

    def test_persisted_stats_match_an_unchanged_table_on_reopen(self):
        sql = "select a, b from t where a < 900 and b = 7"
        with tempfile.TemporaryDirectory() as workdir:
            db = Database(workers=2, wal_dir=workdir, plan_cache_size=0)
            db.execute("create table t (a int, b int)")
            db.catalog.table("t").insert_many(
                [[i % 1000, i % 100] for i in range(3000)])
            db.checkpoint()
            cold = db.execute(sql)
            warm = db.execute(sql)
            assert _plan_text(warm.program) != _plan_text(cold.program)
            db.close()
            reopened = Database(workers=2, wal_dir=workdir,
                                plan_cache_size=0)
            try:
                first = reopened.compile(sql)
                assert first.reads.scope == warm.program.reads.scope
                assert _plan_text(first) == _plan_text(warm.program)
            finally:
                reopened.close()

    @pytest.mark.parametrize("content", [
        pytest.param('{"version": 2, "capacity": 0}', id="v2-capacity-0"),
        pytest.param('{"version": 2, "alpha": 5}', id="v2-alpha-5"),
        pytest.param('{"version": 2, "entries": {"k": {"n": "x"}}}',
                     id="v2-n-text"),
        pytest.param('{"version": 2, "entries": {"k": {"lat": null}}}',
                     id="v2-lat-null"),
        pytest.param(_V3, id="v3-no-trailer"),
        pytest.param(_trailed(_V3.replace('"capacity": 64',
                                          '"capacity": 0')),
                     id="v3-capacity-0"),
        pytest.param(_trailed(_V3.replace('"capacity": 64',
                                          '"capacity": "64"')),
                     id="v3-capacity-text"),
        pytest.param(_trailed(_V3.replace('"observations": 3',
                                          '"observations": -1')),
                     id="v3-observations-negative"),
        pytest.param(_trailed(_V3.replace('"n": 2', '"n": "x"')),
                     id="v3-n-text"),
        pytest.param(_trailed(_V3.replace('"sel": 0.5', '"sel": "x"')),
                     id="v3-sel-text"),
        pytest.param(_trailed(_V3.replace('"lat": 42.0', '"lat": null')),
                     id="v3-lat-null"),
        pytest.param(_trailed(_V3.replace('"lat": 42.0', '"lat": 1e999')),
                     id="v3-lat-infinite"),
        pytest.param(_trailed(_V3.replace('"queries": {', '"queries": [{')
                              .replace("}}}", "}}]}")),
                     id="v3-queries-list"),
        pytest.param(_trailed("[]"), id="v3-not-an-object"),
        pytest.param("\udcff", id="not-utf8"),
        pytest.param("", id="empty"),
    ])
    def test_a_malformed_snapshot_opens_cold(self, content, tmp_path):
        with open(tmp_path / "stats.json", "w", encoding="utf-8",
                  errors="surrogateescape") as handle:
            handle.write(content)
        db = Database(workers=2, wal_dir=str(tmp_path))
        try:
            assert len(db.stats_store) == 0
        finally:
            db.close()

    def test_the_well_formed_snapshot_of_those_cases_loads(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text(_trailed(_V3))
        store = StatsStore.load(str(path))
        assert store.summary() == {"entries": 1, "query_entries": 1,
                                   "capacity": 64, "observations": 3,
                                   "evictions": 0}
        assert store.selectivity("algebra.select(sys.t.a;5)", FP) == 0.5
        assert store.query_variants("q", 2, FP) == {"default_pipe": 42.0}

    def test_database_persists_stats_alongside_catalog(self):
        with tempfile.TemporaryDirectory() as workdir:
            db = Database(workers=2, wal_dir=workdir)
            db.execute("create table t (a int)")
            db.catalog.table("t").insert_many([[i] for i in range(10)])
            db.execute("select count(*) from t")
            db.close()
            assert os.path.exists(os.path.join(workdir, "stats.json"))
            reopened = Database(workers=2, wal_dir=workdir)
            assert len(reopened.stats_store) > 0
            reopened.close()
