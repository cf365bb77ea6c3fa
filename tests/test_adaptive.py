"""Tests for the adaptive feedback loop: the runtime statistics store,
selectivity-ordered recompilation (``adaptive_order``), plan-cache cost
drift, deadline rerouting, and adaptive order-index management."""

import os
import tempfile

import pytest

from repro.errors import StorageError
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
from repro.storage.bat import (
    IndexPolicy,
    configure_index_policy,
    index_policy,
)

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

    def test_query_latency_is_ewma_smoothed(self):
        store = StatsStore(alpha=0.3)
        store.observe_query("q", "default_pipe", 2, 100.0, FP)
        store.observe_query("q", "default_pipe", 2, 200.0, FP)
        assert store.query_latency("q", "default_pipe", 2, FP) == \
            pytest.approx(130.0)

    def test_lru_eviction_is_bounded(self):
        store = StatsStore(capacity=8)  # query table caps at 8 // 4
        for i in range(3):
            store.observe_query(f"q{i}", "default_pipe", 2, 10.0, FP)
        assert store.summary()["query_entries"] == 2
        assert store.summary()["evictions"] == 1
        # oldest evicted, newest retained
        assert store.query_latency("q0", "default_pipe", 2, FP) is None
        assert store.query_latency("q2", "default_pipe", 2, FP) == 10.0

    def test_snapshot_roundtrip(self, tmp_path):
        store = StatsStore(capacity=32, alpha=0.5)
        store.observe_query("q", "default_pipe", 2, 42.0, FP)
        path = str(tmp_path / "stats.json")
        assert store.save(path) == 1
        reloaded = StatsStore.load(path)
        assert reloaded.snapshot() == store.snapshot()
        assert reloaded.query_latency("q", "default_pipe", 2, FP) == 42.0

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
# plan-cache drift
# ---------------------------------------------------------------------------


class TestPlanCacheDrift:
    def test_skew_perturbation_evicts_and_recompiles(self):
        before = PLAN_CACHE_EVICTIONS.labels(reason="drift").value()
        db = Database(workers=2, plan_cache_size=8)
        db.execute("create table t (a int, b int)")
        table = db.catalog.table("t")
        table.insert_many([[i % 1000, i % 100] for i in range(2000)])
        sql = "select a, b from t where a < 5"
        db.execute(sql)          # miss: compile, cache
        db.execute(sql)          # hit: records the cost baseline
        assert db.plan_cache.stats()["drift_evictions"] == 0
        cached_program = db.last_program

        # perturb the skew *in place*: same row count, same plan key,
        # but the select now passes every row instead of ~0.5%
        bat = table.columns["a"].bat
        bat.tail[:] = [i % 5 for i in range(2000)]
        bat._invalidate_caches()

        db.execute(sql)          # hit, but observed cost drifts >= 2x
        stats = db.plan_cache.stats()
        assert stats["drift_evictions"] == 1
        assert stats["size"] == 0
        assert PLAN_CACHE_EVICTIONS.labels(
            reason="drift").value() == before + 1

        misses = stats["misses"]
        outcome = db.execute(sql)  # miss again: recompiled
        assert db.plan_cache.stats()["misses"] == misses + 1
        assert outcome.program is not cached_program

    def test_plan_entry_diagnostics(self):
        db = _skewed_db(plan_cache_size=8)
        sql = "select a, b from t where a < 900 and b = 7"
        db.execute(sql)
        db.execute(sql)
        (entry,) = db.plan_cache.entries()
        assert entry["sql"] == normalize_sql(sql)
        assert entry["pipeline"] == "default_pipe"
        assert entry["workers"] == 2
        assert entry["hits"] == 1
        assert entry["age_s"] >= 0.0
        assert entry["recorded_usec"] > 0
        assert entry["last_usec"] > 0
        assert entry["drift"] == pytest.approx(
            entry["last_usec"] / entry["recorded_usec"], abs=1e-3)


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

    def test_no_deadline_means_no_reroute(self):
        before = ADAPTIVE_DEADLINE_REROUTES.value()
        db = _skewed_db(plan_cache_size=0)
        db.execute("select a, b from t where a < 900 and b = 7")
        assert ADAPTIVE_DEADLINE_REROUTES.value() == before


# ---------------------------------------------------------------------------
# adaptive order-index management
# ---------------------------------------------------------------------------


@pytest.fixture
def restore_index_policy():
    previous = index_policy()
    yield
    configure_index_policy(previous)


class TestIndexPolicy:
    def test_configure_validates(self, restore_index_policy):
        with pytest.raises(ValueError):
            configure_index_policy(min_rows=0)
        with pytest.raises(ValueError):
            configure_index_policy(hit_floor=1.5)
        with pytest.raises(ValueError):
            configure_index_policy(IndexPolicy(), min_rows=64)
        installed = configure_index_policy(min_rows=64)
        assert index_policy() is installed
        assert index_policy().min_rows == 64

    def test_min_rows_is_configurable(self, restore_index_policy):
        configure_index_policy(min_rows=16)
        bat = BAT(INT, list(range(32)))
        assert bat.select(3, 5).tail == [3, 4, 5]
        assert bat._order_cache is None      # one select: no reuse seen
        assert bat.select(3, 5).tail == [3, 4, 5]
        assert bat._order_cache is not None  # built on the second touch

    def test_serve_flag_parses(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["serve", "--order-index-min-rows", "64"])
        assert args.order_index_min_rows == 64
        assert _build_parser().parse_args(
            ["serve"]).order_index_min_rows is None

    def test_eager_build_on_range_heavy_small_bat(
            self, restore_index_policy):
        configure_index_policy(adaptive_min_rows=64, eager_after=4)
        before = ADAPTIVE_INDEX_BUILDS.labels(trigger="eager").value()
        bat = BAT(INT, list(range(200)))  # below min_rows (512)
        for _ in range(3):
            bat.select(10, 12)
        assert bat._order_cache is None   # mix not yet range-heavy
        bat.select(10, 12)                # 4th range select: build
        assert bat._order_cache is not None
        assert ADAPTIVE_INDEX_BUILDS.labels(
            trigger="eager").value() == before + 1

    def test_tiny_bats_never_build_eagerly(self, restore_index_policy):
        configure_index_policy(adaptive_min_rows=64, eager_after=2)
        bat = BAT(INT, list(range(32)))   # below adaptive_min_rows
        for _ in range(8):
            bat.select(1, 3)
        assert bat._order_cache is None

    def test_low_hit_rate_drops_index(self, restore_index_policy):
        configure_index_policy(min_rows=16, window=8, hit_floor=0.5,
                               scan_fallback_num=4)
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

    def test_scan_fallback_zero_disables_fallback(
            self, restore_index_policy):
        configure_index_policy(min_rows=16, scan_fallback_num=0)
        bat = BAT(INT, list(range(1000)))
        assert len(bat.select(0, 900)) == 901    # first touch: plain scan
        assert bat._order_hits == bat._order_misses == 0
        assert len(bat.select(0, 900)) == 901    # second touch: indexed
        assert bat._order_misses == 0     # wide run answered as a hit
        assert bat._order_hits == 1


# ---------------------------------------------------------------------------
# stats verb and CLI surfaces
# ---------------------------------------------------------------------------


class TestStatsSurfaces:
    def test_stats_verb_exposes_feedback_state(self):
        db = _skewed_db(plan_cache_size=8)
        with Mserver(db) as server:
            with MClient(port=server.port) as client:
                client.query("select a, b from t where a < 900 and b = 7")
                client.query("select a, b from t where a < 900 and b = 7")
                payload = client.stats_payload()
        store = payload["stats_store"]
        assert store["observations"] > 0
        assert store["entries"] > 0
        assert payload["stats_top"], "hot signatures should be listed"
        (entry,) = payload["plan_entries"]
        assert entry["hits"] == 1
        assert "where a <" in entry["sql"]
        assert payload["plan_cache"]["drift_evictions"] == 0

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
