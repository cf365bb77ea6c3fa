"""Tests for the TPC-H substrate: schema, datagen determinism, and that
every query in the set compiles and executes under every pipeline."""

import pytest

from repro.mal import Interpreter
from repro.mal.dataflow import SimulatedScheduler
from repro.mal.optimizer import default_pipe, sequential_pipe
from repro.sqlfe import compile_sql
from repro.storage import Catalog
from repro.tpch import QUERIES, create_tpch_schema, populate, query_sql


@pytest.fixture(scope="module")
def tpch_catalog():
    cat = Catalog()
    populate(cat, scale_factor=0.05, seed=7)
    return cat


class TestSchema:
    def test_all_tables_created(self):
        cat = Catalog()
        create_tpch_schema(cat)
        for table in ("region", "nation", "supplier", "customer", "part",
                      "partsupp", "orders", "lineitem"):
            assert cat.table(table) is not None

    def test_lineitem_has_16_columns(self):
        cat = Catalog()
        create_tpch_schema(cat)
        assert len(cat.table("lineitem").column_names()) == 16


class TestDatagen:
    def test_counts_scale(self):
        cat = Catalog()
        counts = populate(cat, scale_factor=0.05, seed=7)
        assert counts["lineitem"] == pytest.approx(300, abs=5)
        assert counts["region"] == 5
        assert counts["nation"] == 25

    def test_deterministic(self):
        a, b = Catalog(), Catalog()
        populate(a, scale_factor=0.02, seed=42)
        populate(b, scale_factor=0.02, seed=42)
        for table in ("orders", "lineitem", "customer"):
            assert list(a.table(table).rows()) == list(b.table(table).rows())

    def test_seed_changes_data(self):
        a, b = Catalog(), Catalog()
        populate(a, scale_factor=0.02, seed=1)
        populate(b, scale_factor=0.02, seed=2)
        assert list(a.table("lineitem").rows()) != list(b.table("lineitem").rows())

    def test_foreign_keys_resolve(self, tpch_catalog):
        customers = {
            r[0] for r in tpch_catalog.table("customer").rows()
        }
        for row in tpch_catalog.table("orders").rows():
            assert row[1] in customers

    def test_totalprice_patched_from_lineitems(self, tpch_catalog):
        totals = tpch_catalog.table("orders").column("o_totalprice").bat.tail
        assert any(t > 0 for t in totals)

    def test_returnflag_distribution(self, tpch_catalog):
        flags = set(
            tpch_catalog.table("lineitem").column("l_returnflag").bat.tail
        )
        assert flags <= {"R", "A", "N"}
        assert "N" in flags


class TestQueries:
    def test_query_sql_lookup(self):
        assert "l_tax" in query_sql("demo")
        with pytest.raises(Exception):
            query_sql("q99")

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_compiles_and_runs(self, tpch_catalog, name):
        program = compile_sql(tpch_catalog, query_sql(name))
        result = Interpreter(tpch_catalog).run(program)
        assert result.first is not None

    @pytest.mark.parametrize("nparts", [2, 4, 8])
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_pipelines_agree(self, tpch_catalog, name, nparts):
        sql = query_sql(name)
        base = Interpreter(tpch_catalog).run(
            compile_sql(tpch_catalog, sql)
        ).rows()
        seq = sequential_pipe().apply(compile_sql(tpch_catalog, sql))
        assert Interpreter(tpch_catalog).run(seq).rows() == base
        par = default_pipe(nparts=nparts, mitosis_threshold=50).apply(
            compile_sql(tpch_catalog, sql)
        )
        assert SimulatedScheduler(
            tpch_catalog, workers=nparts).run(par).rows() == base

    def test_q1_groups_by_flag_status(self, tpch_catalog):
        result = Interpreter(tpch_catalog).run(
            compile_sql(tpch_catalog, query_sql("q1"))
        )
        rows = result.rows()
        keys = [(r[0], r[1]) for r in rows]
        assert keys == sorted(keys)
        assert all(len(r) == 10 for r in rows)

    def test_q6_single_value(self, tpch_catalog):
        rows = Interpreter(tpch_catalog).run(
            compile_sql(tpch_catalog, query_sql("q6"))
        ).rows()
        assert len(rows) == 1

    def test_q3_limit_respected(self, tpch_catalog):
        rows = Interpreter(tpch_catalog).run(
            compile_sql(tpch_catalog, query_sql("q3"))
        ).rows()
        assert len(rows) <= 10
        revenues = [r[1] for r in rows]
        assert revenues == sorted(revenues, reverse=True)

    @pytest.mark.parametrize("scale", [0.1, 2])
    def test_q14_is_dbl_whichever_branch_row_zero_takes(self, scale):
        """``case when ... then <dbl expr> else 0 end`` used to be typed
        from its first picked value: ``int`` whenever row 0 took the
        ``else``, and then no later price could be cast."""
        cat = Catalog()
        populate(cat, scale_factor=scale, seed=3)
        rows = Interpreter(cat).run(
            compile_sql(cat, query_sql("q14"))
        ).rows()
        assert len(rows) == 1
        assert isinstance(rows[0][0], float)
        assert 0.0 <= rows[0][0] <= 100.0
