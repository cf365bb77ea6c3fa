"""End-to-end tests: SQL text → MAL plan → interpreter → result rows."""

import calendar
import datetime

import pytest

from repro.errors import BindError, ReproError, SqlError
from repro.mal import Interpreter
from repro.mal.optimizer import default_pipe, sequential_pipe
from repro.mal.dataflow import SimulatedScheduler
from repro.server.database import Database
from repro.sqlfe import compile_sql
from repro.storage import Catalog, DATE, DBL, INT, STR
from repro.tpch import populate


@pytest.fixture
def catalog():
    cat = Catalog()
    orders = cat.schema().create_table(
        "orders",
        [("o_orderkey", INT), ("o_custkey", INT), ("o_total", DBL),
         ("o_date", DATE)],
    )
    orders.insert_many([
        [1, 10, 100.0, datetime.date(1995, 1, 10)],
        [2, 20, 250.0, datetime.date(1995, 6, 1)],
        [3, 10, 50.0, datetime.date(1996, 3, 5)],
        [4, 30, 300.0, datetime.date(1996, 7 , 20)],
        [5, 20, 120.0, datetime.date(1997, 2, 14)],
    ])
    cust = cat.schema().create_table(
        "customer", [("c_custkey", INT), ("c_name", STR), ("c_nation", STR)]
    )
    cust.insert_many([
        [10, "ann", "FRANCE"],
        [20, "bob", "GERMANY"],
        [30, "cec", "FRANCE"],
    ])
    return cat


def run(catalog, sql, pipeline=None):
    program = compile_sql(catalog, sql)
    if pipeline is not None:
        program = pipeline.apply(program)
    return Interpreter(catalog).run(program).rows()


class TestProjectionsAndFilters:
    def test_select_one_column(self, catalog):
        rows = run(catalog, "select o_orderkey from orders")
        assert rows == [(1,), (2,), (3,), (4,), (5,)]

    def test_figure1_shape(self, catalog):
        rows = run(catalog, "select o_total from orders where o_custkey = 10")
        assert rows == [(100.0,), (50.0,)]

    def test_multiple_predicates_conjunction(self, catalog):
        rows = run(
            catalog,
            "select o_orderkey from orders "
            "where o_custkey = 20 and o_total > 200",
        )
        assert rows == [(2,)]

    def test_range_between(self, catalog):
        rows = run(
            catalog,
            "select o_orderkey from orders where o_total between 100 and 260",
        )
        assert rows == [(1,), (2,), (5,)]

    def test_date_predicate_with_interval(self, catalog):
        rows = run(
            catalog,
            "select o_orderkey from orders "
            "where o_date < date '1996-01-01' + interval '90' day",
        )
        # 1996-01-01 + 90 days = 1996-03-31; orders 1, 2 and 3 fall before it
        assert rows == [(1,), (2,), (3,)]

    def test_or_predicate(self, catalog):
        rows = run(
            catalog,
            "select o_orderkey from orders "
            "where o_total < 60 or o_total > 290",
        )
        assert rows == [(3,), (4,)]

    def test_in_list(self, catalog):
        rows = run(
            catalog,
            "select o_orderkey from orders where o_custkey in (10, 30)",
        )
        assert rows == [(1,), (3,), (4,)]

    def test_like(self, catalog):
        rows = run(
            catalog, "select c_name from customer where c_nation like 'FR%'"
        )
        assert rows == [("ann",), ("cec",)]

    def test_not_like(self, catalog):
        rows = run(
            catalog,
            "select c_name from customer where c_nation not like 'FR%'",
        )
        assert rows == [("bob",)]

    def test_arithmetic_in_select(self, catalog):
        rows = run(
            catalog,
            "select o_total * 2 from orders where o_orderkey = 1",
        )
        assert rows == [(200.0,)]

    def test_constant_output(self, catalog):
        rows = run(catalog, "select 7 from customer")
        assert rows == [(7,), (7,), (7,)]

    def test_case_when(self, catalog):
        rows = run(
            catalog,
            "select case when o_total >= 200 then 'big' else 'small' end "
            "from orders",
        )
        assert rows == [("small",), ("big",), ("small",), ("big",), ("small",)]

    def test_extract_year(self, catalog):
        rows = run(
            catalog,
            "select o_orderkey from orders "
            "where extract(year from o_date) = 1996",
        )
        assert rows == [(3,), (4,)]


class TestJoins:
    def test_where_equi_join(self, catalog):
        rows = run(
            catalog,
            "select c_name, o_total from orders, customer "
            "where o_custkey = c_custkey and o_total > 200",
        )
        assert sorted(rows) == [("bob", 250.0), ("cec", 300.0)]

    def test_join_on_syntax(self, catalog):
        rows = run(
            catalog,
            "select c_name from orders join customer "
            "on o_custkey = c_custkey where o_orderkey = 1",
        )
        assert rows == [("ann",)]

    def test_join_with_both_side_filters(self, catalog):
        rows = run(
            catalog,
            "select o_orderkey from orders, customer "
            "where o_custkey = c_custkey and c_nation = 'FRANCE' "
            "and o_total >= 100",
        )
        assert sorted(rows) == [(1,), (4,)]

    def test_cross_join_rejected(self, catalog):
        with pytest.raises(SqlError):
            run(catalog, "select o_orderkey from orders, customer")

    def test_join_duplicates_multiply(self, catalog):
        # customer 10 has two orders: joining duplicates the customer row
        rows = run(
            catalog,
            "select c_name from orders, customer "
            "where o_custkey = c_custkey and c_custkey = 10",
        )
        assert rows == [("ann",), ("ann",)]

    def test_a_join_step_maps_only_the_joined_tables(self):
        """A join step carries the row maps of the tables already
        joined; the map of a table not joined yet (or the one it joins
        in) would be replaced before anything read it.  Each map it
        skips keeps its variable number, so the optimised plan is the
        one the step compiled when it emitted them (X_14, X_15, X_27),
        and only the orders map, which ``count(*)`` does not read, is
        left to the dead-code pass."""
        cat = Catalog()
        populate(cat, scale_factor=0.01, seed=7)
        program = compile_sql(
            cat, "select count(*) from lineitem, orders, customer "
            "where l_orderkey = o_orderkey and o_custkey = c_custkey")
        read = {arg.name for instr in program.instructions
                for arg in instr.args if hasattr(arg, "name")}
        unread = [instr.results[0] for instr in program.instructions
                  if instr.qualified_name == "algebra.leftjoin"
                  and instr.results[0] not in read]
        assert unread == ["X_26"]
        assert len(program.instructions) == 29
        assert "X_27" not in program.var_types and "X_28" in read


class TestAggregates:
    def test_scalar_count_star(self, catalog):
        assert run(catalog, "select count(*) from orders") == [(5,)]

    def test_scalar_sum_avg(self, catalog):
        rows = run(catalog, "select sum(o_total), avg(o_total) from orders")
        assert rows == [(820.0, 164.0)]

    def test_scalar_min_max(self, catalog):
        rows = run(catalog, "select min(o_total), max(o_total) from orders")
        assert rows == [(50.0, 300.0)]

    def test_filtered_aggregate(self, catalog):
        rows = run(
            catalog,
            "select count(*) from orders where o_total > 100",
        )
        assert rows == [(3,)]

    def test_group_by(self, catalog):
        rows = run(
            catalog,
            "select o_custkey, count(*), sum(o_total) from orders "
            "group by o_custkey order by o_custkey",
        )
        assert rows == [(10, 2, 150.0), (20, 2, 370.0), (30, 1, 300.0)]

    def test_group_by_expression_output(self, catalog):
        rows = run(
            catalog,
            "select o_custkey, sum(o_total) / count(*) as mean from orders "
            "group by o_custkey order by o_custkey",
        )
        assert rows == [(10, 75.0), (20, 185.0), (30, 300.0)]

    def test_having(self, catalog):
        rows = run(
            catalog,
            "select o_custkey, count(*) as n from orders group by o_custkey "
            "having count(*) > 1 order by o_custkey",
        )
        assert rows == [(10, 2), (20, 2)]

    def test_group_by_join(self, catalog):
        rows = run(
            catalog,
            "select c_nation, sum(o_total) from orders, customer "
            "where o_custkey = c_custkey group by c_nation order by c_nation",
        )
        assert rows == [("FRANCE", 450.0), ("GERMANY", 370.0)]

    def test_aggregate_of_expression(self, catalog):
        rows = run(catalog, "select sum(o_total * 2) from orders")
        assert rows == [(1640.0,)]

    def test_ungrouped_column_rejected(self, catalog):
        with pytest.raises(SqlError):
            run(catalog, "select o_custkey, count(*) from orders")


class TestDateFunctionsInGroupSpace:
    """``EXTRACT`` and interval arithmetic over an aggregate or a key,
    per group, against each group's ungrouped ``max``."""

    @pytest.fixture(scope="class")
    def tpch(self):
        cat = Catalog()
        populate(cat, scale_factor=0.01, seed=7)
        return cat

    @staticmethod
    def latest(tpch, flag):
        return run(tpch, "select max(l_shipdate) from lineitem "
                         f"where l_returnflag = '{flag}'")[0][0]

    def test_extract_year_of_a_grouped_max(self, tpch):
        rows = run(tpch, "select l_returnflag, extract(year from "
                         "max(l_shipdate)) from lineitem "
                         "group by l_returnflag")
        assert len(rows) == 3
        for flag, year in rows:
            assert year == self.latest(tpch, flag).year

    def test_a_month_after_a_grouped_max(self, tpch):
        rows = run(tpch, "select l_returnflag, max(l_shipdate) + interval "
                         "'1' month from lineitem group by l_returnflag")
        assert len(rows) == 3
        for flag, shifted in rows:
            latest = self.latest(tpch, flag)
            year, month = divmod(latest.year * 12 + latest.month, 12)
            day = min(latest.day, calendar.monthrange(year, month + 1)[1])
            assert shifted == datetime.date(year, month + 1, day)

    def test_a_day_after_a_key(self, tpch):
        rows = run(tpch, "select l_shipdate, l_shipdate + interval '1' day "
                         "from lineitem group by l_shipdate")
        assert rows and all(after == day + datetime.timedelta(days=1)
                            for day, after in rows)


@pytest.mark.parametrize("predicate", [
    "d > -date '1995-01-01'", "a > -'abc'", "a > cast('abc' as int)"])
def test_a_literal_operand_that_fails_answers_a_typed_error(predicate):
    """A constant the compiler cannot fold is left to the kernel that
    computes it at run time, whose failure is typed: never a raw
    TypeError or ValueError, which the server answers as an internal
    error."""
    database = Database(catalog=Catalog(), workers=1)
    try:
        database.execute("create table t (a int, d date)")
        database.execute("insert into t values (1, date '1995-01-02')")
        with pytest.raises(ReproError):
            database.execute(f"select count(*) from t where {predicate}")
    finally:
        database.close()


class TestOrderingAndLimit:
    def test_order_by_asc(self, catalog):
        rows = run(catalog, "select o_total from orders order by o_total")
        assert rows == [(50.0,), (100.0,), (120.0,), (250.0,), (300.0,)]

    def test_order_by_desc(self, catalog):
        rows = run(
            catalog, "select o_total from orders order by o_total desc"
        )
        assert rows == [(300.0,), (250.0,), (120.0,), (100.0,), (50.0,)]

    def test_order_by_two_keys(self, catalog):
        rows = run(
            catalog,
            "select o_custkey, o_total from orders "
            "order by o_custkey asc, o_total desc",
        )
        assert rows == [
            (10, 100.0), (10, 50.0), (20, 250.0), (20, 120.0), (30, 300.0)
        ]

    def test_order_by_position(self, catalog):
        rows = run(catalog, "select o_total from orders order by 1 desc limit 2")
        assert rows == [(300.0,), (250.0,)]

    def test_order_by_alias(self, catalog):
        rows = run(
            catalog,
            "select o_total as t from orders order by t limit 1",
        )
        assert rows == [(50.0,)]

    def test_limit_without_order(self, catalog):
        rows = run(catalog, "select o_orderkey from orders limit 3")
        assert len(rows) == 3

    def test_distinct(self, catalog):
        rows = run(
            catalog,
            "select distinct c_nation from customer order by c_nation",
        )
        assert rows == [("FRANCE",), ("GERMANY",)]

    def test_distinct_pair(self, catalog):
        rows = run(
            catalog,
            "select distinct o_custkey, o_custkey from orders order by 1",
        )
        assert rows == [(10, 10), (20, 20), (30, 30)]


class TestBinderErrors:
    def test_unknown_table(self, catalog):
        with pytest.raises(Exception):
            run(catalog, "select x from nope")

    def test_unknown_column(self, catalog):
        with pytest.raises(BindError):
            run(catalog, "select nope from orders")

    def test_ambiguous_column(self, catalog):
        cat = catalog
        cat.schema().create_table("dup", [("o_total", DBL)])
        with pytest.raises(BindError):
            run(cat, "select o_total from orders, dup")

    def test_bad_qualifier(self, catalog):
        with pytest.raises(BindError):
            run(catalog, "select z.o_total from orders")


class TestWithOptimizers:
    def test_sequential_pipe_same_answer(self, catalog):
        sql = (
            "select o_custkey, sum(o_total) from orders "
            "group by o_custkey order by o_custkey"
        )
        plain = run(catalog, sql)
        optimized = run(catalog, sql, sequential_pipe())
        assert plain == optimized

    def test_default_pipe_with_dataflow_same_answer(self, catalog):
        sql = "select count(*) from orders where o_total > 60"
        program = default_pipe(nparts=2, mitosis_threshold=1).apply(
            compile_sql(catalog, sql)
        )
        result = SimulatedScheduler(catalog, workers=2).run(program)
        assert result.rows() == [(4,)]
