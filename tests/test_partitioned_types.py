"""A partitioned plan returns the cells the unpartitioned one does.

Mitosis folds a scalar ``sum``/``min``/``max`` through a BAT of the
partitions' partials, typed as the compiler typed the aggregate.  The
compiler once typed every one of them ``dbl``, so ``sum`` of an int
column came back ``2039`` at ``workers=1`` and ``2039.0`` at
``workers=2``.  The oracle's statements over a nil-bearing table —
``count``/``sum``/``avg``/``min``/``max`` under 0-3 grouping columns
(``tests/test_oracle.py``), scalar and GROUP BY alike, each as it is and
under a WHERE (a scalar aggregate over a whole column is not folded) —
and scalar statements over ``lineitem`` (an int column, and a CASE
whose first branch is int and whose ELSE is dbl) must give the same
rows, with the same Python type in every cell, at ``workers`` 1, 2
and 4.
"""

import random

import pytest

from repro.server.database import Database
from repro.storage.catalog import Catalog
from repro.tpch import populate
from tests.test_oracle import (
    GROUPED_SEED, GROUPED_STATEMENTS, _grouped_statement, _grouped_table,
    _rounded, _sort_key, assert_same_rows,
)

WORKERS = (1, 2, 4)


def _canonical(rows):
    """Rows in one order (floats rounded for the order only) and the
    type names of their cells."""
    rows = sorted(rows, key=lambda row: _sort_key(_rounded(row)))
    return rows, [tuple(type(value).__name__ for value in row)
                  for row in rows]


def _assert_invariant(databases, sql):
    first, first_types = _canonical(databases[0].execute(sql).rows)
    for database in databases[1:]:
        rows, types = _canonical(database.execute(sql).rows)
        assert types == first_types, (sql, database.workers)
        assert_same_rows(rows, first, ordered=True)


def test_grouped_statements_keep_their_cells_at_every_worker_count():
    rng = random.Random(GROUPED_SEED)
    catalog = Catalog()
    databases = [Database(catalog=catalog, workers=workers,
                          mitosis_threshold=50) for workers in WORKERS]
    databases[0].execute("create table grouped "
                         "(k1 int, k2 varchar, k3 int, v int, w double)")
    databases[0].execute(_grouped_table(rng))
    try:
        statements = [_grouped_statement(rng)
                      for _ in range(GROUPED_STATEMENTS)]
        assert any(" group by " not in sql for sql in statements)
        for sql in statements:
            _assert_invariant(databases, sql)
            _assert_invariant(databases, sql.replace(
                " from grouped", " from grouped where w < 5.0"))
    finally:
        for database in databases:
            database.close()


@pytest.fixture(scope="module")
def lineitem_databases():
    catalog = Catalog()
    populate(catalog, scale_factor=0.2, seed=7)
    databases = [Database(catalog=catalog, workers=workers)
                 for workers in WORKERS]
    yield databases
    for database in databases:
        database.close()


def test_a_scalar_sum_of_an_int_column_stays_int(lineitem_databases):
    sql = ("select min(l_orderkey), sum(l_linenumber), max(l_linenumber) "
           "from lineitem where l_discount < 0.05")
    _assert_invariant(lineitem_databases, sql)
    assert [type(v) for v in lineitem_databases[1].execute(sql).rows[0]] \
        == [int, int, int]


def test_a_scalar_aggregate_of_a_case_keeps_its_other_branches(
        lineitem_databases):
    """The binder types a CASE by its first branch: an int ``0`` here,
    while the ELSE yields dbl prices, so the fold must not take int."""
    branches = "case when l_discount < 0.05 then 0 else l_extendedprice end"
    sql = (f"select sum({branches}), min({branches}), max({branches}) "
           "from lineitem where l_quantity < 30")
    _assert_invariant(lineitem_databases, sql)
    assert isinstance(lineitem_databases[1].execute(sql).rows[0][0], float)
