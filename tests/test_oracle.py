"""An independent oracle: the TPC-H queries against stdlib ``sqlite3``.

Every other parity suite compares the engine with itself (bulk against
naive kernels, one worker count against another, golden digests of its
own output).  Here the same :class:`Catalog` is loaded into an
in-memory SQLite database and each of the 12 ``QUERIES`` must give the
same answer there.

* **Loading.** One SQLite table per catalog table, the column values as
  they are, except dates, which become ISO text (``1995-03-15``): text
  compares in date order, so a date predicate means the same thing.
* **Dialect fold.** SQLite has no ``date 'X'`` literal and no interval
  arithmetic, so ``date 'X' [± interval 'N' day|month|year]`` is folded
  into the ISO text literal it denotes before SQLite sees the query.
  ``LIKE`` is made case-sensitive, as it is in the engine.  Nothing else
  is rewritten: the 12 texts need no other exclusion.
* **Comparison.** Rows are compared as order-normalised multisets,
  except when the query has an ORDER BY, which fixes their order.
  Floats agree within ``REL_TOL`` relative (or ``ABS_TOL`` absolute,
  for values near zero): the two engines sum in different orders.
* **Both join paths, both plans.** Every query runs three times on one
  plan-cached :class:`Database`: the first run joins against heads that
  have no hash yet (the smaller side is hashed), the later ones against
  the hashes and column reverses the first left behind.  The 7 queries
  with a select chain are compiled on cold statistics, so their second
  run is a re-plan ordered by the selectivities the first observed,
  and their third is served that re-plan from the cache.

The 12 queries run at scales 0.1 and 1.0 (at 0.1, q5 and q3 come back
empty or nearly so).  Besides them, ``RANDOM_STATEMENTS`` seeded
:func:`~repro.workloads.random_query` statements (171 distinct texts)
run at scale 0.1 through one :class:`Database`, so the repeated ones
are served from its plan cache.  And ``GROUPED_STATEMENTS`` seeded
statements group a table the test fills with nil cells by 0-3 of its
key columns (nil keys form their own group) and aggregate it with
``count(*)``, ``count(column)``, ``sum``, ``avg``, ``min`` and ``max``,
each run twice; ``count(column)`` skips nils (``aggr.count_no_nil``).
They add about 0.3 s.  Last, a seeded wrong answer — ``<`` selecting
as ``<=`` in the bulk kernels and the naive reference at once, which no
bulk-against-naive parity suite can see — must make the comparison
fail; it adds about 0.5 s.  A nil constant in a predicate
(``NIL_PREDICATES``, among them SQL's three-valued AND and OR: FALSE
AND nil is FALSE, TRUE OR nil is TRUE) and group space
(``GROUPED_CASES``: a CASE in a grouped select list, BETWEEN, an IN
list, LIKE and IN (subquery) in HAVING, IS NULL over an aggregate) are
checked at ``workers`` 1 and 2.  The suite
costs about 4 s of tier-1 on a 2-core box.  A generator over the whole
dialect and the plan-shape steering are not here yet.
"""

import calendar
import datetime
import math
import random
import re
import sqlite3

import pytest

from repro.server.database import Database
from repro.storage.catalog import Catalog
from repro.storage.types import DATE
from repro.tpch import QUERIES, populate, query_sql
from repro.workloads import random_query

#: at 0.1 q5 returns no row; at 1.0 q3 and q5 return rows and the
#: ORDER BY ... LIMIT of q3, q10 and q18 cuts
SCALES = (0.1, 1.0)
REL_TOL = 1e-9
ABS_TOL = 1e-9
#: the queries with a select chain: compiled on cold statistics, they
#: are re-planned by their second run
REPLANNED = frozenset(("q4", "q5", "q6", "q10", "q12", "q14", "q19"))
#: how many random_query statements, drawn from one rng of this seed
RANDOM_STATEMENTS = 200
RANDOM_SEED = 5

_DATE_LITERAL = re.compile(
    r"date\s+'(\d{4})-(\d{2})-(\d{2})'"
    r"(?:\s*([+-])\s*interval\s+'(\d+)'\s+(day|month|year))?",
    re.IGNORECASE)


def _fold_date(match: "re.Match") -> str:
    year, month, day = (int(match.group(i)) for i in (1, 2, 3))
    when = datetime.date(year, month, day)
    if match.group(4):
        amount = int(match.group(5)) * (-1 if match.group(4) == "-" else 1)
        unit = match.group(6).lower()
        if unit == "day":
            when += datetime.timedelta(days=amount)
        else:
            months = when.month - 1 + amount * (12 if unit == "year" else 1)
            year, month = when.year + months // 12, months % 12 + 1
            day = min(when.day, calendar.monthrange(year, month)[1])
            when = datetime.date(year, month, day)
    return f"'{when.isoformat()}'"


def sqlite_text(sql: str) -> str:
    """The engine's SQL with its date arithmetic folded to literals."""
    return _DATE_LITERAL.sub(_fold_date, sql)


def load_sqlite(catalog: Catalog) -> sqlite3.Connection:
    """An in-memory SQLite copy of every table of ``catalog``."""
    connection = sqlite3.connect(":memory:")
    connection.execute("pragma case_sensitive_like = on")
    for (_schema, name), table in catalog.tables().items():
        columns = list(table.columns.values())
        connection.execute(
            f"create table {name} ({', '.join(c.name for c in columns)})")
        dates = [c.mal_type is DATE for c in columns]
        rows = [tuple(v.isoformat() if is_date and v is not None else v
                      for v, is_date in zip(row, dates))
                for row in table.rows()]
        connection.executemany(
            f"insert into {name} values "
            f"({', '.join('?' * len(columns))})", rows)
    return connection


def _normalised(value):
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, bool):
        return int(value)
    return value


def _cells_agree(ours, theirs) -> bool:
    if isinstance(ours, (int, float)) and isinstance(theirs, (int, float)):
        return math.isclose(ours, theirs, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return ours == theirs


def _sort_key(row):
    return tuple((value is None, str(type(value)), value) for value in row)


def assert_same_rows(ours, theirs, ordered: bool) -> None:
    ours = [tuple(map(_normalised, row)) for row in ours]
    theirs = [tuple(map(_normalised, row)) for row in theirs]
    assert len(ours) == len(theirs)
    if not ordered:
        # floats rounded for the sort only; cells are still compared
        # with the tolerance below
        ours.sort(key=lambda row: _sort_key(_rounded(row)))
        theirs.sort(key=lambda row: _sort_key(_rounded(row)))
    for mine, other in zip(ours, theirs):
        assert len(mine) == len(other)
        assert all(map(_cells_agree, mine, other)), (mine, other)


def _rounded(row):
    return tuple(round(v, 6) if isinstance(v, float) else v for v in row)


@pytest.fixture(scope="module", params=SCALES)
def engines(request):
    catalog = Catalog()
    populate(catalog, scale_factor=request.param, seed=7)
    database = Database(catalog=catalog, workers=2, mitosis_threshold=50)
    connection = load_sqlite(catalog)
    yield database, connection
    connection.close()
    database.close()


def test_the_fold_denotes_the_dates():
    assert sqlite_text("date '1998-12-01' - interval '90' day") \
        == "'1998-09-02'"
    assert sqlite_text("date '1994-01-01' + interval '1' year") \
        == "'1995-01-01'"
    assert sqlite_text("DATE '1993-11-30' + INTERVAL '3' MONTH") \
        == "'1994-02-28'"
    assert sqlite_text("x < date '1995-03-15'") == "x < '1995-03-15'"


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_query_agrees_with_sqlite(engines, name):
    database, connection = engines
    sql = query_sql(name)
    expected = connection.execute(sqlite_text(sql)).fetchall()
    ordered = re.search(r"\border\s+by\b", sql, re.IGNORECASE) is not None
    programs = []
    for _run in range(3):
        outcome = database.execute(sql)
        assert_same_rows(outcome.rows, expected, ordered)
        programs.append(outcome.program)
    assert (programs[1] is not programs[0]) == (name in REPLANNED)
    assert programs[2] is programs[1]


def test_random_statements_agree_with_sqlite():
    catalog = Catalog()
    populate(catalog, scale_factor=0.1, seed=7)
    database = Database(catalog=catalog, workers=2, mitosis_threshold=50)
    connection = load_sqlite(catalog)
    rng = random.Random(RANDOM_SEED)
    try:
        for _ in range(RANDOM_STATEMENTS):
            sql = random_query(rng)
            expected = connection.execute(sqlite_text(sql)).fetchall()
            ordered = " order by " in sql
            try:
                assert_same_rows(database.execute(sql).rows, expected,
                                 ordered)
            except AssertionError as exc:
                raise AssertionError(f"{sql}: {exc}") from None
        # 22 of the 29 repeats are still in the plan cache's LRU
        assert database.plan_cache.hits > 0
    finally:
        connection.close()
        database.close()


#: the GROUP BY statements over a table with nil cells: how many, the
#: rng seed, the table's rows and the share of its cells that are nil
GROUPED_STATEMENTS = 80
GROUPED_SEED = 11
GROUPED_ROWS = 400
NIL_SHARE = 0.2
_KEYS = ("k1", "k2", "k3")
_VALUES = ("v", "w")


def _grouped_table(rng: random.Random) -> str:
    """The INSERT that fills ``grouped``: three low-cardinality keys
    (int, varchar, int) and two values (int, double), each cell nil
    with probability ``NIL_SHARE``."""
    makers = (lambda: str(rng.randrange(4)),
              lambda: f"'{rng.choice(('ash', 'elm', 'fir'))}'",
              lambda: str(rng.randrange(3)),
              lambda: str(rng.randrange(-50, 50)),
              lambda: f"{rng.uniform(-10.0, 10.0):.3f}")
    rows = [", ".join("null" if rng.random() < NIL_SHARE else make()
                      for make in makers)
            for _ in range(GROUPED_ROWS)]
    return f"insert into grouped values ({'), ('.join(rows)})"


def _grouped_statement(rng: random.Random) -> str:
    """0-3 grouping columns and 1-4 of count/sum/avg/min/max."""
    keys = rng.sample(_KEYS, rng.randint(0, 3))
    others = [c for c in _KEYS + _VALUES if c not in keys]
    aggregates = []
    for _ in range(rng.randint(1, 4)):
        func = rng.choice(("count", "sum", "avg", "min", "max"))
        if func == "count":
            aggregates.append(rng.choice(["count(*)"] + [
                f"count({c})" for c in others]))
        elif func in ("sum", "avg"):
            aggregates.append(f"{func}({rng.choice(_VALUES)})")
        else:
            aggregates.append(f"{func}({rng.choice(others)})")
    grouping = f" group by {', '.join(keys)}" if keys else ""
    return f"select {', '.join(keys + aggregates)} from grouped{grouping}"


def test_grouped_statements_over_nil_cells_agree_with_sqlite():
    rng = random.Random(GROUPED_SEED)
    database = Database(catalog=Catalog(), workers=2, mitosis_threshold=50)
    database.execute("create table grouped "
                     "(k1 int, k2 varchar, k3 int, v int, w double)")
    database.execute(_grouped_table(rng))
    connection = load_sqlite(database.catalog)
    try:
        for _ in range(GROUPED_STATEMENTS):
            sql = _grouped_statement(rng)
            expected = connection.execute(sql).fetchall()
            for _run in range(2):
                try:
                    assert_same_rows(database.execute(sql).rows, expected,
                                     ordered=False)
                except AssertionError as exc:
                    raise AssertionError(f"{sql}: {exc}") from None
    finally:
        connection.close()
        database.close()



#: unary minus over an int and a dbl column, in an aggregate, a group
#: and a projection (``batcalc.neg``)
NEGATED = (
    "select min(-l_linenumber) from lineitem",
    "select max(-l_extendedprice), sum(-l_discount) from lineitem",
    "select l_returnflag, min(-l_tax) from lineitem group by l_returnflag",
    "select -l_quantity, -l_linenumber from lineitem where l_orderkey < 40",
)


def test_unary_minus_agrees_with_sqlite_at_every_worker_count():
    catalog = Catalog()
    populate(catalog, scale_factor=0.1, seed=7)
    connection = load_sqlite(catalog)
    try:
        for sql in NEGATED:
            expected = connection.execute(sql).fetchall()
            answers = []
            for workers in (1, 2, 4):
                database = Database(catalog=catalog, workers=workers,
                                    mitosis_threshold=50)
                answers.append(sorted(database.execute(sql).rows,
                                      key=_sort_key))
                database.close()
            assert answers[0] == answers[1] == answers[2], sql
            assert_same_rows(answers[0], expected, ordered=False)
    finally:
        connection.close()


#: a nil constant in a predicate selects no row, as a comparison with
#: nil is nil: the predicate is computed as a bit, never pushed into a
#: selection (``> null`` once raised in ``algebra.thetaselect``, and
#: ``<> null`` or a BETWEEN with a nil bound counted the non-nil rows)
NIL_PREDICATES = (
    "select count(*) from t where a > null",
    "select count(*) from t where a > (1/0)",
    "select count(*) from t where a = null",
    "select count(*) from t where a <> null",
    "select count(*) from t where a between null and 3",
    "select count(*) from t where a between 1 and null",
    "select count(*) from t where not (a between 1 and null)",
    # three-valued AND/OR: FALSE AND nil is FALSE, TRUE OR nil is TRUE
    "select count(*) from t where not (a between 2 and null)",
    "select count(*) from t where a = 1 or a > null",
    "select count(*) from t where a in (1, null)",
    "select count(*) from t where not (a in (2, null))",
)


def test_a_nil_constant_in_a_predicate_agrees_with_sqlite():
    for workers in (1, 2):
        database = Database(catalog=Catalog(), workers=workers)
        database.execute("create table t (a int)")
        database.execute("insert into t values (1), (null), (3)")
        connection = load_sqlite(database.catalog)
        try:
            for sql in NIL_PREDICATES:
                assert database.execute(sql).rows == \
                    connection.execute(sql).fetchall(), (workers, sql)
        finally:
            connection.close()
            database.close()


#: group space: a CASE in a grouped select list, over an aggregate and
#: over a key; BETWEEN and an IN list in HAVING, LIKE and IN (subquery)
#: on a key, IS NULL over an aggregate
GROUPED_CASES = (
    "select l_returnflag, case when count(*) > 140 then 1 else 0 end "
    "from lineitem group by l_returnflag",
    "select l_returnflag, l_linestatus, case when l_returnflag = 'A' "
    "then 'a' else 'other' end from lineitem "
    "group by l_returnflag, l_linestatus",
    "select case when max(l_quantity) > 40 then sum(l_quantity) else 0 "
    "end from lineitem",
    "select l_returnflag, count(*) from lineitem group by l_returnflag "
    "having count(*) between 100 and 200",
    "select l_returnflag, count(*) from lineitem group by l_returnflag "
    "having l_returnflag in ('A', 'R')",
    "select l_returnflag, count(*) from lineitem group by l_returnflag "
    "having l_returnflag like 'A%'",
    "select l_returnflag, count(*) from lineitem group by l_returnflag "
    "having l_returnflag in "
    "(select l_returnflag from lineitem where l_linestatus = 'O')",
    "select l_returnflag, max(l_quantity) is null from lineitem "
    "group by l_returnflag",
)


def test_a_case_in_group_space_agrees_with_sqlite():
    catalog = Catalog()
    populate(catalog, scale_factor=0.1, seed=7)
    connection = load_sqlite(catalog)
    try:
        for workers in (1, 2):
            database = Database(catalog=catalog, workers=workers,
                                mitosis_threshold=50)
            for sql in GROUPED_CASES:
                assert_same_rows(database.execute(sql).rows,
                                 connection.execute(sql).fetchall(),
                                 ordered=False)
            database.close()
    finally:
        connection.close()


def test_a_seeded_wrong_answer_is_caught():
    """A ``<`` that selects as ``<=`` — in BAT's scan kernels, its
    order-index bisect and the naive reference alike, so the bulk
    against naive parity suites cannot see it — makes the TPC-H queries
    disagree with SQLite at scale 1.0 (q6's ``l_quantity < 24`` among
    them; at 0.1 no row sits on a ``<`` boundary)."""
    from repro.storage import bat as bat_module, naive
    from repro.storage.bat import BAT
    from repro.storage.types import INT

    catalog = Catalog()
    populate(catalog, scale_factor=1.0, seed=7)
    database = Database(catalog=catalog, workers=2, mitosis_threshold=50)
    connection = load_sqlite(catalog)
    probe = BAT(INT, [1, 24, 30])

    def lt_agrees() -> list:
        bulk = probe.thetaselect(24, "<").tail
        assert bulk == naive.thetaselect(probe, 24, "<").tail
        return bulk

    def mismatches() -> list:
        found = []
        for name in sorted(QUERIES):
            sql = query_sql(name)
            expected = connection.execute(sqlite_text(sql)).fetchall()
            ordered = re.search(r"\border\s+by\b", sql,
                                re.IGNORECASE) is not None
            try:
                assert_same_rows(database.execute(sql).rows, expected,
                                 ordered)
            except AssertionError:
                found.append(name)
        return found

    select_by_order = BAT._select_by_order

    def inclusive_bisect(self, low, high, include_low, include_high):
        # (None, high, _, False) is what ``< high`` asks of the index
        return select_by_order(self, low, high, include_low,
                               include_high or low is None)

    saved = (bat_module._THETA_KERNELS["<"], bat_module._positions_lt,
             naive._OPS["<"])
    try:
        bat_module._THETA_KERNELS["<"] = bat_module._positions_le
        bat_module._positions_lt = bat_module._positions_le
        BAT._select_by_order = inclusive_bisect
        naive._OPS["<"] = naive._OPS["<="]
        assert lt_agrees() == [1, 24]
        assert "q6" in mismatches()
    finally:
        (bat_module._THETA_KERNELS["<"], bat_module._positions_lt,
         naive._OPS["<"]) = saved
        BAT._select_by_order = select_by_order
    try:
        assert lt_agrees() == [1]
        assert mismatches() == []
    finally:
        connection.close()
        database.close()


#: ``/`` by a column holding zeros answers nil there (``_safe_div``), and
#: ``sum``, ``avg`` and ``count(x)`` over the quotient skip those nils,
#: grouped and ungrouped, whatever the operands' nil-free marks say
DIVIDED = (
    "select sum(x / z), avg(x / z), count(x / z), count(*) from d",
    "select k, sum(x / z), avg(x / z), count(x / z) from d group by k",
)


def test_a_division_by_zero_inside_an_aggregate_agrees_with_sqlite():
    for workers in (1, 2):
        database = Database(catalog=Catalog(), workers=workers)
        database.execute("create table d (k int, x double, z double)")
        database.execute(
            "insert into d values (1, 1.5, 0.0), (1, 3.0, 2.0), "
            "(2, 4.5, 0.0), (2, 2.0, 4.0), (3, 6.0, 0.0), (1, 8.0, 1.0)")
        connection = load_sqlite(database.catalog)
        try:
            for sql in DIVIDED:
                assert_same_rows(database.execute(sql).rows,
                                 connection.execute(sql).fetchall(),
                                 ordered=False)
        finally:
            connection.close()
            database.close()
