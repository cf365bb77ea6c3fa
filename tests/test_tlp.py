"""Ternary logic partitioning (Rigger & Su, OOPSLA 2020): a metamorphic
check that needs no second engine.

A predicate ``p`` on one column is true, false or — when the column is
nil — unknown, so every row a base query ``Q`` reads lands in exactly
one of ``Q AND p``, ``Q AND NOT p`` and ``Q AND col IS NULL``.  The
three partitions, combined, must give ``Q``'s answer:

* plain rows combine as multisets;
* ``count`` and integer ``sum`` add, ``min`` and ``max`` fold (a part
  with no row contributes nil, which the fold skips);
* GROUP BY rows combine per group, the aggregates as above.

``p`` is a comparison, ``BETWEEN``, ``IN`` or ``LIKE`` whose literals are
drawn from the column's own values, so the boundaries are hit.  The
inputs are a table whose cells are nil a fifth of the time and
``lineitem`` at scale 0.2 (1 201 rows: ``workers=2`` cuts it into
partitions).  Every text runs three times through one plan-cached
``Database(workers=2)``: a plan with a select chain is re-planned by
its second run and served from the cache by its third, and every run
goes through the executor's one step.
"""

import datetime
import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, note, settings

from repro.server.database import Database
from repro.storage import bat as bat_module
from repro.storage.bat import BAT
from repro.storage.catalog import Catalog
from repro.tpch import populate

RUNS = 3
NIL_ROWS = 300
NIL_SHARE = 0.2

#: table -> {column: kind}; ``int`` columns may be summed
COLUMNS = {
    "lineitem": {"l_orderkey": "int", "l_linenumber": "int",
                 "l_quantity": "dbl", "l_discount": "dbl",
                 "l_returnflag": "str", "l_shipmode": "str",
                 "l_shipdate": "date"},
    "nils": {"k1": "int", "k2": "str", "k3": "int", "v": "int",
             "w": "dbl"},
}
#: the low-cardinality columns a query may group by
KEYS = {"lineitem": ("l_returnflag", "l_shipmode", "l_linenumber"),
        "nils": ("k1", "k2", "k3")}


def _nils_insert(rng: random.Random) -> str:
    makers = (lambda: str(rng.randrange(4)),
              lambda: f"'{rng.choice(('ash', 'elm', 'fir', 'oak'))}'",
              lambda: str(rng.randrange(3)),
              lambda: str(rng.randrange(-50, 50)),
              lambda: f"{rng.uniform(-10.0, 10.0):.2f}")
    rows = [", ".join("null" if rng.random() < NIL_SHARE else make()
                      for make in makers)
            for _ in range(NIL_ROWS)]
    return f"insert into nils values ({'), ('.join(rows)})"


def _with_nils(catalog: Catalog) -> Database:
    db = Database(catalog=catalog, workers=2)
    db.execute("create table nils (k1 int, k2 varchar, k3 int, v int, "
               "w double)")
    db.execute(_nils_insert(random.Random(13)))
    return db


@pytest.fixture(scope="module")
def database():
    catalog = Catalog()
    populate(catalog, scale_factor=0.2, seed=7)
    db = _with_nils(catalog)
    yield db
    db.close()


@pytest.fixture(scope="module")
def values(database):
    """table -> column -> its sorted distinct non-nil values."""
    out = {}
    for table, columns in COLUMNS.items():
        rows = database.execute(
            f"select {', '.join(columns)} from {table}").rows
        out[table] = {name: sorted({row[i] for row in rows
                                    if row[i] is not None})
                      for i, name in enumerate(columns)}
    return out


def literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, datetime.date):
        return f"date '{value.isoformat()}'"
    return repr(value)


@st.composite
def predicates(draw, table, values):
    """``(column, p)``: a comparison, BETWEEN, IN or LIKE on one column,
    its literals taken from the column's values."""
    column = draw(st.sampled_from(sorted(COLUMNS[table])))
    seen = values[table][column]
    value = st.sampled_from(seen)
    kinds = ["compare", "between", "in"]
    if COLUMNS[table][column] == "str":
        kinds.append("like")
    kind = draw(st.sampled_from(kinds))
    if kind == "compare":
        op = draw(st.sampled_from(("<", "<=", "=", "<>", ">", ">=")))
        return column, f"{column} {op} {literal(draw(value))}"
    if kind == "between":
        low, high = draw(value), draw(value)
        return column, (f"{column} between {literal(low)} and "
                        f"{literal(high)}")
    if kind == "in":
        listed = draw(st.lists(value, min_size=1, max_size=4))
        return column, f"{column} in ({', '.join(map(literal, listed))})"
    text = draw(value)
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, len(text)))
    pattern = draw(st.sampled_from(("{}%", "%{}", "%{}%", "{}")))
    return column, f"{column} like {literal(pattern.format(text[start:end]))}"


@st.composite
def aggregates(draw, table):
    """1-3 of count(*), count(col), sum(int col), min(col), max(col)."""
    columns = sorted(COLUMNS[table])
    ints = [c for c in columns if COLUMNS[table][c] == "int"]
    out = []
    for _ in range(draw(st.integers(1, 3))):
        func = draw(st.sampled_from(("count", "sum", "min", "max")))
        if func == "count":
            out.append(draw(st.sampled_from(
                ["count(*)"] + [f"count({c})" for c in columns])))
        elif func == "sum":
            out.append(f"sum({draw(st.sampled_from(ints))})")
        else:
            out.append(f"{func}({draw(st.sampled_from(columns))})")
    return out


def _fold(func: str, parts):
    present = [v for v in parts if v is not None]
    if func == "count":
        return sum(present)
    if not present:
        return None
    return {"sum": sum, "min": min, "max": max}[func](present)


def combine(shape, keys, items, parts):
    """The answer the three partitions give together."""
    if shape == "rows":
        return Counter(row for part in parts for row in part)
    funcs = [item.split("(")[0] for item in items]
    width = len(keys)
    groups = {}
    for part in parts:
        for row in part:
            groups.setdefault(row[:width], []).append(row[width:])
    if shape == "aggregate" and not groups:
        groups[()] = []
    combined = Counter()
    for key, rows in groups.items():
        folded = tuple(_fold(func, [row[i] for row in rows])
                       for i, func in enumerate(funcs))
        combined[key + folded] += 1
    return combined


@st.composite
def statements(draw, values):
    """``(shape, keys, items, table, column, p, base)``."""
    table = draw(st.sampled_from(sorted(COLUMNS)))
    column, p = draw(predicates(table, values))
    shape = draw(st.sampled_from(("rows", "aggregate", "grouped")))
    keys = []
    if shape == "rows":
        items = draw(st.lists(st.sampled_from(sorted(COLUMNS[table])),
                              min_size=1, max_size=3, unique=True))
    else:
        items = draw(aggregates(table))
        if shape == "grouped":
            keys = draw(st.lists(st.sampled_from(KEYS[table]),
                                 min_size=1, max_size=2, unique=True))
    base = None
    if draw(st.booleans()):
        base = draw(predicates(table, values))[1]
    return shape, keys, items, table, column, p, base


def _text(shape, keys, items, table, where):
    select = ", ".join(keys + items)
    sql = f"select {select} from {table}"
    if where:
        sql += " where " + " and ".join(where)
    if keys:
        sql += " group by " + ", ".join(keys)
    return sql


def _answer(database, sql):
    """The rows of ``sql``, the same on each of its ``RUNS`` runs."""
    answers = [Counter(database.execute(sql).rows) for _ in range(RUNS)]
    assert all(answer == answers[0] for answer in answers), sql
    return answers[0]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_the_three_partitions_give_the_query(database, values, data):
    shape, keys, items, table, column, p, base = data.draw(
        statements(values))
    where = [base] if base else []
    query = _text(shape, keys, items, table, where)
    parts = [_text(shape, keys, items, table, where + [condition])
             for condition in (f"({p})", f"not ({p})",
                               f"{column} is null")]
    note(f"{query}\n" + "\n".join(parts))
    expected = _answer(database, query)
    got = combine(shape, keys, items,
                  [list(_answer(database, sql).elements()) for sql in parts])
    assert got == expected, (query, parts)


def test_the_partitions_are_not_vacuous(database):
    """On the nil table all three parts are populated, and on the
    partitioned ``lineitem`` the check runs on more than one slice."""
    counts = [database.execute(f"select count(*) from nils where {c}").rows
              for c in ("(k1 < 2)", "not (k1 < 2)", "k1 is null")]
    assert all(rows[0][0] > 0 for rows in counts)
    program = database.execute(
        "select count(*) from lineitem where l_quantity < 20").program
    assert sum(instr.qualified_name == "algebra.slice" or (
        instr.qualified_name == "sql.bind" and len(instr.args) == 7)
        for instr in program) > 1


def test_a_seeded_wrong_answer_is_caught(monkeypatch):
    """A ``<`` that selects as ``<=`` — in the scan kernels and the
    order-index bisect at once, the mutation ``tests/test_oracle.py``
    seeds — puts the rows on the boundary in both ``p`` and ``NOT p``."""
    select_by_order = BAT._select_by_order

    def inclusive_bisect(self, low, high, include_low, include_high):
        return select_by_order(self, low, high, include_low,
                               include_high or low is None)

    db = _with_nils(Catalog())
    try:
        shape, items = "aggregate", ["count(*)", "sum(v)"]
        query = _text(shape, [], items, "nils", [])
        parts = [_text(shape, [], items, "nils", [condition])
                 for condition in ("(k1 < 2)", "not (k1 < 2)",
                                   "k1 is null")]

        def agrees() -> bool:
            return combine(shape, [], items, [
                list(_answer(db, sql).elements())
                for sql in parts]) == _answer(db, query)

        assert agrees()
        monkeypatch.setitem(bat_module._THETA_KERNELS, "<",
                            bat_module._positions_le)
        monkeypatch.setattr(bat_module, "_positions_lt",
                            bat_module._positions_le)
        monkeypatch.setattr(BAT, "_select_by_order", inclusive_bisect)
        assert not agrees()
    finally:
        db.close()
