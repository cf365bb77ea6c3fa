"""Exactness of plan invalidation: a cached plan is served for as long as
the tables it reads are unchanged, and not once longer.

One row per way a table can change.  After the change a plan that binds
the table is not served (the next execution misses and returns the new
rows), while a plan that binds only other tables is (the hit count
rises and the program object is the one cached before).  Plus: results
with and without a plan cache agree under interleaved writes, a reader
keeps its hits while another table is written, a write (or its undo)
drops the partition slices and reverses its columns own and the tid a
fetch went through, and a warm run derives nothing from its program.
"""

import datetime
import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.stats as stats_module
from repro.errors import WalError
from repro.faults import FaultPlan, armed
from repro.mal.ast import MalProgram
from repro.mal.interpreter import Interpreter, ReadySet
from repro.mal.parser import parse_instruction_text
from repro.server import Database, MClient
from repro.storage import INT, STR, Catalog, durable
from repro.storage.durable import apply_record
from repro.tpch import populate, query_sql
from tests.test_durability import _keeping_undo
from tests.test_replication import _caught_up, _node, _wait

ON_T = "select a, b from t order by a"
ON_U = "select a, c from u order by a"
JOIN = "select t.a, u.c from t, u where t.a = u.a order by t.a"
T_ROWS = [(1, 10), (2, 20), (3, 30)]
U_ROWS = [(1, 7), (2, 8)]


def _db(**kwargs) -> Database:
    db = Database(workers=2, **kwargs)
    db.execute("create table t (a int, b int)")
    db.execute("create table u (a int, c int)")
    db.execute("insert into t values (1, 10), (2, 20), (3, 30)")
    db.execute("insert into u values (1, 7), (2, 8)")
    return db


def _warm(db):
    """Every statement compiled and cached; {sql: its program}."""
    return {sql: db.execute(sql).program for sql in (ON_T, ON_U, JOIN)}


def _served(db, sql, program) -> bool:
    """Execute ``sql``: was it a hit on exactly ``program``?"""
    before = db.plan_cache.stats()
    outcome = db.execute(sql)
    after = db.plan_cache.stats()
    if outcome.program is program:
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        return True
    assert after["misses"] == before["misses"] + 1
    return False


def _assert_only_t_readers_recompile(db, plans, t_rows):
    evictions = db.plan_cache.stats()["evictions"]
    assert _served(db, ON_U, plans[ON_U])
    assert not _served(db, ON_T, plans[ON_T])
    assert db.plan_cache.stats()["evictions"] == evictions + 1
    assert db.execute(ON_U).rows == U_ROWS
    recompiled = db.execute(ON_T)
    assert recompiled.rows == t_rows
    assert _served(db, ON_T, recompiled.program)  # and cached in its turn


# ---------------------------------------------------------------------------
# the matrix: every way rows reach ``t``
# ---------------------------------------------------------------------------


def _sql_insert(db):
    db.execute("insert into t values (4, 40)")


def _table_insert(db):
    db.catalog.table("t").insert([4, 40])


def _table_insert_many(db):
    db.catalog.table("t").insert_many([[4, 40]])


def _wal_replay(db):
    apply_record(db.catalog, "insert",
                 {"schema": "sys", "table": "t", "rows": [[4, 40]]})


@pytest.mark.parametrize("write", [_sql_insert, _table_insert,
                                   _table_insert_many, _wal_replay])
@pytest.mark.parametrize("durable", [False, True])
def test_insert_invalidates_only_the_readers_of_its_table(
        tmp_path, write, durable):
    db = _db(wal_dir=str(tmp_path), commit_window_ms=0.0) if durable \
        else _db()
    try:
        plans = _warm(db)
        write(db)
        _assert_only_t_readers_recompile(db, plans, T_ROWS + [(4, 40)])
        assert not _served(db, JOIN, plans[JOIN])
    finally:
        db.close()


def test_join_plan_is_evicted_by_a_write_to_either_table():
    db = _db()
    plans = _warm(db)
    db.execute("insert into u values (3, 9)")
    assert _served(db, ON_T, plans[ON_T])
    assert not _served(db, JOIN, plans[JOIN])
    assert db.execute(JOIN).rows == [(1, 7), (2, 8), (3, 9)]
    rejoined = db.last_program
    db.execute("insert into t values (4, 40)")
    assert not _served(db, JOIN, rejoined)


def test_rolled_back_insert(tmp_path, monkeypatch):
    """A durable insert whose commit fails is undone.  A read between
    the apply and the undo sees the row and caches a plan for it; after
    the undo that plan is refused, and nobody else's plan moved."""
    db = _db(wal_dir=str(tmp_path), commit_window_ms=0.0)
    try:
        plans = _warm(db)
        commit = db.durability.wal.commit
        seen = {}

        def commit_after_a_read(lsn):
            assert not _served(db, ON_T, plans[ON_T])
            seen["rows"], seen["plan"] = db.execute(ON_T).rows, \
                db.last_program
            return commit(lsn)

        monkeypatch.setattr(db.durability.wal, "commit", commit_after_a_read)
        with armed(FaultPlan.from_spec("persist.wal:fsync-loss@1.0#1",
                                       seed=1)):
            with pytest.raises(WalError):
                db.execute("insert into t values (4, 40)")
        assert seen["rows"] == T_ROWS + [(4, 40)]
        assert not _served(db, ON_T, seen["plan"])
        assert db.execute(ON_T).rows == T_ROWS
        assert _served(db, ON_U, plans[ON_U])
    finally:
        db.close()


def test_replica_applying_a_shipped_insert(tmp_path):
    primary = _node(tmp_path, "primary")
    replica = _node(tmp_path, "replica", primary=primary.addr)
    try:
        with MClient(port=primary.port) as client:
            client.query("create table t (a int, b int)")
            client.query("create table u (a int, c int)")
            client.query("insert into t values (1, 10), (2, 20), (3, 30)")
            client.query("insert into u values (1, 7), (2, 8)")
            _wait(lambda: _caught_up(primary, replica), message="catch-up")
            plans = _warm(replica.db)
            client.query("insert into t values (4, 40)")
            _wait(lambda: _caught_up(primary, replica), message="catch-up")
            _assert_only_t_readers_recompile(replica.db, plans,
                                             T_ROWS + [(4, 40)])
            # a shipped DDL frees a dropped table's plans at once
            client.query("drop table t")
            _wait(lambda: _caught_up(primary, replica), message="catch-up")
            assert replica.db.plan_cache.stats()["size"] == 0
    finally:
        replica.server.stop()
        primary.server.stop()


def test_table_recreated_behind_the_database():
    """Same name, same row count, other column types: only identity
    tells the new ``t`` from the one the plan was compiled for."""
    db = _db()
    plans = _warm(db)
    schema = db.catalog.schema()
    schema.drop_table("t")
    schema.create_table("t", [("a", STR), ("b", INT)]).insert_many(
        [["x", 1], ["y", 2], ["z", 3]])
    _assert_only_t_readers_recompile(
        db, plans, [("x", 1), ("y", 2), ("z", 3)])


def test_sql_ddl_recreates_a_table():
    db = _db()
    plans = _warm(db)
    db.execute("drop table t")
    db.execute("create table t (a varchar(4), b int)")
    db.execute("insert into t values ('x', 1)")
    # DDL also clears: every plan goes, not only t's readers'
    assert not _served(db, ON_T, plans[ON_T])
    assert db.execute(ON_T).rows == [("x", 1)]
    assert db.execute(ON_U).rows == U_ROWS


def test_swap_catalog():
    db = _db()
    plans = _warm(db)
    catalog = Catalog()
    catalog.schema().create_table("t", [("a", INT), ("b", INT)]).insert_many(
        [[9, 90], [8, 80], [7, 70]])
    db.swap_catalog(catalog)
    assert not _served(db, ON_T, plans[ON_T])
    assert db.execute(ON_T).rows == [(7, 70), (8, 80), (9, 90)]


def test_validity_alone_refuses_a_plan_of_another_catalog():
    """Without ``swap_catalog``'s clear(): the check still says no."""
    db = _db()
    plans = _warm(db)
    other = _db().catalog  # the same tables, by name and row count
    assert db.catalog.holds(plans[ON_T].reads)
    assert not other.holds(plans[ON_T].reads)
    assert [entry["tables"] for entry in db.plan_cache.entries()] \
        == [["sys.t"], ["sys.u"], ["sys.t", "sys.u"]]


# ---------------------------------------------------------------------------
# with and without a plan cache
# ---------------------------------------------------------------------------

_STEPS = st.lists(
    st.sampled_from(["insert t", "insert u", ON_T, ON_U, JOIN]),
    min_size=1, max_size=24)


@settings(max_examples=40, deadline=None)
@given(_STEPS)
def test_cached_and_uncached_databases_agree(steps):
    # a low mitosis threshold: the right plan changes as a table grows
    cached = _db(mitosis_threshold=16)
    uncached = _db(mitosis_threshold=16, plan_cache_size=0)
    next_id = {"t": 100, "u": 100}  # unique per table, shared across them
    for step in steps:
        if step.startswith("insert"):
            table = step[-1]
            values = ", ".join(f"({next_id[table] + i}, {i})"
                               for i in range(8))
            next_id[table] += 8
            for db in (cached, uncached):
                db.execute(f"insert into {table} values {values}")
        else:
            assert cached.execute(step).rows == uncached.execute(step).rows


# ---------------------------------------------------------------------------
# a reader beside a writer
# ---------------------------------------------------------------------------


def test_reader_keeps_its_plan_while_another_table_is_written():
    iterations = 200
    db = _db()
    results, failures = [], []

    def insert():
        try:
            for i in range(iterations):
                db.execute(f"insert into u values ({i + 10}, {i})")
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    def read():
        try:
            for _ in range(iterations):
                results.append(db.execute(ON_T).rows)
        except BaseException as exc:
            failures.append(exc)

    before = db.plan_cache.stats()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=insert),
                   threading.Thread(target=read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    after = db.plan_cache.stats()
    assert after["hits"] - before["hits"] == iterations - 1
    assert after["misses"] - before["misses"] == 1
    assert results == [T_ROWS] * iterations  # never torn
    assert db.catalog.table("u").row_count() == len(U_ROWS) + iterations


# ---------------------------------------------------------------------------
# a write drops the partitions a column owns
# ---------------------------------------------------------------------------

PARTITIONED = ("q1", "q6")


def _tpch(**kwargs) -> Database:
    """A scale-0.05 TPC-H database whose 300 lineitems are partitioned."""
    catalog = Catalog()
    populate(catalog, scale_factor=0.05, seed=7)
    return Database(catalog=catalog, mitosis_threshold=50, **kwargs)


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, datetime.date):
        return f"'{value.isoformat()}'"
    return repr(value)


def _lineitem_insert(db, price_factor: float) -> str:
    """An INSERT of copies of lineitems that q1 and q6 both count, with
    their price scaled so that each factor yields other sums."""
    rows = [list(row) for row in db.catalog.table("lineitem").rows()
            if row[10].year == 1994 and 0.05 <= row[6] <= 0.07
            and row[4] < 24][:4]
    for row in rows:
        row[5] = round(row[5] * price_factor, 2)
    return "insert into lineitem values " + ", ".join(
        "(" + ", ".join(map(_literal, row)) + ")" for row in rows)


def _assert_partitioned_rows_match_one_worker(db, oracle):
    """Equal rows; a float may differ in its last digit, because a
    partitioned ``sum`` adds its per-partition partials."""
    for name in PARTITIONED:
        expected = [tuple(pytest.approx(value, rel=1e-12)
                          if isinstance(value, float) else value
                          for value in row)
                    for row in oracle.execute(query_sql(name)).rows]
        assert db.execute(query_sql(name)).rows == expected


def test_insert_drops_the_partitions():
    db, oracle = _tpch(workers=2), _tpch(workers=1)
    _assert_partitioned_rows_match_one_worker(db, oracle)
    columns = [column.bat for column
               in db.catalog.table("lineitem").columns.values()]
    before = [bat.partitions(2) for bat in columns]
    for database in (db, oracle):
        database.execute(_lineitem_insert(oracle, 2.0))
    # dropped by the write itself, not only refused by a length check
    assert all(bat._parts_cache is None for bat in columns)
    _assert_partitioned_rows_match_one_worker(db, oracle)
    assert not any(old[0] is bat.partitions(2)[0]
                   for old, bat in zip(before, columns))


def test_rolled_back_insert_drops_the_partitions(tmp_path, monkeypatch):
    """A durable INSERT undone after a read cut partitions at its length;
    then an INSERT of as many other rows.  The column is as long as when
    those partitions were cut, so only the undo's drop keeps them from
    being bound again."""
    db, oracle = _tpch(workers=2, wal_dir=str(tmp_path)), _tpch(workers=1)
    try:
        _assert_partitioned_rows_match_one_worker(db, oracle)
        hooks = {}
        monkeypatch.setattr(durable, "prepare_record", _keeping_undo(hooks))
        db.execute(_lineitem_insert(oracle, 2.0))
        monkeypatch.undo()
        for name in PARTITIONED:  # partitions cut over the doomed rows
            db.execute(query_sql(name))
        hooks["undo"]()
        kept = _lineitem_insert(oracle, 3.0)
        for database in (db, oracle):
            database.execute(kept)
        _assert_partitioned_rows_match_one_worker(db, oracle)
    finally:
        db.close()


# ---------------------------------------------------------------------------
# a write drops the tid, a column's reverse and the tid's density mark
# ---------------------------------------------------------------------------

#: q3's join of orders and lineitem with lineitem unfiltered, so that
#: the plan fetches ``l_orderkey`` through ``sql.tid`` and joins against
#: its (memoized) reverse
Q3_SHAPED = """
    select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue,
           o_orderdate
    from orders, lineitem
    where l_orderkey = o_orderkey and o_orderdate < date '1995-03-15'
    group by l_orderkey, o_orderdate
    order by revenue desc, o_orderdate
    limit 10
"""


def _sequential_copy(db) -> Database:
    """The same rows in a catalog of their own, run by the interpreter
    under ``sequential_pipe``: no memo of ``db``'s is shared."""
    catalog = Catalog()
    for (schema, _key), table in db.catalog.tables().items():
        catalog.schema(schema).create_table(
            table.name, [(column.name, column.mal_type)
                         for column in table.columns.values()]
        ).insert_many(table.rows())
    return Database(catalog=catalog, workers=1,
                    pipeline_name="sequential_pipe")


def _assert_q3_shaped_matches(db, reference):
    expected = [tuple(pytest.approx(value, rel=1e-12)
                      if isinstance(value, float) else value
                      for value in row)
                for row in reference.execute(Q3_SHAPED).rows]
    assert expected
    assert db.execute(Q3_SHAPED).rows == expected


def _join_memos(db):
    """(lineitem, its l_orderkey column) after a run of ``Q3_SHAPED``,
    which leaves the tid and the column's reverse memoized."""
    lineitem = db.catalog.table("lineitem")
    orderkey = lineitem.column("l_orderkey").bat
    assert orderkey._reverse_cache is not None
    assert lineitem._tid is not None and lineitem._tid._tdense
    return lineitem, orderkey


def test_insert_drops_the_tid_and_the_column_reverse():
    db = _tpch(workers=2)
    reference = _sequential_copy(db)
    for _ in range(2):  # the second run probes the reverse's hash
        _assert_q3_shaped_matches(db, reference)
    lineitem, orderkey = _join_memos(db)
    tid, reverse = lineitem._tid, orderkey._reverse_cache[1]
    assert reverse._index_cache is not None
    insert = _lineitem_insert(reference, 2.0)
    for database in (db, reference):
        database.execute(insert)
    assert orderkey._reverse_cache is None  # dropped by the write
    _assert_q3_shaped_matches(db, reference)
    assert lineitem._tid is not tid
    assert len(lineitem._tid) == lineitem.row_count() > len(tid)
    assert orderkey.reverse() is not reverse


def test_rolled_back_insert_drops_the_tid_and_the_column_reverse(
        tmp_path, monkeypatch):
    """A read between a durable INSERT and its undo memoizes a tid and
    a reverse over the doomed rows; the undo drops the reverse, and the
    tid no longer answers for the table."""
    db = _tpch(workers=2, wal_dir=str(tmp_path))
    try:
        reference = _sequential_copy(db)
        _assert_q3_shaped_matches(db, reference)
        rows = db.catalog.table("lineitem").row_count()
        hooks = {}
        monkeypatch.setattr(durable, "prepare_record", _keeping_undo(hooks))
        db.execute(_lineitem_insert(reference, 2.0))
        monkeypatch.undo()
        db.execute(Q3_SHAPED)
        lineitem, orderkey = _join_memos(db)
        doomed = lineitem._tid
        assert len(doomed) == lineitem.row_count() > rows
        hooks["undo"]()
        assert orderkey._reverse_cache is None
        _assert_q3_shaped_matches(db, reference)
        assert lineitem._tid is not doomed and len(lineitem._tid) == rows
        kept = _lineitem_insert(reference, 3.0)  # as many rows again
        for database in (db, reference):
            database.execute(kept)
        _assert_q3_shaped_matches(db, reference)
    finally:
        db.close()


def test_appending_to_a_tid_does_not_leak_into_the_next_query():
    """Hand-written MAL may append to what ``sql.tid`` returned, which
    is the table's memoized tid: the append clears its density mark, so
    the fetch through it gathers, and the next query gets a new tid."""
    db = _tpch(workers=2)
    reference = _sequential_copy(db)
    _assert_q3_shaped_matches(db, reference)
    lineitem, orderkey = _join_memos(db)
    memo, rows = lineitem._tid, lineitem.row_count()
    result = Interpreter(db.catalog).run(parse_instruction_text("""
        X_0 := sql.mvc();
        X_1 := sql.tid(X_0,"sys","lineitem");
        X_2 := bat.append(X_1,0);
        X_3 := sql.bind(X_0,"sys","lineitem","l_orderkey",0);
        X_4 := algebra.leftjoin(X_2,X_3);
        X_5 := sql.resultSet(1,1);
        X_6 := sql.rsColumn(X_5,"sys.lineitem","l_orderkey","int",X_4);
        sql.exportResult(X_6);
    """))
    assert len(memo) == rows + 1 and not memo._tdense
    assert [row[0] for row in result.rows()] == orderkey.tail + \
        orderkey.tail[:1]
    _assert_q3_shaped_matches(db, reference)
    assert lineitem._tid is not memo and lineitem._tid._tdense
    assert len(lineitem._tid) == rows


def test_concurrent_first_runs_share_the_join_memos():
    """Readers that meet a column with no tid, reverse, count or hash
    yet race to build them; whoever's copy is kept, every answer is the
    sequential one."""
    names = ("q3", "q5", "q18")  # all return rows at scale 1

    def scale_one(**kwargs) -> Database:
        catalog = Catalog()
        populate(catalog, scale_factor=1.0, seed=7)
        return Database(catalog=catalog, **kwargs)

    reference = scale_one(workers=1, pipeline_name="sequential_pipe")
    expected = {name: reference.execute(query_sql(name)).rows
                for name in names}
    assert all(expected.values())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _round in range(3):  # fresh memos each round
            db = scale_one(workers=2)
            results, failures = [], []
            start = threading.Barrier(4)

            def read(order):
                try:
                    start.wait(timeout=30)
                    for name in order * 2:
                        results.append(
                            (name, db.execute(query_sql(name)).rows))
                except BaseException as exc:  # reported below
                    failures.append(exc)

            threads = [threading.Thread(target=read, args=(names[i:]
                                                           + names[:i],))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert len(results) == 4 * 2 * len(names)
            for name, rows in results:
                assert rows == [tuple(pytest.approx(value, rel=1e-12)
                                      if isinstance(value, float)
                                      else value for value in row)
                                for row in expected[name]], name
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# a warm run derives nothing (counts, no clock)
# ---------------------------------------------------------------------------


def test_warm_runs_derive_nothing_from_the_program(monkeypatch):
    db = Database(workers=2)
    populate(db.catalog, scale_factor=0.01, seed=3)
    sql = query_sql("q6")
    expected = db.execute(sql).rows  # compiled, cached, run once
    # compiled on cold stats, so re-planned once: the steady state
    assert db.execute(sql).rows == expected
    calls = {"ReadySet": 0, "validate": 0, "signatures": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ReadySet, "__init__",
                        counted("ReadySet", ReadySet.__init__))
    monkeypatch.setattr(MalProgram, "validate",
                        counted("validate", MalProgram.validate))
    monkeypatch.setattr(stats_module, "program_signatures",
                        counted("signatures",
                                stats_module.program_signatures))
    for _ in range(20):
        assert db.execute(sql).rows == expected
    assert db.plan_cache.stats()["hits"] == 20
    assert all(count <= 1 for count in calls.values()), calls


def test_a_cached_plan_keeps_its_numbering_while_others_compile():
    """``seal`` copies nothing: the plan must be the only program its
    instruction objects are still part of, or a later compile that
    renumbers shared instructions would move its pcs under the
    ``ReadySet`` it memoised."""
    db = Database(workers=2)
    populate(db.catalog, scale_factor=0.01, seed=3)
    names = ("q1", "q3", "q6", "q12")
    for name in names:  # a plan compiled on cold stats re-plans once
        db.execute(query_sql(name))
    plans = {name: db.execute(query_sql(name)) for name in names}
    for name in names:  # the same texts again, through every other pipe
        for pipe in ("static_pipe", "sequential_pipe", "minimal_pipe"):
            db.compile(query_sql(name), pipeline_name=pipe)
        db.explain(query_sql(name))
    for name, first in plans.items():
        program = first.program
        assert [i.pc for i in program.instructions] == \
            list(range(len(program)))
        template = program.derived(ReadySet)
        assert all(template.instructions[i.pc] is i
                   for i in program.instructions)
        again = db.execute(query_sql(name))
        assert again.program is program and again.rows == first.rows
