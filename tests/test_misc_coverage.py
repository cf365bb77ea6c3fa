"""Edge cases and smaller code paths across modules."""

import pytest

from repro.errors import MalRuntimeError, SqlError
from repro.mal import Interpreter
from repro.mal.parser import parse_instruction_text
from repro.profiler.events import TraceEvent
from repro.storage import BAT, Catalog, INT, STR, nil


@pytest.fixture
def catalog():
    cat = Catalog()
    t = cat.schema().create_table("t", [("x", INT), ("s", STR)])
    t.insert_many([[i, f"v{i}"] for i in range(10)])
    return cat


class TestMalEdgeCases:
    def run(self, catalog, text):
        return Interpreter(catalog).run(parse_instruction_text(text))

    def test_select_five_argument_form(self, catalog):
        result = self.run(catalog, """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","t","x",0);
            X_3 := algebra.select(X_2,2,5,false,true);
            X_4 := aggr.count(X_3);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.t","n","lng",X_4);
            sql.exportResult(X_10);
        """)
        assert result.rows() == [(3,)]  # (2,5] -> 3,4,5

    def test_select_bad_arity(self, catalog):
        with pytest.raises(MalRuntimeError):
            self.run(catalog, """
                X_1 := sql.mvc();
                X_2 := sql.bind(X_1,"sys","t","x",0);
                X_3 := algebra.select(X_2,1,2,3,4,5,6);
            """)

    def test_bat_new_from_literal_type(self, catalog):
        result = self.run(catalog, """
            X_1:bat[:oid,:str] := bat.new(nil:oid,nil:str);
            X_2 := bat.append(X_1,"hello");
            X_3 := aggr.count(X_2);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.t","n","lng",X_3);
            sql.exportResult(X_10);
        """)
        assert result.rows() == [(1,)]

    def test_bat_insert_and_copy(self, catalog):
        result = self.run(catalog, """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","t","x",0);
            X_3 := bat.copy(X_2);
            X_4:bat[:oid,:int] := bat.new(nil:oid,nil:int);
            X_5 := bat.insert(X_4,X_3);
            X_6 := aggr.count(X_5);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.t","n","lng",X_6);
            sql.exportResult(X_10);
        """)
        assert result.rows() == [(10,)]

    def test_calc_min_max_ifthenelse(self, catalog):
        result = self.run(catalog, """
            X_1 := calc.min(3,7);
            X_2 := calc.max(X_1,5);
            X_3 := calc.ifthenelse(true,X_2,0);
            X_4 := calc.isnil(X_3);
            X_5 := calc.not(X_4);
            X_9 := sql.resultSet(2,1);
            X_10 := sql.rsColumn(X_9,"sys.t","v","int",X_3);
            X_11 := sql.rsColumn(X_10,"sys.t","b","bit",X_5);
            sql.exportResult(X_11);
        """)
        assert result.rows() == [(5, True)]

    def test_batstr_functions(self, catalog):
        result = self.run(catalog, """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","t","s",0);
            X_3 := batstr.toUpper(X_2);
            X_4 := batstr.length(X_3);
            X_5 := batstr.substring(X_3,1,1);
            X_9 := sql.resultSet(2,10);
            X_10 := sql.rsColumn(X_9,"sys.t","len","int",X_4);
            X_11 := sql.rsColumn(X_10,"sys.t","first","str",X_5);
            sql.exportResult(X_11);
        """)
        assert result.rows()[0] == (2, "V")

    def test_mtime_year(self, catalog):
        result = self.run(catalog, """
            X_1 := mtime.year("1994-06-15");
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.t","y","int",X_1);
            sql.exportResult(X_10);
        """)
        assert result.rows() == [(1994,)]


class TestFilterWindowExtras:
    def test_watch_pcs_and_threads(self):
        from repro.core.options import FilterOptionsWindow

        window = FilterOptionsWindow()
        window.watch_pcs({1, 2})
        window.watch_threads({0})
        event_filter = window.build()
        keep = TraceEvent(0, 0, "done", 1, 0, 5, 0, "a.b();")
        wrong_pc = TraceEvent(1, 0, "done", 9, 0, 5, 0, "a.b();")
        wrong_thread = TraceEvent(2, 0, "done", 1, 3, 5, 0, "a.b();")
        assert event_filter.matches(keep)
        assert not event_filter.matches(wrong_pc)
        assert not event_filter.matches(wrong_thread)
        window.watch_pcs(None)
        assert window.build().pcs is None


class TestGroupSpaceErrors:
    def test_like_in_group_space_filters_the_groups(self, catalog):
        from repro.sqlfe import compile_sql

        for pattern, groups in (("v%", range(10)), ("v1%", [1])):
            program = compile_sql(
                catalog,
                f"select s, count(*) from t group by s "
                f"having s like '{pattern}'",
            )
            assert sorted(Interpreter(catalog).run(program).rows()) == \
                [(f"v{i}", 1) for i in groups]

    def test_bare_column_in_having_rejected(self, catalog):
        from repro.sqlfe import compile_sql

        with pytest.raises(SqlError):
            compile_sql(
                catalog,
                "select s, count(*) from t group by s having x > 1",
            )


class TestCliServeCatalog:
    def test_serve_loads_saved_catalog(self, tmp_path):
        import io
        import socket
        import threading
        import time

        from repro.cli import main
        from repro.storage.durable import save_catalog

        cat = Catalog()
        t = cat.schema().create_table("kv", [("k", INT)])
        t.insert_many([[1], [2], [3]])
        db_path = str(tmp_path / "db")
        save_catalog(cat, db_path)

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        thread = threading.Thread(
            target=main,
            args=(["serve", "--port", str(port), "--catalog", db_path,
                   "--max-seconds", "5"],),
            kwargs={"out": io.StringIO()},
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 4
        code, out = 1, ""
        while time.monotonic() < deadline:
            buffer = io.StringIO()
            code = main(["query", "select count(*) from kv",
                         "--port", str(port)], out=buffer)
            out = buffer.getvalue()
            if code == 0:
                break
            time.sleep(0.1)
        assert code == 0 and "3" in out
        thread.join(timeout=8)
