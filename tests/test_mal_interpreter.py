"""Unit tests for the sequential MAL interpreter and cost model."""

import pytest

from repro.errors import MalRuntimeError
from repro.mal import Const, Interpreter, MalProgram, Var, bat_of
from repro.mal.interpreter import CostModel
from repro.mal.parser import parse_instruction_text
from repro.storage import Catalog, INT, STR


@pytest.fixture
def catalog():
    cat = Catalog()
    t = cat.schema().create_table("items", [("k", INT), ("v", STR)])
    t.insert_many([[1, "one"], [2, "two"], [1, "uno"], [3, "three"]])
    return cat


def run_text(catalog, text):
    program = parse_instruction_text(text)
    return Interpreter(catalog).run(program), program


class TestExecution:
    def test_bind_select_project(self, catalog):
        result, _ = run_text(catalog, """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","items","k",0);
            X_3 := sql.bind(X_1,"sys","items","v",0);
            X_4 := algebra.select(X_2,1);
            X_5 := bat.mirror(X_4);
            X_6 := algebra.leftjoin(X_5,X_3);
            X_9 := sql.resultSet(1,2);
            X_10 := sql.rsColumn(X_9,"sys.items","v","str",X_6);
            sql.exportResult(X_10);
        """)
        assert result.rows() == [("one",), ("uno",)]

    def test_scalar_aggregate(self, catalog):
        result, _ = run_text(catalog, """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","items","k",0);
            X_3 := aggr.sum(X_2);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.items","sum_k","lng",X_3);
            sql.exportResult(X_10);
        """)
        assert result.rows() == [(7,)]

    def test_group_and_grouped_aggr(self, catalog):
        result, _ = run_text(catalog, """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","items","k",0);
            (X_3,X_4,X_5) := group.new(X_2);
            X_6 := aggr.count(X_2,X_3,X_4);
            X_9 := sql.resultSet(1,3);
            X_10 := sql.rsColumn(X_9,"sys.items","cnt","lng",X_6);
            sql.exportResult(X_10);
        """)
        assert result.rows() == [(2,), (1,), (1,)]

    def test_undefined_variable_raises(self, catalog):
        program = MalProgram()
        program.declare("X_ghost")
        program.add("language", "pass", [Var("X_ghost")])
        with pytest.raises(Exception):
            Interpreter(catalog).run(program)

    def test_unknown_instruction_raises(self, catalog):
        result = None
        with pytest.raises(MalRuntimeError):
            run_text(catalog, "X_1 := nosuch.op();")

    def test_multi_result_mismatch_raises(self, catalog):
        with pytest.raises(MalRuntimeError):
            run_text(catalog, """
                X_1 := sql.mvc();
                X_2 := sql.bind(X_1,"sys","items","k",0);
                (X_3,X_4) := aggr.sum(X_2);
            """)

    def test_ifthenelse_typed_from_branches_not_first_value(self, catalog):
        """Row 0 takes the integer ``else``; the column is still dbl."""
        result, _ = run_text(catalog, """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","items","k",0);
            X_3 := batcalc.gt(X_2,1);
            X_4 := batcalc.mul(X_2,1.5);
            X_5 := batcalc.ifthenelse(X_3,X_4,0);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.items","c","dbl",X_5);
            sql.exportResult(X_10);
        """)
        assert result.rows() == [(0.0,), (3.0,), (0.0,), (4.5,)]
        assert all(isinstance(row[0], float) for row in result.rows())

    def test_affected_rows(self, catalog):
        result, _ = run_text(catalog, """
            X_1 := sql.mvc();
            sql.affectedRows(X_1,5);
        """)
        assert result.affected_rows == 5


class TestRuns:
    def test_one_run_per_instruction(self, catalog):
        result, program = run_text(catalog, """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","items","k",0);
        """)
        assert [r.pc for r in result.runs] == [0, 1]

    def test_clock_monotone_and_contiguous(self, catalog):
        result, _ = run_text(catalog, """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","items","k",0);
            X_3 := aggr.sum(X_2);
        """)
        prev_end = 0
        for run in result.runs:
            assert run.start_usec == prev_end
            assert run.end_usec == run.start_usec + run.usec
            assert run.usec >= 1
            prev_end = run.end_usec
        assert result.total_usec == prev_end

    def test_rows_recorded(self, catalog):
        result, _ = run_text(catalog, """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","items","k",0);
        """)
        assert result.runs[1].rows == 4

    def test_rss_grows_with_bound_bats(self, catalog):
        result, _ = run_text(catalog, """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","items","k",0);
        """)
        assert result.runs[1].rss_bytes > result.runs[0].rss_bytes

    def test_listener_sees_start_and_done(self, catalog):
        seen = []
        program = parse_instruction_text("X_1 := sql.mvc();")
        Interpreter(catalog, listener=lambda ph, r: seen.append((ph, r.pc))).run(
            program
        )
        assert seen == [("start", 0), ("done", 0)]

    def test_deterministic_timing(self, catalog):
        text = """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","items","k",0);
            X_3 := algebra.select(X_2,1);
        """
        r1, _ = run_text(catalog, text)
        r2, _ = run_text(catalog, text)
        assert [(r.start_usec, r.usec) for r in r1.runs] == [
            (r.start_usec, r.usec) for r in r2.runs
        ]


class TestCostModel:
    def test_join_costs_more_than_admin(self, catalog):
        result, _ = run_text(catalog, """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","items","k",0);
            X_4 := algebra.select(X_2,1);
            X_5 := algebra.leftjoin(X_4,X_2);
        """)
        by_fn = {r.function: r.usec for r in result.runs}
        assert by_fn["leftjoin"] > by_fn["mvc"]

    def test_cost_scales_with_input(self):
        cat = Catalog()
        t = cat.schema().create_table("big", [("x", INT)])
        t.insert_many([[i] for i in range(2000)])
        small_cat = Catalog()
        ts = small_cat.schema().create_table("big", [("x", INT)])
        ts.insert([1])
        text = """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","big","x",0);
            X_3 := algebra.thetaselect(X_2,0,">");
        """
        big, _ = run_text(cat, text)
        small, _ = run_text(small_cat, text)
        assert big.runs[2].usec > small.runs[2].usec

    def test_cost_at_least_one_usec(self, catalog):
        result, _ = run_text(catalog, "X_1 := sql.mvc();")
        assert result.runs[0].usec >= 1

    def test_sort_superlinear_term(self):
        model = CostModel()
        from repro.mal.ast import MalInstruction
        from repro.storage import BAT, INT as I

        sort = MalInstruction([], "algebra", "sortTail", [])
        small = model.cost_usec(sort, [BAT(I, list(range(100)))], [])
        large = model.cost_usec(sort, [BAT(I, list(range(10000)))], [])
        assert large > 100 * small / 100  # grows faster than linear baseline
        assert large > small
