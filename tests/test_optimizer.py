"""Unit tests for the optimizer passes and pipelines."""

import pytest

from repro.errors import OptimizerError
from repro.mal import Interpreter
from repro.mal.ast import Const, Var
from repro.mal.dataflow import SimulatedScheduler
from repro.mal.optimizer import (
    CommonSubexpression,
    ConstantFold,
    Dataflow,
    DeadCode,
    Mitosis,
    Pipeline,
    default_pipe,
    minimal_pipe,
    pipeline_by_name,
    sequential_pipe,
)
from repro.mal.parser import parse_instruction_text
from repro.storage import Catalog, INT


@pytest.fixture
def catalog():
    cat = Catalog()
    t = cat.schema().create_table("fact", [("k", INT), ("v", INT)])
    t.insert_many([[i % 100, i] for i in range(4000)])
    small = cat.schema().create_table("dim", [("d", INT)])
    small.insert_many([[i] for i in range(10)])
    return cat


QUERY = """
    X_1 := sql.mvc();
    X_2 := sql.bind(X_1,"sys","fact","k",0);
    X_3 := algebra.thetaselect(X_2,50,"<");
    X_4 := aggr.count(X_3);
    X_9 := sql.resultSet(1,1);
    X_10 := sql.rsColumn(X_9,"sys.fact","n","lng",X_4);
    sql.exportResult(X_10);
"""


class TestConstantFold:
    def test_folds_calc_chain(self):
        p = parse_instruction_text("""
            X_1 := calc.add(1,2);
            X_2 := calc.mul(X_1,10);
            X_3 := sql.mvc();
        """)
        out = ConstantFold().run(p)
        assert len(out) == 1  # only sql.mvc survives
        assert out.instructions[0].qualified_name == "sql.mvc"

    def test_substitutes_folded_value_into_users(self, catalog):
        p = parse_instruction_text("""
            X_0 := calc.add(40,10);
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","fact","k",0);
            X_3 := algebra.thetaselect(X_2,X_0,"<");
            X_4 := aggr.count(X_3);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.fact","n","lng",X_4);
            sql.exportResult(X_10);
        """)
        out = ConstantFold().run(p)
        theta = next(i for i in out if i.function == "thetaselect")
        assert isinstance(theta.args[1], Const) and theta.args[1].value == 50
        assert Interpreter(catalog).run(out).rows() == \
            Interpreter(catalog).run(parse_instruction_text(QUERY)).rows()

    def test_folds_mtime(self):
        p = parse_instruction_text(
            'X_1 := mtime.adddays("1998-12-01",-90);\nX_2 := sql.mvc();'
            "\nlanguage.pass(X_1);"
        )
        out = ConstantFold().run(p)
        passes = [i for i in out if i.qualified_name == "language.pass"]
        assert isinstance(passes[0].args[0], Const)
        assert str(passes[0].args[0].value) == "1998-09-02"

    def test_leaves_nonconst_alone(self):
        p = parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","fact","k",0);
            X_3 := aggr.sum(X_2);
            X_4 := calc.add(X_3,1);
            language.pass(X_4);
        """)
        assert len(ConstantFold().run(p)) == 5


class TestDeadCode:
    def test_removes_unused(self):
        p = parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","fact","k",0);
            X_3 := aggr.sum(X_2);
        """)
        out = DeadCode().run(p)
        assert len(out) == 0  # nothing feeds a side effect

    def test_keeps_side_effect_chain(self, catalog):
        p = parse_instruction_text(QUERY)
        before = len(p)  # a pass edits the program it is given
        assert len(DeadCode().run(p)) == before

    def test_removes_only_dead_branch(self):
        p = parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","fact","k",0);
            X_3 := aggr.sum(X_2);
            X_4 := aggr.count(X_2);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.fact","n","lng",X_4);
            sql.exportResult(X_10);
        """)
        out = DeadCode().run(p)
        assert all(i.function != "sum" for i in out)
        assert any(i.function == "count" for i in out)


class TestCse:
    def test_merges_duplicate_binds(self, catalog):
        p = parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","fact","k",0);
            X_3 := sql.bind(X_1,"sys","fact","k",0);
            X_4 := aggr.count(X_2);
            X_5 := aggr.count(X_3);
            X_6 := calc.add(X_4,X_5);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.fact","n","lng",X_6);
            sql.exportResult(X_10);
        """)
        out = CommonSubexpression().run(p)
        binds = [i for i in out if i.function == "bind"]
        counts = [i for i in out if i.function == "count"]
        assert len(binds) == 1 and len(counts) == 1
        assert Interpreter(catalog).run(out).rows() == [(8000,)]

    def test_does_not_merge_allocators(self):
        p = parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.mvc();
        """)
        assert len(CommonSubexpression().run(p)) == 2

    def test_does_not_merge_side_effects(self):
        p = parse_instruction_text("""
            X_1 := sql.mvc();
            sql.affectedRows(X_1,1);
            sql.affectedRows(X_1,1);
        """)
        assert len(CommonSubexpression().run(p)) == 3


class TestMitosis:
    def test_partitions_binds(self, catalog):
        p = parse_instruction_text(QUERY)
        out = Mitosis(nparts=4, catalog=catalog, threshold_rows=100).run(p)
        binds = [i for i in out if i.function == "bind"]
        assert len(binds) == 4
        assert all(len(b.args) == 7 for b in binds)

    def test_answer_preserved(self, catalog):
        p = parse_instruction_text(QUERY)
        out = Mitosis(nparts=4, catalog=catalog, threshold_rows=100).run(p)
        assert Interpreter(catalog).run(out).rows() == \
            Interpreter(catalog).run(parse_instruction_text(QUERY)).rows()

    def test_respects_threshold(self, catalog):
        p = parse_instruction_text(QUERY)
        before = len(p)
        out = Mitosis(nparts=4, catalog=catalog, threshold_rows=10**9).run(p)
        assert len(out) == before

    def test_small_table_not_chosen(self, catalog):
        p = parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","dim","d",0);
            X_4 := aggr.count(X_2);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.dim","n","lng",X_4);
            sql.exportResult(X_10);
        """)
        before = len(p)
        out = Mitosis(nparts=4, catalog=catalog, threshold_rows=1000).run(p)
        assert len(out) == before

    def test_pack_inserted_for_opaque_consumer(self, catalog):
        p = parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","fact","v",0);
            X_3 := algebra.sortTail(X_2);
            X_4 := aggr.count(X_3);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.fact","n","lng",X_4);
            sql.exportResult(X_10);
        """)
        out = Mitosis(nparts=4, catalog=catalog, threshold_rows=100).run(p)
        assert any(i.qualified_name == "mat.pack" for i in out)
        assert Interpreter(catalog).run(out).rows() == [(4000,)]

    def test_grows_plan_node_count(self, catalog):
        p = parse_instruction_text(QUERY)
        before = len(p)
        out = Mitosis(nparts=8, catalog=catalog, threshold_rows=100).run(p)
        assert len(out) > before

    def test_folded_aggregate_correct_sum(self, catalog):
        text = """
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","fact","v",0);
            X_3 := aggr.sum(X_2);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.fact","s","lng",X_3);
            sql.exportResult(X_10);
        """
        p = parse_instruction_text(text)
        out = Mitosis(nparts=3, catalog=catalog, threshold_rows=100).run(p)
        expected = Interpreter(catalog).run(parse_instruction_text(text)).rows()
        assert Interpreter(catalog).run(out).rows() == expected

    def test_nparts_one_is_identity(self, catalog):
        p = parse_instruction_text(QUERY)
        assert Mitosis(nparts=1, catalog=catalog).run(p) is p

    def test_invalid_nparts(self):
        with pytest.raises(OptimizerError):
            Mitosis(nparts=0)


class TestDataflowPass:
    def test_sets_flag_and_marker(self):
        p = parse_instruction_text("X_1 := sql.mvc();")
        out = Dataflow().run(p)
        assert out.dataflow_enabled
        assert out.instructions[0].qualified_name == "language.dataflow"

    def test_idempotent_marker(self):
        p = parse_instruction_text("X_1 := sql.mvc();")
        out = Dataflow().run(Dataflow().run(p))
        markers = [i for i in out if i.qualified_name == "language.dataflow"]
        assert len(markers) == 1


class TestPipelines:
    def test_default_pipe_preserves_answer(self, catalog):
        pipe = default_pipe(nparts=4, mitosis_threshold=100)
        out = pipe.apply(parse_instruction_text(QUERY))
        assert SimulatedScheduler(catalog, workers=4).run(out).rows() == [(2000,)]

    def test_default_pipe_enables_dataflow(self, catalog):
        pipe = default_pipe(nparts=2, mitosis_threshold=100)
        out = pipe.apply(parse_instruction_text(QUERY))
        assert out.dataflow_enabled

    def test_sequential_pipe_keeps_plan_sequential(self):
        out = sequential_pipe().apply(parse_instruction_text(QUERY))
        assert not out.dataflow_enabled

    def test_reports_capture_deltas(self):
        pipe = minimal_pipe()
        pipe.apply(parse_instruction_text("X_1 := calc.add(1,2);"))
        by_name = {r.name: r for r in pipe.reports}
        assert by_name["constant_fold"].instructions_after == 0

    def test_pipeline_by_name(self):
        assert pipeline_by_name("minimal_pipe").name == "minimal_pipe"
        with pytest.raises(OptimizerError):
            pipeline_by_name("warp_pipe")
