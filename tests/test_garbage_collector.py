"""Tests for the garbage-collector optimizer pass."""

import pytest

from repro.mal import Interpreter
from repro.mal.ast import Var
from repro.mal.optimizer import GarbageCollector, default_pipe
from repro.mal.parser import parse_instruction_text
from repro.storage import Catalog, INT

TEXT = """
    X_1 := sql.mvc();
    X_2:bat[:oid,:int] := sql.bind(X_1,"sys","t","x",0);
    X_3:bat[:oid,:int] := algebra.thetaselect(X_2,3,">");
    X_4 := aggr.count(X_3);
    X_9 := sql.resultSet(1,1);
    X_10 := sql.rsColumn(X_9,"sys.t","n","lng",X_4);
    sql.exportResult(X_10);
"""


@pytest.fixture
def catalog():
    cat = Catalog()
    t = cat.schema().create_table("t", [("x", INT)])
    t.insert_many([[i] for i in range(10)])
    return cat


def passes_of(program):
    return [
        i.args[0].name for i in program
        if i.qualified_name == "language.pass" and i.args
    ]


class TestGarbageCollector:
    def test_releases_bats_after_last_use(self):
        out = GarbageCollector().run(parse_instruction_text(TEXT))
        released = passes_of(out)
        assert "X_2" in released and "X_3" in released

    def test_release_placed_after_last_use(self):
        out = GarbageCollector().run(parse_instruction_text(TEXT))
        out.renumber()  # a pass leaves pcs to Pipeline.apply
        release_pc = next(
            i.pc for i in out
            if i.qualified_name == "language.pass"
            and i.args and i.args[0].name == "X_2"
        )
        last_use_pc = max(
            i.pc for i in out
            if i.qualified_name != "language.pass"
            and "X_2" in list(i.uses())
        )
        assert release_pc == last_use_pc + 1

    def test_scalars_not_released(self):
        out = GarbageCollector().run(parse_instruction_text(TEXT))
        assert "X_4" not in passes_of(out)  # aggr result is scalar (untyped
        # in this text, hence not provably a BAT)

    def test_protected_sources_not_released(self):
        out = GarbageCollector().run(parse_instruction_text(TEXT))
        released = passes_of(out)
        assert "X_1" not in released
        assert "X_9" not in released and "X_10" not in released

    def test_idempotent(self):
        once = GarbageCollector().run(parse_instruction_text(TEXT))
        twice = GarbageCollector().run(once)
        assert len(twice) == len(once)

    def test_answer_unchanged(self, catalog):
        program = parse_instruction_text(TEXT)
        base = Interpreter(catalog).run(program).rows()
        collected = GarbageCollector().run(parse_instruction_text(TEXT))
        assert Interpreter(catalog).run(collected).rows() == base

    def test_default_pipe_inserts_releases(self, catalog):
        from repro.sqlfe import compile_sql

        pipe = default_pipe(nparts=2, mitosis_threshold=1)
        program = pipe.apply(
            compile_sql(catalog, "select count(*) from t where x > 3")
        )
        assert any(
            i.qualified_name == "language.pass" for i in program
        )
        from repro.mal.dataflow import SimulatedScheduler

        assert SimulatedScheduler(catalog, workers=2).run(program).rows() \
            == [(6,)]

    def test_validates_after_pass(self):
        out = GarbageCollector().run(parse_instruction_text(TEXT))
        out.validate()
