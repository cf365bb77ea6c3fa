"""A plan's declared types are its kernels' types.

Every result type in a plan is decided by the signature its kernel is
registered with (``repro.mal.modules.register``), and
``MalProgram.validate`` checks each declared result against it.  These
tests hold the plans to it where it shows:

* every BAT a kernel binds has the tail its variable declares, over the
  TPC-H queries and 200 seeded ``random_query`` statements at ``workers``
  1, 2 and 4 (139 of the TPC-H plans' 1 321 BAT results did not, when
  the compiler declared what it guessed, ``int`` by default);
* every pass of ``default_pipe`` leaves a plan that validates, so a pass
  that mistypes names itself;
* a CASE is typed over all its branches, in the plan and in the result
  set, a folded constant (a nil among them) keeps its declared type, and
  a folded aggregate of an int expression stays int;
* a result set's types are its plan's: every ``sql.rsColumn`` type is
  the declared tail of the value it labels, and an operator whose
  operands do not promote fails at its kernel's signature when the
  statement compiles, before any kernel runs;
* hand-written MAL that declares a type its kernel does not return, or
  calls no kernel, fails ``validate`` naming the pc.
"""

import random

import pytest

import repro.mal.interpreter as interpreter
from repro.errors import MalRuntimeError, MalTypeError
from repro.mal import Interpreter
from repro.mal.ast import MalProgram, Var
from repro.mal.modules import column_atom, lookup
from repro.mal.optimizer import default_pipe
from repro.mal.parser import parse_instruction_text, parse_program
from repro.server.database import Database
from repro.storage import BAT, INT, Catalog
from repro.tpch import QUERIES, populate, query_sql
from repro.workloads import random_query

WORKERS = (1, 2, 4)
RANDOM_STATEMENTS = 200

#: constant scalar expressions, which ``constant_fold`` turns into
#: literals: a nil (``1/0``, ``null + 1``, a CASE that matches nothing)
#: and an unpromoted branch keep the type the plan declared
CONSTANT_EXPRESSIONS = [
    "select 1/0 from lineitem",
    "select null + 1 from lineitem",
    "select case when 1 = 2 then 1 end from lineitem",
    "select case when 1 = 1 then 1 else 2.5 end from lineitem",
    "select l_linenumber + 1/0, l_linenumber * (case when 1 = 2 then 2.5 "
    "end) from lineitem",
    "select case when (select count(*) from nation) > 100 then 2.5 else 1 "
    "end from lineitem",
]


@pytest.fixture(scope="module")
def tpch():
    catalog = Catalog()
    populate(catalog, scale_factor=0.2)
    return catalog


def _statements(randoms=RANDOM_STATEMENTS):
    rng = random.Random(17)
    return [query_sql(name) for name in sorted(QUERIES)] \
        + CONSTANT_EXPRESSIONS + [random_query(rng) for _ in range(randoms)]


#: where the binder once typed a column otherwise than its plan: the BAT
#: of ``cast(1 as bigint)`` holds ints, and an untyped nil projects as int
PLAN_TYPED = [
    "select null from lineitem",
    "select cast(1 as bigint) from lineitem",
]

#: constants beside a scalar aggregate stay constants in ``sql.rsColumn``
CONSTANT_COLUMNS = "select 1, 'a', null, 2.5, count(*) from lineitem"

#: operands or branches that do not promote: a MalTypeError at compile;
#: equal atoms that are not numbers do not promote in arithmetic
ILL_TYPED = [
    "select case when 1 = 1 then 'a' else 1 end from lineitem",
    "select l_comment + 1 from lineitem",
    "select l_shipdate * 2 from lineitem",
    "select l_comment + l_comment from lineitem",
    "select (l_quantity > 10) + (l_quantity > 20) from lineitem",
]


def test_every_bound_bat_has_its_declared_tail(tpch, monkeypatch):
    execute = interpreter.execute_instruction
    checked, wrong = [0], []

    def checking(ctx, instr):
        inputs, outputs = execute(ctx, instr)
        for name, value in zip(instr.results, outputs):
            if isinstance(value, BAT):
                checked[0] += 1
                spec = ctx.program.type_of(name)
                if not spec.is_bat or spec.tail is not value.tail_type:
                    wrong.append(f"{instr.qualified_name}: {name}{spec} "
                                 f"holds {value.tail_type.name}")
        return inputs, outputs

    monkeypatch.setattr(interpreter, "execute_instruction", checking)
    statements = _statements()
    for workers in WORKERS:
        database = Database(catalog=tpch, workers=workers,
                            plan_cache_size=0)
        for sql in statements:
            database.execute(sql)
    assert checked[0] > 10_000
    assert wrong == [], f"{len(wrong)} of {checked[0]}: {wrong[:5]}"


def test_every_pass_of_default_pipe_leaves_a_valid_plan(tpch):
    """What ``Database._plan`` does, validated after each pass; the
    statements ran once first, so ``adaptive_order`` reorders select
    chains by what it observed, and mitosis partitions (threshold 50)."""
    reordered = folded = 0
    for workers in WORKERS:
        database = Database(catalog=tpch, workers=workers,
                            mitosis_threshold=50, plan_cache_size=0)
        for sql in _statements(randoms=28):
            database.execute(sql)
            program = database.compiler.compile_text(sql)
            program.validate()
            reads = tpch.observe(program.tables_read())
            for opt_pass in database._pipeline(scope=reads.scope).passes:
                before = [str(instr) for instr in program.instructions]
                program = opt_pass.run(program)
                program.renumber()
                try:
                    program.validate()
                except (MalRuntimeError, MalTypeError) as exc:
                    pytest.fail(f"{opt_pass.name} on {sql!r}: {exc}")
                after = [str(instr) for instr in program.instructions]
                if opt_pass.name == "adaptive_order" and after != before:
                    reordered += 1
                if opt_pass.name == "mitosis" and any(
                        line.startswith("bat.new") or ":= bat.new" in line
                        for line in after):
                    folded += 1
    assert reordered and folded


def test_a_result_sets_types_are_its_plans(tpch):
    labelled = 0
    for workers in WORKERS:
        database = Database(catalog=tpch, workers=workers,
                            plan_cache_size=0)
        for sql in _statements() + PLAN_TYPED + [CONSTANT_COLUMNS]:
            outcome = database.execute(sql)
            program, types = outcome.program, []
            for instr in program.instructions:
                if instr.qualified_name == "sql.rsColumn":
                    value, type_name = instr.args[4], instr.args[3].value
                    assert (program.type_of(value.name).tail
                            if value.__class__ is Var
                            else column_atom(value, {})).name \
                        == type_name, sql
                    types.append(type_name)
            labelled += len(types)
            assert outcome.execution.result_sets[0].types == types, sql
            if sql in PLAN_TYPED:
                assert types == ["int"], sql
    assert types == ["int", "str", "int", "dbl", "lng"]  # CONSTANT_COLUMNS
    assert labelled > 1_000


@pytest.mark.parametrize("sql", ILL_TYPED)
def test_operands_that_do_not_promote_fail_at_compile(tpch, sql):
    with pytest.raises(MalTypeError, match="do not promote"):
        Database(catalog=tpch).compile(sql)


def test_a_case_is_typed_over_every_branch(tpch):
    sql = ("select case when l_quantity > 10 then 1 else 2.5 end "
           "from lineitem")
    quantities = Database(catalog=tpch).execute(
        "select l_quantity from lineitem").rows
    for workers in WORKERS:
        database = Database(catalog=tpch, workers=workers)
        plan = database.explain(sql)
        assert ":bat[:oid,:dbl] := batcalc.ifthenelse(" in plan
        outcome = database.execute(sql)
        assert outcome.execution.result_sets[0].types == ["dbl"]
        assert outcome.rows == [(1.0 if quantity > 10 else 2.5,)
                                for (quantity,) in quantities]
        assert all(type(value) is float for (value,) in outcome.rows)


def test_a_folded_constant_keeps_its_declared_type(tpch):
    """A folded nil or unpromoted branch once failed ``validate`` after
    ``constant_fold``; each column is the type the result set states, and
    a scalar CASE casts the branch it takes, as the BAT one does."""
    expected = {
        CONSTANT_EXPRESSIONS[0]: (["dbl"], (None,)),
        CONSTANT_EXPRESSIONS[1]: (["int"], (None,)),
        CONSTANT_EXPRESSIONS[2]: (["int"], (None,)),
        CONSTANT_EXPRESSIONS[3]: (["dbl"], (1.0,)),
        CONSTANT_EXPRESSIONS[4]: (["dbl", "dbl"], (None, None)),
        CONSTANT_EXPRESSIONS[5]: (["dbl"], (1.0,)),
    }
    for workers in WORKERS:
        database = Database(catalog=tpch, workers=workers)
        for sql, (types, row) in expected.items():
            outcome = database.execute(sql)
            assert outcome.execution.result_sets[0].types == types, sql
            assert set(outcome.rows) == {row}, sql
            assert [type(value) for value in outcome.rows[0]] == [
                type(value) for value in row], sql


def test_a_printed_plan_parses_back_to_the_same_answer(tpch):
    """A typed nil prints with its type (``bat.new(nil:oid,nil:int)`` of
    a partitioned fold, a folded ``1/0``), so EXPLAIN text reads back
    into a plan that validates and answers as the original does."""
    database = Database(catalog=tpch, workers=2, mitosis_threshold=50)
    for sql in ["select sum(l_linenumber), max(l_quantity) from lineitem "
                "where l_discount < 0.05"] + CONSTANT_EXPRESSIONS[:5]:
        program = parse_program(database.explain(sql))
        program.validate()
        assert Interpreter(tpch).run(program).rows() == \
            database.execute(sql).rows, sql


def test_scalar_booleans_are_bits():
    assert lookup("calc", "and")(None, None, [1, 2]) is True
    assert lookup("calc", "or")(None, None, [0, "x"]) is True
    assert lookup("calc", "and")(None, None, [0, 2]) is False


def test_a_folded_aggregate_of_an_expression_keeps_its_type(tpch):
    """Mitosis folds partials in a BAT of the aggregate's own type, now
    the kernel's; it once widened any int expression to dbl, so these
    were floats at ``workers`` 2 and 4 and ints at 1."""
    sql = ("select sum(l_linenumber + 1), min(l_linenumber * 2), "
           "max(l_linenumber - 1), count(l_linenumber) from lineitem "
           "where l_discount < 0.05")
    rows = [Database(catalog=tpch, workers=workers).execute(sql).rows[0]
            for workers in WORKERS]
    assert rows[1:] == rows[:-1]
    for row in rows:
        assert [type(value) for value in row] == [int] * 4, rows


@pytest.fixture
def items():
    catalog = Catalog()
    catalog.schema().create_table("t", [("x", INT)]).insert_many(
        [[1], [2], [3]])
    return catalog


def _program(declared: str) -> MalProgram:
    return parse_instruction_text(f"""
        X_1 := sql.mvc();
        X_2:bat[:oid,:int] := sql.bind(X_1,"sys","t","x",0);
        X_3{declared} := batcalc.gt(X_2,1);
        X_4 := algebra.select(X_3,true);
        X_5 := aggr.count(X_4);
        X_6 := sql.resultSet(1,1);
        X_7 := sql.rsColumn(X_6,"sys.t","n","lng",X_5);
        sql.exportResult(X_7);
    """)


def test_a_declared_type_its_kernel_does_not_return_fails_validate(items):
    with pytest.raises(MalTypeError, match=r"pc=2: batcalc\.gt declares "
                       r"X_3:bat\[:oid,:int\] but returns :bat\[:oid,:bit\]"):
        _program(":bat[:oid,:int]").validate()
    with pytest.raises(MalTypeError, match="pc=2"):
        Interpreter(items).run(_program(":bat[:oid,:int]"))
    for declared in ("", ":bat[:oid,:bit]"):  # any, and the right type
        assert Interpreter(items).run(_program(declared)).rows() == [(2,)]


def test_hand_written_operands_that_do_not_promote_fail_validate():
    for text in ('X_1:str := calc.add("a","b");', 'X_1 := calc.add("a",1);'):
        with pytest.raises(MalTypeError, match=r"pc=0: calc\.add: operands "
                           r"str and (str|int) do not promote"):
            parse_instruction_text(text).validate()
    parse_instruction_text('X_1:str := calc.min("a","b");').validate()


def test_an_instruction_no_kernel_implements_fails_at_compile_time():
    program = parse_instruction_text("""
        X_1 := sql.mvc();
        X_2 := batcalc.nosuch(X_1);
        sql.exportResult(X_2);
    """)
    with pytest.raises(MalRuntimeError, match=r"pc=\d+: unknown MAL "
                       r"instruction batcalc\.nosuch"):
        default_pipe().apply(program)
