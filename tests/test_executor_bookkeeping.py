"""What a run keeps besides its results: the RSS figure and ``stmt``.

``EvalContext.rss`` is maintained where a value is bound
(``EvalContext.bind``) instead of being summed over the whole
environment after every instruction; ``EvalContext.rss_bytes()`` stays
as the definition.  The property here is that the two agree at *every*
instruction boundary — checked from inside the run, by wrapping the
function every engine executes an instruction through — for
the benchmark's TPC-H statements, generated statements and hand-built
programs whose kernels grow a BAT that is already bound, under every
engine — the list schedule also with a listener attached, so its live
release runs while the figures are checked.

The second half are counting guards that time nothing: a run nobody
listens to renders no statement text and asks a BAT for its bytes at
most once per binding, and an executed instruction costs a bounded
number of Python-level calls in the executor modules.
"""

import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.mal.interpreter as interpreter
from repro.mal import Interpreter
from repro.mal.dataflow import SimulatedScheduler
from repro.mal.ast import Var
from repro.mal.debugger import MalDebugger
from repro.mal.parser import parse_instruction_text
from repro.mal.printer import format_instruction
from repro.profiler import Profiler
from repro.server.database import Database
from repro.storage import INT, STR, Catalog, naive
from repro.storage.bat import BAT
from repro.storage.types import nil
from repro.tpch import QUERIES, populate, query_sql
from repro.workloads import random_query

class Heard(list):
    """A listener that keeps the ``(kind, record)`` stream it hears."""

    def __call__(self, kind, record):
        self.append((kind, record))


ENGINES = {
    "interpreter": lambda cat: Interpreter(cat),
    "simulated_w1": lambda cat: SimulatedScheduler(cat, workers=1),
    "simulated_w4": lambda cat: SimulatedScheduler(cat, workers=4),
    "listened_w4": lambda cat: SimulatedScheduler(cat, workers=4,
                                                  listener=Heard()),
}


class Boundaries:
    """Wraps the function an instruction is executed through; after each
    call the maintained figure must be the recomputed one."""

    def __init__(self, monkeypatch) -> None:
        self.checked = 0
        self.after = {}  # id(ctx) -> (ctx, {pc: rss after that pc})
        monkeypatch.setattr(interpreter, "execute_instruction",
                            self.checking(interpreter.execute_instruction))

    def checking(self, function):
        def checked(ctx, instr):
            out = function(ctx, instr)
            assert ctx.rss == ctx.rss_bytes(), \
                f"pc={instr.pc} {instr.qualified_name}"
            self.checked += 1
            self.after.setdefault(id(ctx), (ctx, {}))[1][instr.pc] = ctx.rss
            return out
        return checked

    def run(self, engine, program):
        """Run ``program``; every boundary was checked, and the run's
        records carry the figure of theirs."""
        before = self.checked
        result = engine.run(program)
        assert self.checked - before >= len(program)
        # the run's own context is the one that saw every pc
        seen = next(after for _ctx, after in self.after.values()
                    if len(after) == len(program))
        assert {r.pc: r.rss_bytes for r in result.runs} == seen
        heard = getattr(engine, "listener", None)
        if heard is not None:
            # released live, the stream is still each run's start and
            # done in clock order, carrying the figures checked above
            order = sorted((usec, r.pc, done) for r in result.runs
                           for usec, done in ((r.start_usec, False),
                                              (r.end_usec, True)))
            assert [(kind, r.pc) for kind, r in heard] == [
                ("done" if done else "start", pc) for _u, pc, done in order]
            assert {r.pc: r.rss_bytes for _kind, r in heard} == seen
        self.after.clear()
        return result


@pytest.fixture(scope="module")
def catalog():
    cat = Catalog()
    populate(cat, scale_factor=0.05, seed=7)
    return cat


@pytest.fixture(scope="module")
def database(catalog):
    db = Database(catalog=catalog, workers=4, mitosis_threshold=50)
    yield db
    db.close()


@pytest.fixture()
def boundaries(monkeypatch):
    return Boundaries(monkeypatch)


class TestMaintainedRssIsTheRecomputedOne:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_tpch_in_process(self, query, engine, database, boundaries):
        program = database.compile(query_sql(query))
        boundaries.run(ENGINES[engine](database.catalog), program)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_tpch_at_eight_partitions(self, query, engine, catalog,
                                      boundaries):
        """Twice the partition binds, slices and packs of the plans
        above, each bound while its siblings may still be live."""
        db = Database(catalog=catalog, workers=8, mitosis_threshold=50)
        try:
            program = db.compile(query_sql(query))
            boundaries.run(ENGINES[engine](catalog), program)
        finally:
            db.close()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           engine=st.sampled_from(sorted(ENGINES)))
    def test_generated_statements(self, seed, engine, database):
        program = database.compile(random_query(random.Random(seed)))
        # hypothesis forbids function-scoped fixtures: patch by hand
        with pytest.MonkeyPatch.context() as patch:
            Boundaries(patch).run(ENGINES[engine](database.catalog), program)

    GROWING = """
        X_1 := sql.mvc();
        X_2 := sql.bind(X_1,"sys","t","x",0);
        X_3 := sql.bind(X_1,"sys","t","s",0);
        X_4:bat[:oid,:int] := bat.new(nil:oid,nil:int);
        X_5 := bat.append(X_4,7);
        X_6 := bat.insert(X_5,X_2);
        X_7:bat[:oid,:str] := bat.new(nil:oid,nil:str);
        X_8 := bat.append(X_7,"a longer string than most");
        X_9 := bat.insert(X_8,X_3);
        X_10 := bat.append(X_9,nil);
        X_11 := sql.append(X_1,"sys","t","x",X_6);
        X_12 := sql.append(X_11,"sys","t","s",X_10);
        X_13 := bat.copy(X_2);
        X_14 := aggr.count(X_3);
    """

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_kernels_that_grow_a_bound_bat(self, engine, boundaries):
        """``bat.append``/``bat.insert`` return the BAT they grew, so
        two names share it; ``sql.append`` grows a catalog column that
        ``sql.bind`` already bound.  Every stale addend is re-read."""
        cat = Catalog()
        table = cat.schema().create_table("t", [("x", INT), ("s", STR)])
        table.insert_many([[i, "v" * i] for i in range(9)])
        program = parse_instruction_text(self.GROWING)
        program.dataflow_enabled = True
        result = boundaries.run(ENGINES[engine](cat), program)
        assert len(cat.bind("sys", "t", "x")) == 9 + 1 + 9
        rss = {r.pc: r.rss_bytes for r in result.runs}
        # sql.append grew the column X_3 names; no binding says so
        assert rss[11] - rss[10] > naive.bat_bytes(
            BAT(STR, ["v" * i for i in range(9)]))

    def test_rebinding_a_name_subtracts_what_it_held(self, catalog):
        ctx = interpreter.EvalContext(catalog)
        small, big = BAT(INT, [1]), BAT(STR, ["abc", nil, "de"])
        ctx.bind("a", small)
        ctx.bind("b", small)      # one BAT under two names counts twice
        ctx.bind("n", 5)
        assert ctx.rss == ctx.rss_bytes() == 2 * small.bytes()
        ctx.bind("a", big)
        ctx.bind("b", "scalar now")
        assert ctx.rss == ctx.rss_bytes() == big.bytes()


class LastReaders:
    """Wraps the function an instruction is executed through.  Before
    each instruction a run executes, every BAT its environment holds
    must still have a reader that has not run (the instruction about to
    run counts); a run's environment ends empty."""

    def __init__(self, monkeypatch) -> None:
        self.ctx = None
        self.runs = self.checked = 0
        monkeypatch.setattr(interpreter, "execute_instruction",
                            self.checking(interpreter.execute_instruction))

    def checking(self, function):
        def checked(ctx, instr):
            if ctx is not self.ctx:
                self.finish()
                self.start(ctx)
            held = [name for name, value in ctx.env.items()
                    if isinstance(value, BAT)
                    and not self.readers.get(name, set()) - self.ran]
            assert held == [], f"before pc={instr.pc}: nobody reads {held}"
            out = function(ctx, instr)
            self.ran.add(id(instr))
            self.checked += 1
            return out
        return checked

    def start(self, ctx) -> None:
        self.ctx, self.ran, self.readers = ctx, set(), {}
        for instr in ctx.program.instructions:
            for arg in instr.args:
                if isinstance(arg, Var):
                    self.readers.setdefault(arg.name, set()).add(id(instr))

    def finish(self) -> None:
        """The last run checked let go of everything it bound."""
        if self.ctx is not None:
            assert self.ctx.env == {}, sorted(self.ctx.env)
            self.runs += 1
            self.ctx = None


class TestReleasedAfterLastReader:
    """A run drops each value from its environment once every
    instruction that reads it has run, whichever order the policy runs
    them in, and a value nobody reads right after it is bound; the
    modelled RSS still counts every BAT bound (``EvalContext.rss_bytes``
    sizes the released ones)."""

    @pytest.fixture()
    def last_readers(self, monkeypatch):
        return LastReaders(monkeypatch)

    @pytest.mark.parametrize("engine", ["list_schedule", "interpreter"])
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_tpch(self, query, workers, engine, catalog, last_readers):
        db = Database(catalog=catalog, workers=workers,
                      mitosis_threshold=50)
        try:
            program = db.compile(query_sql(query))
            if engine == "interpreter":
                result = Interpreter(catalog).run(program)
            else:
                result = db.run_program(program)
        finally:
            db.close()
        last_readers.finish()
        assert last_readers.runs == 1
        assert last_readers.checked == len(result.runs) == len(program)

    def test_generated_statements(self, database, last_readers):
        rows = 0
        for seed in range(200):
            outcome = database.execute(random_query(random.Random(seed)))
            rows += len(outcome.rows)
        last_readers.finish()
        assert last_readers.runs == 200 and rows > 0

    PASS_FIRST = """
        X_1 := sql.mvc();
        X_2 := sql.bind(X_1,"sys","t","x",0);
        X_3 := sql.bind(X_1,"sys","t","y",0);
        X_4 := algebra.thetaselect(X_2,100,">");
        X_5 := bat.mirror(X_4);
        X_6 := algebra.leftjoin(X_5,X_3);
        X_7 := algebra.thetaselect(X_6,600,">");
        X_8 := algebra.semijoin(X_5,X_7);
        language.pass(X_5);
        X_9 := aggr.count(X_8);
        X_10 := sql.resultSet(1,1);
        X_11 := sql.rsColumn(X_10,"sys.t","n","lng",X_9);
        sql.exportResult(X_11);
    """

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_a_pass_run_before_the_last_reader(self, workers, last_readers):
        """``language.pass(X_5)`` waits only for X_5's definition, so
        the list schedule runs it before ``algebra.semijoin``, which
        also reads X_5 but waits for the select after the fetch: a run
        that released at the pass would find X_5 gone."""
        cat = Catalog()
        table = cat.schema().create_table("t", [("x", INT), ("y", INT)])
        table.insert_many([[i, 2 * i] for i in range(500)])
        program = parse_instruction_text(self.PASS_FIRST)
        program.dataflow_enabled = True
        result = SimulatedScheduler(cat, workers=workers).run(program)
        order = [run.pc for run in result.runs]
        assert order.index(8) < order.index(7)  # the pass, the semijoin
        assert result.rows() == [(199,)]  # 300 < x < 500
        assert Interpreter(cat).run(
            parse_instruction_text(self.PASS_FIRST)).rows() == [(199,)]
        last_readers.finish()
        assert last_readers.runs == 2

    @staticmethod
    def growing_catalog():
        cat = Catalog()
        table = cat.schema().create_table("t", [("x", INT), ("s", STR)])
        table.insert_many([[i, "v" * i] for i in range(9)])
        return cat

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_released_aliases_keep_the_rss(self, engine, monkeypatch):
        """The GROWING plan releases X_4 once ``bat.append`` has
        returned its BAT as X_5, and ``bat.insert`` grows that BAT
        further: the released name is counted at the BAT's current size,
        as it was while the name was bound.  So the figure is the
        recomputed one at every boundary, and in program order it is,
        pc by pc, that of the MAL debugger, which releases nothing."""
        boundaries = Boundaries(monkeypatch)
        executed = interpreter.execute_instruction
        aliased = []  # pcs after which a released BAT is bound again

        def watching(ctx, instr):
            out = executed(ctx, instr)
            bound = {id(value) for value in ctx.env.values()}
            if any(id(ref()) in bound for ref, _size in ctx.released):
                aliased.append(instr.pc)
            return out

        monkeypatch.setattr(interpreter, "execute_instruction", watching)
        grow = TestMaintainedRssIsTheRecomputedOne.GROWING
        program = parse_instruction_text(grow)
        program.dataflow_enabled = True
        result = boundaries.run(ENGINES[engine](self.growing_catalog()),
                                program)
        assert 5 in aliased  # bat.insert grew what X_4 named
        if engine == "interpreter":
            debugger = MalDebugger(self.growing_catalog(),
                                   parse_instruction_text(grow))
            kept = []
            while debugger.step() is not None:
                kept.append(debugger.ctx.rss)
            assert [run.rss_bytes for run in result.runs] == kept
            assert len(debugger.ctx.env) == len(program)


class TestStringFootprint:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.text(max_size=12), st.none()),
                    max_size=30), st.booleans())
    def test_bytes_equals_the_nil_aware_sum(self, values, void):
        head = None if void else list(range(len(values)))
        bat = BAT(STR, values, head=head)
        expected = sum(8 if v is None else 8 + len(v) for v in values) \
            + (0 if void else 8 * len(values))
        assert bat.bytes() == expected == naive.bat_bytes(bat)

    def test_with_and_without_nils(self):
        assert BAT(STR, ["ab", "", "cde"]).bytes() == 3 * 8 + 5
        assert BAT(STR, ["ab", nil, "cde"]).bytes() == 3 * 8 + 5
        assert BAT(STR, [nil, nil]).bytes() == 16
        assert BAT(STR, []).bytes() == 0


class TestNothingIsComputedForNobody:
    """Counts, not clocks.  Before this change a q1 nobody listened to
    rendered every instruction once and, after each of them, asked
    every BAT in the environment for its bytes."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        calls = {"format": 0, "bytes": 0, "bound": 0}
        real_format, real_bytes = format_instruction, BAT.bytes
        real_execute = interpreter.execute_instruction

        def counting_format(instr, program=None):
            calls["format"] += 1
            return real_format(instr, program)

        def counting_bytes(bat):
            calls["bytes"] += 1
            return real_bytes(bat)

        def counting_execute(ctx, instr):
            inputs, outputs = real_execute(ctx, instr)
            calls["bound"] += sum(isinstance(out, BAT) for out in outputs)
            return inputs, outputs

        monkeypatch.setattr(interpreter, "format_instruction",
                            counting_format)
        monkeypatch.setattr(BAT, "bytes", counting_bytes)
        monkeypatch.setattr(interpreter, "execute_instruction",
                            counting_execute)
        return calls

    def test_a_listenerless_q1_formats_nothing(self, database, counts):
        outcome = database.execute(query_sql("q1"))
        assert len(outcome.execution.runs) > 100
        assert counts["format"] == 0

    def test_a_listenerless_q1_sizes_a_bat_once_per_binding(self, database,
                                                            counts):
        database.execute(query_sql("q1"))
        assert 0 < counts["bytes"] <= counts["bound"]

    def test_whoever_reads_stmt_gets_the_plan_text(self, database, counts):
        profiler = Profiler()
        outcome = database.execute(query_sql("q1"), listener=profiler)
        program = outcome.program
        assert counts["format"] > 0
        by_pc = {i.pc: format_instruction(i, program) for i in program}
        assert all(e.stmt == by_pc[e.pc] for e in profiler.events)
        run = outcome.execution.runs[0]
        before = counts["format"]
        assert run.stmt == by_pc[run.pc] and run.stmt is run.stmt
        assert counts["format"] <= before + 1  # rendered once, then kept


class TestScaffoldingIsCounted:
    """A count, not a clock (CI runs this class by name, "An
    instruction's scaffolding is counted"): over a warm round of the 11
    timed TPC-H queries (scale 0.1, ``workers=2``, 1 119 instructions),
    the Python-level calls whose code is in ``repro/mal/interpreter.py``
    or ``repro/mal/dataflow.py``, plus the dataclass-generated
    ``__init__`` they call, per executed instruction.

    ``sys.setprofile`` sees every call and no time, so the figure is
    exact under any ``PYTHONHASHSEED``.  It reads 5.21: ``step``,
    ``execute_instruction`` and its argument comprehension,
    ``cost_usec`` and the run record's ``__init__``, plus what a run
    makes once.  It was 16.71 while ``step`` asked ``begin``/``finish``
    for its clock and ``_first_bat_rows`` for its cardinalities,
    ``execute_instruction`` resolved its kernel, read each argument and
    bound each result through a method, and the list schedule counted
    successors down through ``ReadySet.complete`` and a generator per
    successor.  The bound is the count + 10 %.
    """

    CALLS_PER_INSTRUCTION_BOUND = 5.73
    NAMES = ("demo", "q1", "q3", "q4", "q5", "q6", "q10", "q12", "q17",
             "q18", "q19")
    EXECUTOR = ("repro/mal/interpreter.py", "repro/mal/dataflow.py")

    def test_an_instruction_pays_a_bounded_number_of_calls(self):
        cat = Catalog()
        populate(cat, scale_factor=0.1)
        db = Database(catalog=cat, workers=2)
        executor = self.EXECUTOR
        calls = [0]

        def profile(frame, event, _arg):
            if event != "call":
                return
            code = frame.f_code
            if code.co_filename.endswith(executor) or (
                    code.co_filename == "<string>"
                    and code.co_name == "__init__"
                    and frame.f_back.f_code.co_filename.endswith(executor)):
                calls[0] += 1

        try:
            texts = [query_sql(name) for name in self.NAMES]
            for sql in texts:
                db.execute(sql)
            instructions = 0
            sys.setprofile(profile)
            try:
                for sql in texts:
                    instructions += len(db.execute(sql).execution.runs)
            finally:
                sys.setprofile(None)
        finally:
            db.close()
        assert instructions == 1119
        per_instruction = calls[0] / instructions
        assert per_instruction <= self.CALLS_PER_INSTRUCTION_BOUND, \
            f"{per_instruction:.2f} executor calls per instruction"
