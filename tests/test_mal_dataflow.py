"""Unit tests for the dataflow list schedule."""

import pytest

from repro.errors import MalRuntimeError
from repro.mal import Interpreter, interpreter
from repro.mal.dataflow import SimulatedScheduler
from repro.mal.parser import parse_instruction_text
from repro.storage import Catalog, INT


@pytest.fixture
def catalog():
    cat = Catalog()
    t = cat.schema().create_table("nums", [("a", INT), ("b", INT)])
    t.insert_many([[i, i * 2] for i in range(500)])
    return cat


PARALLEL_TEXT = """
    X_1 := sql.mvc();
    X_2 := sql.bind(X_1,"sys","nums","a",0);
    X_3 := sql.bind(X_1,"sys","nums","b",0);
    X_4 := algebra.thetaselect(X_2,100,">");
    X_5 := algebra.thetaselect(X_3,100,">");
    X_6 := aggr.count(X_4);
    X_7 := aggr.count(X_5);
    X_8 := calc.add(X_6,X_7);
    X_9 := sql.resultSet(1,1);
    X_10 := sql.rsColumn(X_9,"sys.nums","n","lng",X_8);
    sql.exportResult(X_10);
"""


def parallel_program():
    program = parse_instruction_text(PARALLEL_TEXT)
    program.dataflow_enabled = True
    return program


class TestSimulatedScheduler:
    def test_same_answer_as_sequential(self, catalog):
        program = parallel_program()
        seq = Interpreter(catalog).run(parse_instruction_text(PARALLEL_TEXT))
        par = SimulatedScheduler(catalog, workers=4).run(program)
        assert par.rows() == seq.rows()

    def test_parallel_faster_than_sequential_schedule(self, catalog):
        program = parallel_program()
        par = SimulatedScheduler(catalog, workers=4).run(program)
        sequential = parse_instruction_text(PARALLEL_TEXT)  # dataflow off
        seq = SimulatedScheduler(catalog, workers=4).run(sequential)
        assert par.total_usec < seq.total_usec

    def test_dataflow_disabled_uses_single_thread(self, catalog):
        program = parse_instruction_text(PARALLEL_TEXT)
        result = SimulatedScheduler(catalog, workers=4).run(program)
        assert {r.thread for r in result.runs} == {0}

    def test_dataflow_enabled_uses_multiple_threads(self, catalog):
        result = SimulatedScheduler(catalog, workers=4).run(parallel_program())
        assert len({r.thread for r in result.runs}) > 1

    def test_deterministic(self, catalog):
        a = SimulatedScheduler(catalog, workers=3).run(parallel_program())
        b = SimulatedScheduler(catalog, workers=3).run(parallel_program())
        assert [(r.pc, r.start_usec, r.end_usec, r.thread) for r in a.runs] == [
            (r.pc, r.start_usec, r.end_usec, r.thread) for r in b.runs
        ]

    def test_dependencies_respected(self, catalog):
        result = SimulatedScheduler(catalog, workers=4).run(parallel_program())
        ends = {r.pc: r.end_usec for r in result.runs}
        starts = {r.pc: r.start_usec for r in result.runs}
        program = parallel_program()
        for pc, deps in program.dependencies().items():
            for dep in deps:
                assert ends[dep] <= starts[pc], f"pc {pc} started before dep {dep}"

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_listener_stream_in_time_order(self, catalog, workers):
        """Exactly the order a sort of the finished trace by ``(usec,
        pc, start before done)`` gives."""
        events = []
        result = SimulatedScheduler(
            catalog, workers=workers,
            listener=lambda ph, r: events.append(
                (r.start_usec if ph == "start" else r.end_usec, r.pc,
                 ph == "done")
            ),
        ).run(parallel_program())
        assert events == sorted(
            [(r.start_usec, r.pc, False) for r in result.runs]
            + [(r.end_usec, r.pc, True) for r in result.runs])

    def test_zero_workers_rejected(self, catalog):
        with pytest.raises(MalRuntimeError):
            SimulatedScheduler(catalog, workers=0)


class TestListScheduleFailures:
    """What a failing or order-bound plan does on the list schedule."""

    def test_events_start_before_done_per_pc(self, catalog):
        events = []
        SimulatedScheduler(
            catalog, workers=4,
            listener=lambda ph, r: events.append((ph, r.pc)),
        ).run(parallel_program())
        seen_start = set()
        for phase, pc in events:
            if phase == "start":
                seen_start.add(pc)
            else:
                assert pc in seen_start

    def test_error_propagates(self, catalog):
        program = parse_instruction_text(
            'X_1 := sql.mvc();\nX_2 := sql.bind(X_1,"sys","nope","x",0);'
        )
        program.dataflow_enabled = True
        with pytest.raises(Exception):
            SimulatedScheduler(catalog, workers=2).run(program)

    def test_all_instructions_run_once(self, catalog):
        result = SimulatedScheduler(catalog, workers=4).run(
            parallel_program())
        assert sorted(r.pc for r in result.runs) == list(range(11))

    def test_failing_kernel_is_wrapped_with_its_pc(self, catalog):
        program = parallel_program()

        def boom(ctx, instr, inputs):
            raise ValueError("boom")

        program.instructions[5].impl_cache = boom
        with pytest.raises(MalRuntimeError, match=r"pc=5 aggr\.count: boom"):
            SimulatedScheduler(catalog, workers=2).run(program)

    def test_multi_result_arity_is_checked(self, catalog):
        program = parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","nums","a",0);
            (X_3,X_4) := group.new(X_2);
        """)
        program.dataflow_enabled = True
        program.instructions[2].impl_cache = \
            lambda ctx, instr, inputs: (inputs[0], inputs[0], inputs[0])
        with pytest.raises(MalRuntimeError, match="expected 2 results"):
            SimulatedScheduler(catalog, workers=2).run(program)

    def test_side_effects_keep_program_order(self, catalog):
        """Two appends that share no variable: the second is ready long
        before the first (whose input waits for a copy), and must still
        wait for it."""
        program = parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","nums","a",0);
            X_3 := sql.bind(X_1,"sys","nums","b",0);
            X_4 := bat.copy(X_2);
            X_5 := bat.append(X_4,1);
            X_6 := bat.append(X_3,2);
        """)
        program.dataflow_enabled = True
        order = []

        def append(ctx, instr, inputs):
            order.append(instr.pc)
            return inputs[0]

        program.instructions[4].impl_cache = append
        program.instructions[5].impl_cache = append
        SimulatedScheduler(catalog, workers=2).run(program)
        assert order == [4, 5]


class TestLiveRelease:
    def test_a_done_is_heard_before_the_last_instruction_runs(
            self, catalog, monkeypatch):
        """The listener hears events while the run goes on, not in one
        burst after it."""
        executed = []
        execute = interpreter.execute_instruction

        def counted(ctx, instr):
            executed.append(instr.pc)
            return execute(ctx, instr)

        monkeypatch.setattr(interpreter, "execute_instruction", counted)
        heard = []
        result = SimulatedScheduler(
            catalog, workers=4,
            listener=lambda ph, r: heard.append((ph, len(executed))),
        ).run(parallel_program())
        first_done = next(ran for ph, ran in heard if ph == "done")
        assert first_done < len(result.runs)
