"""Unit tests for the dataflow schedulers (simulated and threaded)."""

import sys
import threading
import time

import pytest

from repro.errors import MalRuntimeError
from repro.mal import Interpreter
from repro.mal.dataflow import SimulatedScheduler, ThreadedScheduler
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

    def test_listener_stream_in_time_order(self, catalog):
        events = []
        SimulatedScheduler(
            catalog, workers=4,
            listener=lambda ph, r: events.append(
                (r.start_usec if ph == "start" else r.end_usec, ph, r.pc)
            ),
        ).run(parallel_program())
        times = [e[0] for e in events]
        assert times == sorted(times)
        assert sum(1 for e in events if e[1] == "start") == len(events) // 2

    def test_zero_workers_rejected(self, catalog):
        with pytest.raises(MalRuntimeError):
            SimulatedScheduler(catalog, workers=0)


class TestThreadedScheduler:
    def test_same_answer_as_sequential(self, catalog):
        program = parallel_program()
        seq = Interpreter(catalog).run(parse_instruction_text(PARALLEL_TEXT))
        par = ThreadedScheduler(catalog, workers=4, realtime_scale=1e-4).run(program)
        assert par.rows() == seq.rows()

    def test_events_start_before_done_per_pc(self, catalog):
        events = []
        ThreadedScheduler(
            catalog, workers=4, realtime_scale=1e-4,
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
            ThreadedScheduler(catalog, workers=2, realtime_scale=0).run(program)

    def test_all_instructions_run_once(self, catalog):
        result = ThreadedScheduler(catalog, workers=4, realtime_scale=0).run(
            parallel_program()
        )
        assert sorted(r.pc for r in result.runs) == list(range(11))

    def test_failing_kernel_is_wrapped_with_its_pc(self, catalog):
        program = parallel_program()

        def boom(ctx, instr, inputs):
            raise ValueError("boom")

        program.instructions[5].impl_cache = boom
        with pytest.raises(MalRuntimeError, match=r"pc=5 aggr\.count: boom"):
            ThreadedScheduler(catalog, workers=2, realtime_scale=0).run(program)

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
            ThreadedScheduler(catalog, workers=2, realtime_scale=0).run(program)

    def test_side_effects_keep_program_order(self, catalog):
        """Two appends that share no variable: the second is ready long
        before the first, and must still wait for it."""
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

        def slow_copy(ctx, instr, inputs):
            time.sleep(0.05)
            return inputs[0]

        def append(ctx, instr, inputs):
            order.append(instr.pc)
            return inputs[0]

        program.instructions[3].impl_cache = slow_copy
        program.instructions[4].impl_cache = append
        program.instructions[5].impl_cache = append
        ThreadedScheduler(catalog, workers=2, realtime_scale=0).run(program)
        assert order == [4, 5]

    def test_stress_more_workers_than_cores(self, catalog):
        """Eight threads contending for the env lock, switching as often
        as the interpreter allows: every instruction still runs exactly
        once and the answer is the sequential one."""
        expected = Interpreter(catalog).run(
            parse_instruction_text(PARALLEL_TEXT)).rows()
        wrong = []

        def hammer():
            try:
                for _ in range(40):
                    result = ThreadedScheduler(
                        catalog, workers=8, realtime_scale=1e-3,
                    ).run(parallel_program())
                    if sorted(r.pc for r in result.runs) != list(range(11)) \
                            or result.rows() != expected:
                        wrong.append(result)
            except Exception as exc:
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=hammer, daemon=True)
            thread.start()
            thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive(), "threaded run did not finish"
        assert not wrong
