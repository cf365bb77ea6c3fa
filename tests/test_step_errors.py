"""The typed errors of the executor step, pinned case by case.

Every instruction goes through one step (``Execution.step`` around
``execute_instruction``) whichever policy drives it.  Whatever that step
is made of, these failures keep their exception type and their message:

* an argument naming an unbound variable;
* a multi-result instruction whose kernel returns the wrong arity;
* a kernel's own exception, wrapped as ``pc=… module.fn: …``;
* a kernel's own :class:`MalRuntimeError`, passed through unwrapped;
* cancellation, a deadline and an RSS budget, found at an instruction
  boundary;
* an injected ``scheduler.worker`` crash, and a stall that outlasts a
  deadline.
"""

import pytest

from repro.errors import (MalRuntimeError, QueryBudgetError,
                          QueryCancelledError, QueryDeadlineError,
                          WorkerCrashError)
from repro.faults import FaultPlan, armed
from repro.mal import Interpreter
from repro.mal.ast import MalInstruction, Var
from repro.mal.dataflow import SimulatedScheduler
from repro.mal.interpreter import EvalContext, execute_instruction
from repro.mal.parser import parse_instruction_text
from repro.server.lifecycle import QueryContext
from repro.storage import INT, Catalog

TEXT = """
    X_1 := sql.mvc();
    X_2 := sql.bind(X_1,"sys","t","a",0);
    X_3 := sql.bind(X_1,"sys","t","b",0);
    X_4 := algebra.thetaselect(X_2,10,">");
    X_5 := aggr.count(X_4);
    X_6 := aggr.count(X_3);
    X_7 := calc.add(X_5,X_6);
    X_8 := sql.resultSet(1,1);
    X_9 := sql.rsColumn(X_8,"sys.t","n","lng",X_7);
    sql.exportResult(X_9);
"""

ENGINES = {
    "interpreter": lambda cat: Interpreter(cat),
    "simulated_w1": lambda cat: SimulatedScheduler(cat, workers=1),
    "simulated_w3": lambda cat: SimulatedScheduler(cat, workers=3),
}


def catalog():
    cat = Catalog()
    table = cat.schema().create_table("t", [("a", INT), ("b", INT)])
    table.insert_many([[i, i % 7] for i in range(40)])
    return cat


def program(text=TEXT):
    plan = parse_instruction_text(text)
    plan.dataflow_enabled = True
    return plan


def run(engine, plan, context=None):
    cat = catalog()
    return ENGINES[engine](cat).run(plan, context)


def undefined_variable(engine):
    # a validated plan binds every name it reads, so only a step taken
    # outside ``run`` (the debugger's) can meet an unbound one
    instr = MalInstruction(["X_2"], "aggr", "count", [Var("X_1")], pc=4)
    execute_instruction(EvalContext(catalog()), instr)


def arity_mismatch(engine):
    run(engine, program("""
        X_1 := sql.mvc();
        X_2 := sql.bind(X_1,"sys","t","a",0);
        (X_3,X_4) := group.new(X_2);
    """))


def kernel_exception(engine):
    plan = program()

    def boom(ctx, instr, inputs):
        raise ValueError("boom")

    plan.instructions[5].impl_cache = boom
    run(engine, plan)


def kernel_mal_error(engine):
    plan = program()

    def own(ctx, instr, inputs):
        raise MalRuntimeError("the kernel's own words")

    plan.instructions[4].impl_cache = own
    run(engine, plan)


def cancelled_mid_run(engine):
    plan = program()
    context = QueryContext("q7", "select")
    context.mark_running()
    kernel = plan.instructions[4]

    def cancelling(ctx, instr, inputs):
        context.cancel("client asked")
        return 3

    kernel.impl_cache = cancelling
    run(engine, plan, context)


def deadline_passed(engine):
    context = QueryContext("q8", "select", deadline_s=0.0)
    context.mark_running()
    run(engine, program(), context)


def rss_budget(engine):
    context = QueryContext("q9", "select", rss_budget_bytes=100)
    context.mark_running()
    run(engine, program(), context)


def injected_crash(engine):
    with armed(FaultPlan(seed=3).on("scheduler.worker", "crash", limit=1)):
        run(engine, program())


def stall_past_deadline(engine):
    # the first instruction stalls 60 ms; the next boundary finds the
    # 20 ms deadline gone
    with armed(FaultPlan(seed=3).on("scheduler.worker", "stall",
                                    value=60_000, limit=1)):
        context = QueryContext("q10", "select", deadline_s=0.02)
        context.mark_running()
        run(engine, program(), context)


#: name -> (raise it, engines it applies to, exact type, exact message)
CASES = {
    "undefined_variable": (undefined_variable, ["interpreter"],
                           MalRuntimeError, "undefined variable X_1"),
    "arity_mismatch": (arity_mismatch, sorted(ENGINES), MalRuntimeError,
                       "pc=2 group.new: expected 2 results"),
    "kernel_exception": (kernel_exception, sorted(ENGINES),
                         MalRuntimeError, "pc=5 aggr.count: boom"),
    "kernel_mal_error": (kernel_mal_error, sorted(ENGINES),
                         MalRuntimeError, "the kernel's own words"),
    "cancelled_mid_run": (cancelled_mid_run, sorted(ENGINES),
                          QueryCancelledError,
                          "query q7 cancelled: client asked"),
    "deadline_passed": (deadline_passed, sorted(ENGINES),
                        QueryDeadlineError,
                        "query q8 cancelled: deadline of 0s exceeded"),
    "rss_budget": (rss_budget, sorted(ENGINES), QueryBudgetError,
                   "query q9 cancelled: rss 160 bytes exceeds budget of "
                   "100 bytes"),
    # the interpreter's policy injects no fault: only the list schedule
    "injected_crash": (injected_crash, ["simulated_w1", "simulated_w3"],
                       WorkerCrashError,
                       "injected crash of worker 0 at pc=0"),
    "stall_past_deadline": (stall_past_deadline,
                            ["simulated_w1", "simulated_w3"],
                            QueryDeadlineError,
                            "query q10 cancelled: deadline of 0.02s "
                            "exceeded"),
}


@pytest.mark.parametrize("case, engine", [
    (case, engine) for case, (_f, engines, _t, _m) in sorted(CASES.items())
    for engine in engines])
def test_the_step_fails_typed(case, engine):
    raising, _engines, error, message = CASES[case]
    with pytest.raises(error) as caught:
        raising(engine)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_a_wrapped_kernel_error_keeps_its_cause():
    with pytest.raises(MalRuntimeError) as caught:
        kernel_exception("simulated_w3")
    assert isinstance(caught.value.__cause__, ValueError)


def test_a_plan_that_stops_failing_runs_through():
    """The plan behind the cases is sound: unbroken, it answers."""
    for engine in ENGINES:
        assert run(engine, program()).rows() == [(69,)]
