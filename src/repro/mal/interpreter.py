"""The MAL executor core: one per-instruction step, one scheduling policy.

Every instruction of a :class:`~repro.mal.ast.MalProgram`, whichever
engine runs it, goes through :meth:`Execution.step`, which produces an
:class:`InstructionRun` record carrying the fields the MonetDB profiler
reports (pc, thread, start/done timestamps in microseconds, elapsed usec,
rss) — listeners such as :class:`repro.profiler.Profiler` turn those into
trace events.  What differs between engines is the scheduling policy that
drives the step: program order on one worker here (:class:`Interpreter`),
list scheduling over N modelled workers in :mod:`repro.mal.dataflow`.

A trace has a record per instruction, ``language.pass`` included, so
the step makes five Python-level calls besides the kernel, on a plan
resolved once (``impl_cache``, :class:`ReadySet`);
``tests/test_executor_bookkeeping.py`` counts them.  After the kernel
the step drops each value the instruction was the last to read,
whichever order the policy ran its readers in: a run holds an
intermediate only while an instruction that reads it has still to run.

Timing is *virtual* by default: a deterministic :class:`CostModel` assigns
each instruction a duration from its operator class and input/output
cardinalities, so traces are reproducible across machines.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro.errors import MalRuntimeError, WorkerCrashError
from repro.faults.plan import ACTIVE

if TYPE_CHECKING:  # pragma: no cover — avoids a repro.server import cycle
    from repro.server.lifecycle import QueryContext
from repro.mal.ast import Const, MalInstruction, MalProgram, Var
from repro.mal.modules import lookup
from repro.mal.printer import format_instruction
from repro.metrics.families import (
    MAL_EXECUTIONS,
    MAL_INSTRUCTIONS,
    MAL_INSTRUCTION_USEC,
    MAL_WORKER_UTILIZATION,
)
from repro.storage.bat import BAT
from repro.storage.catalog import Catalog


@dataclass
class InstructionRun:
    """One executed instruction, as the profiler sees it.

    ``start_usec``/``end_usec`` are microsecond timestamps on the query's
    clock; ``usec`` their difference; ``rss_bytes`` the interpreter's
    simulated resident set after the instruction; ``thread`` the worker
    that ran it (always 0 for the sequential interpreter); ``rows`` the
    output cardinality when the result is a BAT; ``rows_in`` the input
    cardinality (first BAT argument), which together with ``rows`` gives
    the stats store an observed selectivity per selection.  The record
    keeps the instruction and its program; ``stmt`` is rendered from
    them the first time somebody reads it, so a run nobody listens to
    formats nothing.
    """

    instr: MalInstruction = field(repr=False)
    program: Optional[MalProgram] = field(repr=False)
    pc: int  # copied: an optimizer pass may renumber ``instr`` later
    start_usec: int
    end_usec: int
    usec: int
    thread: int
    rss_bytes: int
    rows: int
    rows_in: int = 0

    @property
    def module(self) -> str:
        return self.instr.module

    @property
    def function(self) -> str:
        return self.instr.function

    @cached_property
    def stmt(self) -> str:
        """The instruction as the plan prints it (the trace's ``stmt``)."""
        return format_instruction(self.instr, self.program)


#: Listener protocol: called with ("start"|"done", run) around execution.
RunListener = Callable[[str, InstructionRun], None]


class CostModel:
    """Deterministic per-instruction cost, in microseconds.

    Costs are ``base + per_row * rows`` with operator-class coefficients
    (joins cost more per row than scans; sorts get an ``n log n`` term).
    The absolute values are not calibrated against any real machine — the
    Stethoscope cares about *relative* cost structure: which instructions
    dominate, which run long enough to stay RED on screen.
    """

    BASE_USEC = 2.0

    #: (base usec, usec per input row) per operator class.
    _CLASSES = {
        "bind": (5.0, 0.0),
        "scan": (4.0, 0.05),
        "join": (8.0, 0.12),
        "group": (8.0, 0.15),
        "sort": (8.0, 0.0),  # n log n handled separately
        "aggr": (4.0, 0.05),
        "calc": (2.0, 0.04),
        "pack": (4.0, 0.02),
        "admin": (1.0, 0.0),
        "result": (6.0, 0.01),
    }

    _FUNCTION_CLASS = {
        "sql.bind": "bind",
        "sql.tid": "bind",
        "algebra.select": "scan",
        "algebra.thetaselect": "scan",
        "algebra.likeselect": "scan",
        "algebra.leftjoin": "join",
        "algebra.join": "join",
        "algebra.semijoin": "join",
        "algebra.sortTail": "sort",
        "algebra.sortReverseTail": "sort",
        "group.new": "group",
        "group.derive": "group",
        "mat.pack": "pack",
        "sql.resultSet": "result",
        "sql.rsColumn": "result",
        "sql.exportResult": "result",
    }

    #: class of a function the table above does not name, by module
    #: (``admin`` for any other module).
    _MODULE_CLASS = {"calc": "calc", "batcalc": "calc", "bat": "calc",
                     "aggr": "aggr"}

    def __init__(self) -> None:
        #: qualified name -> (base usec, usec per input row, sorts?),
        #: resolved once per name
        self._coefficients: Dict[str, Tuple[float, float, bool]] = {}

    def cost_usec(self, instr: MalInstruction, inputs: Sequence[Any],
                  outputs: Sequence[Any]) -> int:
        """Modelled duration of one instruction execution."""
        coefficients = self._coefficients.get(instr.qualified_name)
        if coefficients is None:
            klass = (self._FUNCTION_CLASS.get(instr.qualified_name)
                     or self._MODULE_CLASS.get(instr.module, "admin"))
            coefficients = self._coefficients[instr.qualified_name] = (
                *self._CLASSES[klass], klass == "sort")
        base, per_row, sorts = coefficients
        rows_in = 0
        for value in inputs:
            if isinstance(value, BAT):
                rows_in += len(value.tail)
        cost = base + per_row * rows_in
        if sorts and rows_in > 1:
            cost += 0.08 * rows_in * math.log2(rows_in)
        return max(1, round(cost))


class EvalContext:
    """Mutable interpreter state shared with instruction implementations."""

    def __init__(self, catalog: Catalog, program: Optional[MalProgram] = None) -> None:
        self.catalog = catalog
        self.program = program
        self.env: Dict[str, Any] = {}
        #: simulated resident set, kept by :meth:`bind`: the bytes of
        #: every BAT bound so far, released ones included
        self.rss = 0
        #: ``(weak reference, bytes)`` of each BAT a run dropped from
        #: :attr:`env` after its last reader (:meth:`Execution.step`)
        self.released: List[Tuple[weakref.ref, int]] = []
        self.result_sets: List[Any] = []
        self.affected_rows = 0

    def value_of(self, arg) -> Any:
        """Evaluate one instruction argument against the environment."""
        if isinstance(arg, Var):
            try:
                return self.env[arg.name]
            except KeyError:
                raise MalRuntimeError(f"undefined variable {arg.name}") from None
        if isinstance(arg, Const):
            return arg.value
        raise MalRuntimeError(f"bad argument {arg!r}")

    def bind(self, name: str, value: Any) -> None:
        """Bind ``name`` in the environment — the one place a value
        enters it — keeping :attr:`rss` equal to :meth:`rss_bytes`."""
        old = self.env.get(name)
        if isinstance(old, BAT):
            self.rss -= old.bytes()
        self.env[name] = value
        if isinstance(value, BAT):
            self.rss += value.bytes()

    def rss_bytes(self) -> int:
        """Simulated resident set, summed from scratch: the definition
        :attr:`rss` is maintained against, and what the kernels that
        grow an already-bound BAT re-read after themselves.

        A released BAT still counts: at its current size while it is
        alive (``bat.append`` returns the BAT it grew, so an alias may
        grow it further), else at the last size read here or when it
        was released."""
        released = []
        for ref, size in self.released:
            bat = ref()
            released.append((ref, size if bat is None else bat.bytes()))
        self.released = released
        return sum(v.bytes() for v in self.env.values()
                   if isinstance(v, BAT)) + sum(
                       size for _ref, size in released)


@dataclass
class ExecutionResult:
    """Outcome of running a MAL program."""

    result_sets: List[Any]
    runs: List[InstructionRun]
    total_usec: int
    affected_rows: int = 0

    @property
    def first(self):
        """The first (usually only) result set, or None."""
        return self.result_sets[0] if self.result_sets else None

    def rows(self) -> List[Tuple[Any, ...]]:
        """Rows of the first result set ([] when none)."""
        return self.first.rows() if self.first else []


def record_execution(scheduler: str, runs: Sequence[InstructionRun],
                     workers: int, total_usec: int) -> None:
    """Feed one finished program run into the engine metrics.

    Called once per run by :meth:`Executor.run`, whatever the scheduling
    policy, after the run completes, so the per-instruction hot loop
    stays free of metric updates.  Records instruction counts and
    modelled durations per MAL module, plus the run's worker
    utilisation — busy time over ``workers x makespan`` — whose low end
    flags poorly parallelised plans.
    """
    MAL_EXECUTIONS.labels(scheduler=scheduler).inc()
    instructions = MAL_INSTRUCTIONS
    durations = MAL_INSTRUCTION_USEC
    per_module: Dict[str, List[int]] = {}
    for run in runs:
        module = run.instr.module
        if module in per_module:
            per_module[module].append(run.usec)
        else:
            per_module[module] = [run.usec]
    busy = 0
    for module, usecs in per_module.items():
        instructions.labels(module).inc(len(usecs))
        durations.labels(module).observe_many(usecs)
        busy += sum(usecs)
    if runs and workers > 0 and total_usec > 0:
        utilization = 100.0 * busy / (workers * total_usec)
        MAL_WORKER_UTILIZATION.observe(min(100.0, utilization))


#: The only kernels that grow a BAT some name is already bound to: what
#: :meth:`EvalContext.bind` added for that name is stale after them.
_GROWS_BOUND = frozenset(("bat.append", "bat.insert", "sql.append"))


def execute_instruction(ctx: EvalContext, instr: MalInstruction) -> Tuple[list, list]:
    """Evaluate one instruction in ``ctx``; returns (inputs, outputs).

    Results are bound into the environment.  Multi-result instructions
    must return exactly as many values as they declare.  The kernel is
    looked up once and kept on the instruction (``impl_cache``) for
    every later run of its plan; an unknown one is not kept, so it
    raises every time.
    """
    impl = instr.impl_cache
    if impl is None:
        impl = instr.impl_cache = lookup(instr.module, instr.function)
    env = ctx.env
    try:
        inputs = [env[arg.name] if arg.__class__ is Var else arg.value
                  for arg in instr.args]
    except (KeyError, AttributeError):
        # an unbound name or a bad argument: value_of says which, typed
        inputs = [ctx.value_of(arg) for arg in instr.args]
    try:
        out = impl(ctx, instr, inputs)
    except MalRuntimeError:
        raise
    except Exception as exc:
        raise MalRuntimeError(
            f"pc={instr.pc} {instr.qualified_name}: {exc}"
        ) from exc
    results = instr.results
    if len(results) == 1:
        outputs = [out]
        name = results[0]
        if name in env:  # only a plan run without validation rebinds
            ctx.bind(name, out)
        else:
            env[name] = out
            if out.__class__ is BAT:
                ctx.rss += out.bytes()
    elif not results:
        outputs = []
    else:
        if not isinstance(out, tuple) or len(out) != len(results):
            raise MalRuntimeError(
                f"pc={instr.pc} {instr.qualified_name}: expected "
                f"{len(results)} results"
            )
        outputs = list(out)
        for name, value in zip(results, outputs):
            ctx.bind(name, value)
    if instr.qualified_name in _GROWS_BOUND:
        ctx.rss = ctx.rss_bytes()
    return inputs, outputs


#: Result delivery and appends keep program order even under dataflow;
#: MonetDB serialises them on the main thread.
_SIDE_EFFECTS = _GROWS_BOUND | frozenset((
    "sql.rsColumn", "sql.exportResult", "sql.affectedRows"))


class ReadySet:
    """Which instructions may run: the dataflow dependencies (the
    program's def-use walk), their successor index and the side-effect
    chain — and which values each one lets go: ``drops`` names every
    variable an instruction reads, and each of its results nobody
    reads; ``readers`` counts how often each name is listed.  Built by
    ``program.derived(ReadySet)``, so once per sealed plan; a run owns
    only its countdowns, copies of ``waiting`` and ``readers``.  Every
    per-instruction collection is indexed by an instruction's place in
    the list, which in a numbered program is its pc.

    A cached plan keeps its ReadySet for as long as it lives, so the
    per-instruction collections are tuples of ints or names: the cycle
    collector stops visiting those after its first pass, where a list
    or a set per instruction is walked by every collection (a third
    more tracked objects behind 64 cached plans, a quarter longer per
    young collection)."""

    def __init__(self, program: MalProgram) -> None:
        instructions = program.instructions
        sites, last_use = program.derived(MalProgram.def_use)
        readers = dict.fromkeys(last_use, 0)
        deps: List[Tuple[int, ...]] = []
        drops: List[Tuple[str, ...]] = []
        successors: List[List[int]] = [[] for _ in instructions]
        initial: List[int] = []
        effect = None  # the last side effect so far
        for pc, instr in enumerate(instructions):
            wanted: List[int] = []  # the site of each variable it reads
            read: List[str] = []  # and the variable, as often as read
            for arg in instr.args:
                if arg.__class__ is Var:
                    name = arg.name
                    read.append(name)
                    readers[name] += 1
                    site = sites[name]
                    if site not in wanted:
                        wanted.append(site)
                        successors[site].append(pc)
            if instr.qualified_name in _SIDE_EFFECTS:
                if effect is not None and effect not in wanted:
                    wanted.append(effect)
                    successors[effect].append(pc)
                effect = pc
            if not wanted:
                initial.append(pc)
            deps.append(tuple(wanted))
            drops.append(tuple(read))
        for name in sites.keys() - last_use.keys():  # nobody reads it
            drops[sites[name]] += (name,)
            readers[name] = 1
        self.instructions = instructions
        self.deps = deps
        self.drops = drops
        self.readers = readers
        self.successors = [tuple(after) for after in successors]
        self.waiting = [len(wanted) for wanted in deps]
        #: the instructions that wait for nothing
        self.initial = tuple(initial)


class Execution:
    """One run of one program: the step every instruction goes through,
    under the reference scheduling policy — program order on one worker
    and a virtual clock, with no dispatch to inject a fault at.

    A subclass is another policy: it overrides ``drive``, which picks
    the instruction to run next (by its place in the plan), the worker
    that runs it and, in :attr:`ready_usec`, when its inputs were
    ready.  The clock is the same for every policy: an instruction
    starts once its worker is free (after an injected stall) and its
    inputs are ready, and ends its modelled cost later.
    """

    label = "interpreter"  #: ``record_execution`` scheduler label
    faults = False  #: ``step`` consults the ``scheduler.worker`` fault site
    ready_usec = 0  #: when the inputs of the next instruction were ready

    def __init__(self, engine: "Executor", program: MalProgram,
                 context: Optional["QueryContext"]) -> None:
        self.program = program
        plan = self.plan = program.derived(ReadySet)
        self.drops = plan.drops
        #: per name, how often instructions that have still to run list
        #: it in ``drops``
        self.left = plan.readers.copy()
        self.context = context
        self.workers = engine.workers if program.dataflow_enabled else 1
        #: when each worker next idles; the latest is the makespan
        self.free = [0] * self.workers
        self.fault_plan = ACTIVE.plan if self.faults else None  # captured once
        self.cost_usec = engine.cost_model.cost_usec
        self.ctx = EvalContext(engine.catalog, program)
        self.runs: List[InstructionRun] = []
        #: hears ``start``/``done`` from ``step``, as they happen; a
        #: policy that releases events itself clears it
        self.listener = engine.listener

    def step(self, instr: MalInstruction, place: int,
             thread: int) -> InstructionRun:
        """Execute ``instr``, at ``place`` in the plan, on worker
        ``thread``; returns its run record.

        The one place that checks the query context (cancellation,
        deadline, RSS budget), consults the fault plan, runs the
        instruction, asks the cost model, builds the run record and
        drops the values nothing that has still to run reads.  An
        injected stall is slept for real (``value`` microseconds) and
        delays the worker on the modelled clock.  :attr:`listener` hears
        ``start`` with the RSS before the instruction and ``done`` with
        the RSS after it.
        """
        ctx = self.ctx
        if self.context is not None:
            self.context.check(ctx.rss)
        free = self.free
        start = free[thread]
        if self.fault_plan is not None:
            decision = self.fault_plan.decide("scheduler.worker",
                                              detail=str(instr.pc))
            if decision is not None and decision.action == "crash":
                raise WorkerCrashError(
                    f"injected crash of worker {thread} at pc={instr.pc}")
            if decision is not None and decision.action == "stall":
                stall = int(decision.value or 1000)
                time.sleep(stall / 1_000_000.0)
                start += stall
        if start < self.ready_usec:
            start = self.ready_usec
        listener = self.listener
        # records are built positionally (a third of the keyword cost):
        # instr, program, pc, start, end, usec, thread, rss, rows, rows_in
        if listener is not None:
            listener("start", InstructionRun(
                instr, self.program, instr.pc, start, start, 0, thread,
                ctx.rss, 0))
        inputs, outputs = execute_instruction(ctx, instr)
        end = free[thread] = start + self.cost_usec(instr, inputs, outputs)
        # the cardinalities of the first BAT argument and result
        rows_in = rows = 0
        for value in inputs:
            if value.__class__ is BAT:
                rows_in = len(value.tail)
                break
        for value in outputs:
            if value.__class__ is BAT:
                rows = len(value.tail)
                break
        left = self.left
        for name in self.drops[place]:
            readers = left[name] - 1
            if readers:
                left[name] = readers
            else:  # its last reader has run
                value = ctx.env.pop(name)
                if value.__class__ is BAT:
                    # sized when bound: its memo, not another bytes()
                    size = value._bytes_cache
                    ctx.released.append((weakref.ref(value), size[1]
                                         if size else value.bytes()))
        run = InstructionRun(instr, self.program, instr.pc, start, end,
                             end - start, thread, ctx.rss, rows, rows_in)
        self.runs.append(run)
        if listener is not None:
            listener("done", run)
        return run

    def drive(self) -> None:
        """Run every instruction of the program through :meth:`step`."""
        for place, instr in enumerate(self.plan.instructions):
            self.step(instr, place, 0)


class Executor:
    """A MAL engine: the shared step driven by one scheduling policy.

    :class:`Interpreter` and :class:`~repro.mal.dataflow.SimulatedScheduler`
    are constructors that bind a policy; ``run`` is the same for both.
    """

    policy = Execution

    def __init__(self, catalog: Catalog, cost_model: Optional[CostModel],
                 listener: Optional[RunListener], workers: int) -> None:
        if workers < 1:
            raise MalRuntimeError("need at least one worker")
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()
        self.listener = listener
        self.workers = workers

    def run(self, program: MalProgram,
            context: Optional["QueryContext"] = None) -> ExecutionResult:
        """Execute ``program``; returns results plus run records.

        ``context`` (a :class:`~repro.server.lifecycle.QueryContext`) is
        checked before every instruction, so cancellation, deadlines and
        RSS budgets take effect at instruction boundaries.
        """
        program.derived(MalProgram.validate)
        execution = self.policy(self, program, context)
        execution.drive()
        runs = execution.runs
        total_usec = max(execution.free)  # the last instruction's end
        record_execution(execution.label, runs, execution.workers, total_usec)
        return ExecutionResult(
            result_sets=execution.ctx.result_sets, runs=runs,
            total_usec=total_usec, affected_rows=execution.ctx.affected_rows)


class Interpreter(Executor):
    """Reference (sequential) MAL interpreter.

    Args:
        catalog: catalog to resolve ``sql.bind``/``sql.tid`` against.
        cost_model: duration model; defaults to :class:`CostModel`.
        listener: optional profiler callback, invoked with ``("start",
            run)`` before and ``("done", run)`` after every instruction.
    """

    def __init__(self, catalog: Catalog,
                 cost_model: Optional[CostModel] = None,
                 listener: Optional[RunListener] = None) -> None:
        super().__init__(catalog, cost_model, listener, workers=1)
