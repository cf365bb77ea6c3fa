"""Synthetic MAL plans and traces with realistic structure.

A synthetic plan mimics a mitosis-partitioned scan-aggregate query: a
configurable number of parallel bind→select→project chains (partition
fan-out) folded back together — the exact shape that makes real plans
exceed 1000 nodes (paper Figure 2).  Synthetic traces replay a plan on a
simulated worker pool with a seeded cost distribution, including an
adjustable fraction of long-running instructions for the colouring
algorithms to find.
"""

from __future__ import annotations

import random
from typing import List

from repro.mal.ast import Const, MalProgram, Var, bat_of
from repro.mal.printer import format_instruction
from repro.profiler.events import TraceEvent


def synthetic_plan(chains: int = 8, chain_length: int = 4) -> MalProgram:
    """A plan with ``chains`` parallel partition chains of
    ``chain_length`` data operators each, plus fold and export glue.

    Total size is ``1 + chains * (chain_length + 2) + (chains - 1) + 3``
    instructions (one ``sql.mvc``; per chain a bind, its operators and a
    sum; the folding adds; the result glue); e.g. ``chains=143,
    chain_length=4`` gives 1004 nodes and ``chains=167`` gives 1172.
    """
    program = MalProgram("user.synthetic")
    mvc = program.call("sql", "mvc")
    partials: List[Var] = []
    for chain in range(chains):
        current = program.call(
            "sql", "bind",
            [mvc, Const("sys"), Const("fact"), Const("v"), Const(0),
             Const(chain), Const(chains)],
            bat_of("int"),
        )
        for step in range(chain_length):
            if step % 2 == 0:
                current = program.call(
                    "algebra", "thetaselect",
                    [current, Const(step), Const(">")])
            else:
                current = program.call("batcalc", "add", [current, Const(1)])
        partials.append(program.call("aggr", "sum", [current]))
    total = partials[0]
    for partial in partials[1:]:
        total = program.call("calc", "add", [total, partial])
    rs = program.call("sql", "resultSet", [Const(1), Const(1)])
    rs = program.call(
        "sql", "rsColumn",
        [rs, Const("sys.fact"), Const("total"), Const("lng"), total])
    program.add("sql", "exportResult", [rs])
    program.renumber()
    return program


#: A synthetic trace's instruction costs: the long ones take
#: ``LONG_USEC`` up to 1.5x that, the others ``BASE_USEC`` up to twice.
LONG_USEC = 50_000
BASE_USEC = 40


def trace_for_program(program: MalProgram, workers: int = 4,
                      seed: int = 11,
                      long_fraction: float = 0.05) -> List[TraceEvent]:
    """A plausible trace for ``program`` without executing it.

    Instructions are list-scheduled over ``workers`` on a virtual clock;
    a seeded ``long_fraction`` of them receive ``LONG_USEC`` durations —
    the costly outliers the Stethoscope exists to find.
    """
    rng = random.Random(seed)
    deps = program.dependencies()
    pending = {pc: set(d) for pc, d in deps.items()}
    ready = sorted(pc for pc, d in pending.items() if not d)
    worker_free = [0] * workers
    ready_time = {pc: 0 for pc in ready}
    events: List[TraceEvent] = []
    raw: List[tuple] = []
    done: set = set()
    while len(done) < len(program.instructions):
        ready.sort(key=lambda pc: (ready_time.get(pc, 0), pc))
        pc = ready.pop(0)
        instr = program.instructions[pc]
        widx = min(range(workers), key=lambda w: (worker_free[w], w))
        start = max(worker_free[widx], ready_time.get(pc, 0))
        if rng.random() < long_fraction:
            cost = LONG_USEC + rng.randrange(LONG_USEC // 2)
        else:
            cost = BASE_USEC + rng.randrange(BASE_USEC)
        end = start + cost
        worker_free[widx] = end
        stmt = format_instruction(instr, program)
        raw.append((start, pc, "start", widx, 0, stmt))
        raw.append((end, pc, "done", widx, cost, stmt))
        done.add(pc)
        for succ, wanted in pending.items():
            if pc in wanted:
                wanted.discard(pc)
                ready_time[succ] = max(ready_time.get(succ, 0), end)
                if not wanted and succ not in done and succ not in ready:
                    ready.append(succ)
    raw.sort(key=lambda r: (r[0], r[1], r[2] == "done"))
    for sequence, (clock, pc, status, thread, usec, stmt) in enumerate(raw):
        events.append(TraceEvent(
            event=sequence, clock_usec=clock, status=status, pc=pc,
            thread=thread, usec=usec, rss_bytes=1 << 20, stmt=stmt,
        ))
    return events


def synthetic_trace(chains: int = 8, chain_length: int = 4,
                    workers: int = 4, seed: int = 11,
                    long_fraction: float = 0.05) -> List[TraceEvent]:
    """Plan + trace in one call (see :func:`synthetic_plan`)."""
    return trace_for_program(
        synthetic_plan(chains, chain_length), workers=workers, seed=seed,
        long_fraction=long_fraction,
    )


#: Numeric lineitem columns :func:`random_query` predicates/aggregates
#: over, with plausible literal ranges for the TPC-H datagen.
_QUERY_COLUMNS = {
    "l_quantity": (1, 50),
    "l_extendedprice": (100, 90_000),
    "l_discount": (0.0, 0.1),
    "l_tax": (0.0, 0.08),
    "l_partkey": (1, 200),
    "l_suppkey": (1, 10),
}
_GROUP_COLUMNS = ("l_returnflag", "l_linestatus")
_AGGREGATES = ("sum", "min", "max", "avg", "count")
_COMPARATORS = (">", "<", ">=", "<=")


def random_query(rng: random.Random, table: str = "lineitem") -> str:
    """One random SQL query in the supported dialect, from ``rng``.

    Queries are scalar aggregates or group-bys over numeric ``table``
    columns with 0-2 ``and``-joined comparison predicates — the shapes
    the mitosis optimizer partitions, so parallel-parity property tests
    can sweep the plan space (serial and process-parallel execution
    must return identical rows for every query this emits).
    """
    agg = rng.choice(_AGGREGATES)
    column = rng.choice(sorted(_QUERY_COLUMNS))
    select = "count(*)" if agg == "count" else f"{agg}({column})"
    predicates = []
    for _ in range(rng.randint(0, 2)):
        pred_col = rng.choice(sorted(_QUERY_COLUMNS))
        low, high = _QUERY_COLUMNS[pred_col]
        if isinstance(low, float):
            literal = f"{rng.uniform(low, high):.2f}"
        else:
            literal = str(rng.randint(low, high))
        predicates.append(f"{pred_col} {rng.choice(_COMPARATORS)} {literal}")
    where = f" where {' and '.join(predicates)}" if predicates else ""
    if rng.random() < 0.5:
        group = rng.choice(_GROUP_COLUMNS)
        return (f"select {group}, {select} from {table}{where} "
                f"group by {group} order by {group}")
    return f"select {select} from {table}{where}"
