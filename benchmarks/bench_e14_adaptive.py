"""Experiment E14 — adaptive optimization: feedback beats syntax.

A skewed-selectivity workload where the syntactic predicate order is
maximally wrong: the query lists a ~90%-pass predicate first and a
~1%-pass predicate second, so a static compile filters almost nothing
with its first (most expensive) chain link.  Both databases keep the
default plan cache, as a server does.  The first execution is compiled
on a cold stats store and cached; once its run has been observed, the
plan cache re-plans it once, and the ``adaptive_order`` optimizer pass
orders the chain most-selective-first.  Every later execution is a hit
on that re-plan.

The gated number is the *modelled* (virtual-clock, deterministic)
median latency ratio of static vs warm-adaptive compiles -- it is
machine-independent, so the regression gate can
require the full ratio rather than an invariant; the *measured* wall
ratio of the same runs is printed above it, ungated.  Invariants gated
alongside:

- rows byte-identical between the static and adaptive plans (the
  reorder is an optimization, never a semantics change);
- the cold adaptive compile matches the static plan, and the warm one
  differs from it (the feedback loop engaged);
- the cached plan is re-planned exactly once: after the warm-up and
  ``REPEATS`` executions the plan cache has compiled twice and served
  every other execution from its entry;
- the stats store round-trips through its CRC-trailed snapshot.

The floor and the rows are the ``e14`` entries of the table in
``benchmarks/check_regression.py``; ``check_regression.py --only e14``
runs this file against the committed
``benchmarks/BENCH_E14_adaptive.json``.
"""

import os
import random
import statistics
import tempfile
import time

from repro.mal.printer import format_program
from repro.server.database import Database
from repro.stats import StatsStore

import check_regression

ROWS = 40_000
REPEATS = 5
#: predicate order in the SQL is deliberately pessimal: ``a < 900``
#: passes ~90% of rows, ``b = 7`` passes ~1%
QUERY = "select a, b from t where a < 900 and b = 7"


def _plan_text(program):
    """The formatted plan with its per-compile name normalized away
    (each compile gets a fresh ``user.sN_M`` name; plan *shape* is what
    the invariants compare)."""
    short = program.name.split(".")[-1]
    return format_program(program).replace(program.name, "user.q") \
                                  .replace(short, "q")


def _build_database(pipeline_name):
    """A database holding the skewed table, with the default plan
    cache."""
    db = Database(workers=2, pipeline_name=pipeline_name)
    db.execute("create table t (a int, b int)")
    rng = random.Random(20260808)
    table = db.catalog.table("t")
    table.insert_many(
        [[rng.randrange(1000), rng.randrange(100)] for _ in range(ROWS)])
    return db


def _run_queries(db, repeats=REPEATS):
    """(median modelled usec, median wall seconds, last outcome)."""
    modelled = []
    walls = []
    outcome = None
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = db.execute(QUERY)
        walls.append(time.perf_counter() - start)
        modelled.append(outcome.execution.total_usec)
    return (statistics.median(modelled), statistics.median(walls),
            outcome)


def _snapshot_roundtrip(store):
    """Save + load the store; True when the reloaded copy answers the
    same selectivities (the CRC-trailed snapshot is faithful)."""
    with tempfile.TemporaryDirectory(prefix="repro-e14-") as workdir:
        path = os.path.join(workdir, "stats.json")
        store.save(path)
        reloaded = StatsStore.load(path)
        return reloaded.snapshot() == store.snapshot()


def run_benchmarks():
    static_db = _build_database("static_pipe")
    adaptive_db = _build_database("default_pipe")

    static_usec, static_wall, static_outcome = _run_queries(static_db)
    static_plan = _plan_text(static_outcome.program)

    # warm-up: the first execution both runs the (still syntactic) plan
    # and feeds the stats store; the next lookup re-plans it, reordered
    adaptive_db.execute(QUERY)
    cold_plan = _plan_text(adaptive_db.last_program)
    warm_usec, warm_wall, warm_outcome = _run_queries(adaptive_db)
    warm_plan = _plan_text(warm_outcome.program)

    store = adaptive_db.stats_store
    results = {
        "workload": {
            "rows": ROWS,
            "query": QUERY,
            "repeats": REPEATS,
        },
        "modelled": {
            "static_usec": static_usec,
            "warm_adaptive_usec": warm_usec,
            "speedup": round(static_usec / warm_usec, 3),
        },
        "measured": {
            "static_wall_s": round(static_wall, 6),
            "warm_adaptive_wall_s": round(warm_wall, 6),
            "speedup": round(static_wall / warm_wall, 3),
        },
        "stats_store": store.summary(),
        "plans": {
            "cold_matches_static": cold_plan == static_plan,
            "warm_differs_from_static": warm_plan != static_plan,
        },
        "plan_cache": adaptive_db.plan_cache.stats(),
        "rows_returned": len(warm_outcome.rows),
    }
    results["invariants"] = invariants(
        results,
        rows_identical=(static_outcome.rows == warm_outcome.rows),
        snapshot_ok=_snapshot_roundtrip(store))
    static_db.close()
    adaptive_db.close()
    return results


def invariants(results, rows_identical, snapshot_ok):
    """The machine-independent facts the regression gate enforces."""
    return {
        "rows_byte_identical": rows_identical,
        "cold_plan_matches_static": results["plans"]
        ["cold_matches_static"],
        "adaptive_plan_reordered": results["plans"]
        ["warm_differs_from_static"],
        "cached_plan_replanned_once": (
            results["plan_cache"]["misses"] == 2
            and results["plan_cache"]["hits"] == REPEATS - 1),
        "stats_snapshot_roundtrips": snapshot_ok,
    }


def test_e14_adaptive():
    """Rides the ``benchmarks/`` suite: the run and the rows that
    ``check_regression.py --only e14`` checks."""
    assert check_regression.run("e14") == 0
