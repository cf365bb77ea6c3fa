"""Experiment E11 — partition-parallel execution on the worker pool.

E4 models multi-core scaling under the virtual clock; this experiment
runs it for real.  A :class:`repro.mal.mpool.PartitionWorkerPool` forks
one process per worker, ships mitosis partitions to them as memoized
BAT bytes, executes the partition fragments remotely, and merges the
results through the plan's own ``mat.pack``.  The bench populates a
TPC-H catalog at 20x the serve default (~12k lineitem rows), races the
in-process interpreter against 2- and 4-worker pools on wall clock, and
records the deterministic modelled makespan speedup of the same
partitioned plan.

What is gated where (the ``e11`` rows of the table in
``benchmarks/check_regression.py`` hold the numbers):

- the *measured* wall-clock speedups are printed always, and first, but
  compared against the baseline only when both the fresh run and the
  baseline were taken on enough cores (a single-core container cannot
  show real parallel speedup, only fork/ship overhead);
- the *modelled* 4-worker speedup (virtual-clock makespan, identical on
  every machine) must keep a floor and stay within tolerance of the
  committed baseline -- it says what the cost model predicts, not what
  the pool does;
- the invariants are gated unconditionally: serial and pooled runs
  return identical rows, the pool really dispatched remotely
  (``repro_mpool_tasks_total`` advanced), and the pool survives a
  SIGKILLed worker by re-forking and answering the next query.

``check_regression.py --only e11`` runs this file against the committed
``benchmarks/BENCH_E11_parallel.json``.
"""

import os

from repro.mal.dataflow import SimulatedScheduler
from repro.metrics.families import MPOOL_TASKS, MPOOL_WORKER_RESTARTS
from repro.server import Database
from repro.storage.catalog import Catalog
from repro.tpch import populate

import check_regression
from timing import interleaved_medians

#: 20x the serve default scale 0.1 — ~12k lineitem rows, enough that
#: every partition clears the pool's ship threshold.
SCALE = 2.0
SEED = 11
NPARTS = 4
POOL_SIZES = (2, 4)
REPEAT = 5

QUERY = ("select sum(l_extendedprice * l_discount) from lineitem "
         "where l_quantity > 10")


def _catalog():
    catalog = Catalog()
    populate(catalog, scale_factor=SCALE, seed=SEED)
    return catalog


def run_modelled(catalog):
    """Virtual-clock makespan of the 4-way partitioned plan, 1 vs 4
    workers.  Deterministic: same plan, same cost model, any machine."""
    program = Database(catalog=catalog, workers=NPARTS).compile(QUERY)
    serial = SimulatedScheduler(catalog, workers=1).run(program).total_usec
    parallel = SimulatedScheduler(
        catalog, workers=NPARTS).run(program).total_usec
    return {
        "serial_usec": serial,
        "parallel_usec": parallel,
        "workers": NPARTS,
        "speedup": round(serial / parallel, 2),
    }


def run_measured(catalog):
    """Wall-clock race: in-process interpreter vs the forked pool.

    Also proves the invariants along the way — identical rows, real
    remote dispatch, recovery from a SIGKILLed worker.
    """
    serial_db = Database(catalog=catalog, workers=NPARTS)
    serial_rows = serial_db.execute(QUERY).rows
    serial_s, = interleaved_medians(lambda: serial_db.execute(QUERY),
                                    repeat=REPEAT, inner=1)

    invariants = {
        "results_identical": True,
        "remote_dispatch": False,
        "pool_recovers_after_kill": False,
    }
    per_pool = {}
    for workers in POOL_SIZES:
        db = Database(catalog=catalog, workers=NPARTS,
                      parallel_workers=workers, parallel_min_rows=0)
        try:
            ok_before = MPOOL_TASKS.labels(outcome="ok").value()
            rows = db.execute(QUERY).rows
            if rows != serial_rows:
                invariants["results_identical"] = False
            if MPOOL_TASKS.labels(outcome="ok").value() >= \
                    ok_before + NPARTS:
                invariants["remote_dispatch"] = True
            pool_s, = interleaved_medians(lambda: db.execute(QUERY),
                                          repeat=REPEAT, inner=1)
            per_pool[str(workers)] = {
                "ms": round(pool_s * 1e3, 3),
                "speedup": round(serial_s / pool_s, 2),
            }
            if workers == max(POOL_SIZES):
                # SIGKILL a live worker mid-pool: the next precompute
                # must re-fork it and the query must still agree.  The
                # join is the wait for the signal to land: a worker still
                # dying when the query starts is a typed crash mid-query
                # (tests/test_mpool.py), not this invariant
                restarts_before = MPOOL_WORKER_RESTARTS.value()
                victim = db.pool._workers[0].process
                victim.kill()
                victim.join(timeout=5.0)
                recovered = db.execute(QUERY).rows
                invariants["pool_recovers_after_kill"] = (
                    recovered == serial_rows
                    and db.pool.alive == db.pool.workers
                    and MPOOL_WORKER_RESTARTS.value() > restarts_before)
        finally:
            db.close()
    return {
        "cores": os.cpu_count() or 1,
        "serial_ms": round(serial_s * 1e3, 3),
        "pools": per_pool,
    }, invariants


def run_benchmarks():
    catalog = _catalog()
    modelled = run_modelled(catalog)
    measured, invariants = run_measured(catalog)
    return {
        "rows": catalog.table("lineitem").row_count(),
        "modelled": modelled,
        "measured": measured,
        "invariants": invariants,
    }


def test_e11_partition_parallel():
    """Rides the ``benchmarks/`` suite: the run and the rows that
    ``check_regression.py --only e11`` checks."""
    assert check_regression.run("e11") == 0
