"""Experiment E4 — multi-core utilisation analysis (MODELLED).

The paper's online demo "exhibits degree of multi-threaded
parallelization of MAL instructions"; its conclusion reports finding a
plan that ran sequentially when parallel execution was expected.  This
bench sweeps the worker count on TPC-H queries (virtual-time scheduler,
so the speedup curve is deterministic), runs the mitosis on/off ablation,
and reproduces the anomaly detection.

Scope note: every speedup here is *virtual-clock* — the cost model's
makespan under simulated scheduling.  Kernels still execute serially in
this process (Python threads are GIL-bound, and the simulated scheduler
is single-threaded anyway), so nothing below measures real multi-core
wall clock.  The modelled q6 speedup at 4 workers is asserted below
(> 1.3x); what a real wall clock said about partition-parallel
execution, and why the forked pool that tried it was removed, is
``docs/performance.md`` §5.
"""

import os

import pytest

from repro.core.analysis import TraceAnalyzer
from repro.mal.dataflow import SimulatedScheduler
from repro.mal.optimizer import default_pipe, sequential_pipe
from repro.profiler import Profiler
from repro.sqlfe import compile_sql
from repro.tpch import query_sql


def plan_for(db, sql, workers):
    pipeline = default_pipe(nparts=workers, mitosis_threshold=400)
    for opt_pass in pipeline.passes:
        if hasattr(opt_pass, "catalog"):
            opt_pass.catalog = db.catalog
    return pipeline.apply(compile_sql(db.catalog, sql))


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_e4_worker_sweep_q1(benchmark, tpch_db, workers, artifacts):
    sql = query_sql("q1")
    program = plan_for(tpch_db, sql, workers)

    def run():
        profiler = Profiler()
        result = SimulatedScheduler(
            tpch_db.catalog, workers=workers, listener=profiler
        ).run(program)
        return result, profiler

    result, profiler = benchmark(run)
    profile = TraceAnalyzer(profiler.events).parallelism_profile()
    line = (f"q1 workers={workers} makespan={result.total_usec}usec "
            f"threads={profile.threads_used} "
            f"speedup={profile.speedup_vs_serial:.2f}\n")
    with open(os.path.join(artifacts, "e4_multicore.txt"), "a") as f:
        f.write(line)
    if workers > 1:
        assert profile.threads_used > 1


def test_e4_parallel_beats_sequential_makespan(benchmark, tpch_db,
                                               artifacts):
    """The headline shape: virtual makespan shrinks with workers."""
    sql = query_sql("q6")

    def makespan(workers):
        program = plan_for(tpch_db, sql, workers)
        return SimulatedScheduler(
            tpch_db.catalog, workers=workers
        ).run(program).total_usec

    serial = makespan(1)
    parallel = benchmark(makespan, 4)
    speedup = serial / parallel
    with open(os.path.join(artifacts, "e4_multicore.txt"), "a") as f:
        f.write(f"q6 serial={serial} 4workers={parallel} "
                f"speedup={speedup:.2f}x\n")
    assert speedup > 1.3


def test_e4_mitosis_ablation(benchmark, tpch_db, artifacts):
    """Ablation: dataflow alone (no mitosis) barely helps a scan-heavy
    query; mitosis is what creates the parallel work."""
    from repro.mal.optimizer import CommonSubexpression, ConstantFold, \
        Dataflow, DeadCode, Pipeline

    sql = query_sql("q6")
    no_mitosis = Pipeline("no_mitosis", [
        ConstantFold(), CommonSubexpression(), DeadCode(), Dataflow(),
    ])
    program_plain = no_mitosis.apply(compile_sql(tpch_db.catalog, sql))
    program_mitosis = plan_for(tpch_db, sql, 4)

    def run_plain():
        return SimulatedScheduler(
            tpch_db.catalog, workers=4
        ).run(program_plain).total_usec

    plain = benchmark(run_plain)
    mitosis = SimulatedScheduler(
        tpch_db.catalog, workers=4
    ).run(program_mitosis).total_usec
    with open(os.path.join(artifacts, "e4_multicore.txt"), "a") as f:
        f.write(f"ablation q6 4workers: no_mitosis={plain} "
                f"with_mitosis={mitosis}\n")
    assert mitosis < plain


def test_e4_sequential_anomaly_reproduced(benchmark, tpch_db, artifacts):
    """The paper's reported finding, detected from the trace alone."""
    sql = query_sql("q1")
    program = sequential_pipe().apply(compile_sql(tpch_db.catalog, sql))

    def run():
        profiler = Profiler()
        SimulatedScheduler(
            tpch_db.catalog, workers=4, listener=profiler
        ).run(program)
        return TraceAnalyzer(profiler.events).sequential_anomaly(
            expected_threads=4)

    anomaly = benchmark(run)
    assert anomaly.detected
    with open(os.path.join(artifacts, "e4_multicore.txt"), "a") as f:
        f.write(f"anomaly: {anomaly.explanation}\n")
