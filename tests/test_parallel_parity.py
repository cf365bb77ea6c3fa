"""Worker-count parity across the TPC-H suite.

The in-process executor runs a mitosis-partitioned plan on the list
scheduler's virtual clock (``SimulatedScheduler``), whose traces the
benchmarks and goldens pin.  For each TPC-H query, every mitosis
partition count and every worker count, a run must return the
four-worker run's rows, run every instruction exactly once with the
same statement text and the same cardinalities, keep to the workers it
was given, start no instruction before the ones it reads have finished,
and tell the profiler a start and a done for each.  Only the clock, the
worker assignment and the modelled RSS (which follows the interleaving)
may differ.
"""

import pytest

from repro.mal.dataflow import SimulatedScheduler
from repro.mal.interpreter import ReadySet
from repro.profiler import Profiler
from repro.server.database import Database
from repro.storage import Catalog
from repro.tpch import QUERIES, populate, query_sql

NPARTS = (1, 2, 4, 8)
WORKERS = (1, 2, 4)

#: Low enough that the 0.05-scale lineitem (~300 rows) partitions.
MITOSIS_THRESHOLD = 50


@pytest.fixture(scope="module")
def catalog():
    cat = Catalog()
    populate(cat, scale_factor=0.05, seed=7)
    return cat


@pytest.fixture(scope="module")
def databases(catalog):
    """One Database per partition count (its workers drive mitosis)."""
    dbs = {nparts: Database(catalog=catalog, workers=nparts,
                            mitosis_threshold=MITOSIS_THRESHOLD)
           for nparts in NPARTS}
    yield dbs
    for db in dbs.values():
        db.close()


def _records(result):
    """What a run computed, independent of when and where: one
    ``(pc, stmt, rows, rows_in)`` per instruction, in pc order.  A
    ``language.pass`` reads its variable's defining instruction only, so
    it may see a BAT before or after a later ``bat.append`` grows it in
    place: its ``rows_in`` follows the interleaving and is left out."""
    return sorted((r.pc, r.stmt, r.rows,
                   None if r.stmt.startswith("language.pass(") else r.rows_in)
                  for r in result.runs)


def _trace_run(catalog, program, scheduler, **kwargs):
    profiler = Profiler()
    result = scheduler(catalog, listener=profiler, **kwargs).run(program)
    events = sorted((e.pc, e.status, e.stmt) for e in profiler.events)
    return result, events


@pytest.fixture(scope="module")
def baselines(catalog, databases):
    """Virtual-clock rows, records and trace per (query, nparts),
    lazily."""
    cache = {}

    def get(name, nparts):
        key = (name, nparts)
        if key not in cache:
            program = databases[nparts].compile(query_sql(name))
            result, events = _trace_run(catalog, program,
                                        SimulatedScheduler, workers=4)
            cache[key] = (result.rows(), _records(result), events)
        return cache[key]

    return get


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("nparts", NPARTS)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_parity(name, nparts, workers, catalog, databases, baselines):
    program = databases[nparts].compile(query_sql(name))
    serial_rows, serial_records, serial_events = baselines(name, nparts)
    result, events = _trace_run(catalog, program, SimulatedScheduler,
                                workers=workers)
    assert result.rows() == serial_rows
    assert _records(result) == serial_records
    assert events == serial_events
    assert {r.thread for r in result.runs} <= set(range(workers))
    deps = program.derived(ReadySet).deps
    ends = {r.pc: r.end_usec for r in result.runs}
    for run in result.runs:
        assert all(run.start_usec >= ends[d] for d in deps[run.pc])


class TestActuallyParallel:
    """Parity is vacuous if every run kept to one worker or no plan was
    partitioned."""

    def test_partitions_spread_over_threads(self, catalog, databases):
        program = databases[4].compile(query_sql("q6"))
        result = SimulatedScheduler(catalog, workers=4).run(program)
        assert len({r.thread for r in result.runs}) > 1

    def test_single_thread_runs_everything_on_it(self, catalog, databases):
        program = databases[4].compile(query_sql("q6"))
        result = SimulatedScheduler(catalog, workers=1).run(program)
        assert {r.thread for r in result.runs} == {0}

    def test_row_threshold_keeps_the_plan_whole(self, catalog, databases):
        whole = Database(catalog=catalog, workers=4,
                         mitosis_threshold=10**9)
        try:
            sql = query_sql("q6")
            small, split = whole.compile(sql), databases[4].compile(sql)
            assert len(small.instructions) < len(split.instructions)
            engine = SimulatedScheduler(catalog, workers=4)
            assert engine.run(small).rows() == engine.run(split).rows()
        finally:
            whole.close()
