"""Tests for concurrent-load interference analysis (paper intro: the
online mode shows the "influence of concurrent processes competing with
the resources")."""

import pytest

from repro.core.analysis import TraceAnalyzer
from repro.mal.dataflow import SimulatedScheduler
from repro.mal.optimizer import default_pipe
from repro.profiler import Profiler
from repro.sqlfe import compile_sql
from repro.storage import Catalog
from repro.tpch import populate, query_sql


@pytest.fixture(scope="module")
def catalog():
    cat = Catalog()
    populate(cat, scale_factor=0.1, seed=5)
    return cat


def trace_with_workers(catalog, sql, workers):
    """The same plan executed with the full machine vs. a machine where
    a competing process occupies some of the cores."""
    pipeline = default_pipe(nparts=4, mitosis_threshold=200)
    for opt_pass in pipeline.passes:
        if hasattr(opt_pass, "catalog"):
            opt_pass.catalog = catalog
    program = pipeline.apply(compile_sql(catalog, sql))
    profiler = Profiler()
    SimulatedScheduler(catalog, workers=workers, listener=profiler).run(
        program
    )
    return TraceAnalyzer(profiler.events)


class TestInterference:
    def test_losing_cores_inflates_makespan(self, catalog):
        sql = query_sql("q6")
        idle = trace_with_workers(catalog, sql, workers=4)
        loaded = trace_with_workers(catalog, sql, workers=1)
        report = idle.compare(loaded)
        assert report.makespan_inflation > 1.5

    def test_same_conditions_no_inflation(self, catalog):
        sql = query_sql("q6")
        a = trace_with_workers(catalog, sql, workers=4)
        b = trace_with_workers(catalog, sql, workers=4)
        report = a.compare(b)
        assert report.makespan_inflation == pytest.approx(1.0)

    def test_per_operator_slowdowns_sorted(self, catalog):
        sql = query_sql("q1")
        idle = trace_with_workers(catalog, sql, workers=4)
        loaded = trace_with_workers(catalog, sql, workers=2)
        report = idle.compare(loaded)
        slowdowns = [o.slowdown for o in report.operators]
        assert slowdowns == sorted(slowdowns, reverse=True)
        assert report.worst(3)[0].slowdown >= slowdowns[-1]

    def test_empty_traces(self):
        report = TraceAnalyzer().compare(TraceAnalyzer())
        assert report.makespan_inflation == 1.0
        assert report.operators == []

    def test_operator_busy_time_stable_under_scheduling(self, catalog):
        """Per-operator busy time is scheduling-independent in the
        virtual-cost model — only the makespan moves."""
        sql = query_sql("q6")
        idle = trace_with_workers(catalog, sql, workers=4)
        loaded = trace_with_workers(catalog, sql, workers=1)
        report = idle.compare(loaded)
        for op in report.operators:
            assert op.slowdown == pytest.approx(1.0)
