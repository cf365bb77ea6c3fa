"""Golden digests of every trace-analysis view.

For each (trace, view) pair ``analysis_golden.json`` holds a sha256 over
the view's value as canonical JSON: dataclasses become their field
values (never their reprs, so a renamed or merged class still matches),
lists stay lists in the view's order, so ties must keep their order too.
The traces are TPC-H q1 and q5 under ``SimulatedScheduler(workers=4)``,
a 143-chain synthetic plan's ``trace_for_program`` trace and the empty
trace.  Each view is taken with its default arguments and with one
other set.  The digests were recorded, before the views became one
fold, by running::

    PYTHONPATH=src python tests/test_analysis_golden.py --regen

Regenerate only for a change that is *meant* to alter a view's values,
and say so in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import os
import sys

import pytest

from repro import Database, Profiler, populate
from repro.core.analysis import TraceAnalyzer, render_birdseye
from repro.mal.dataflow import SimulatedScheduler
from repro.tpch import query_sql
from repro.workloads import synthetic_plan, trace_for_program

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "analysis_golden.json")
TRACES = ("q1_w4", "q5_w4", "synthetic_143", "empty")


def recorded_traces():
    """name -> trace events, in a fixed order."""
    database = Database(workers=4)
    populate(database.catalog, scale_factor=0.05, seed=3)
    traces = {}
    for query in ("q1", "q5"):
        profiler = Profiler()
        SimulatedScheduler(database.catalog, workers=4,
                           listener=profiler).run(
            database.compile(query_sql(query)))
        traces[f"{query}_w4"] = profiler.events
    database.close()
    traces["synthetic_143"] = trace_for_program(
        synthetic_plan(chains=143), workers=4, seed=11)
    traces["empty"] = []
    return traces


def plain(value):
    """A view's value as JSON-able field values."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


def rows(value, keys):
    """Each row of a list view, cut down to ``keys``."""
    return [{key: row[key] for key in keys} for row in plain(value)]


OPERATOR_TIME = ("operator", "calls", "total_usec", "share")
OPERATOR_MEMORY = ("operator", "calls", "total_usec", "peak_rss_bytes",
                   "mean_rss_bytes")


def window(fold, start_usec, end_usec):
    part = fold.window(start_usec, end_usec)
    return {"summary": part.summary(),
            "per_instruction": plain(part.per_instruction())}


#: view name -> value of the view over (a trace's fold, a baseline fold)
VIEWS = {
    "thread_utilization": lambda t, base: plain(t.thread_utilization()),
    "per_operator": lambda t, base: rows(t.per_operator(), OPERATOR_TIME),
    "memory_by_operator": lambda t, base: rows(
        t.memory_by_operator(), OPERATOR_MEMORY),
    "per_instruction": lambda t, base: plain(t.per_instruction()),
    "costly_instructions": lambda t, base: plain(t.costly_instructions()),
    "costly_instructions(top=3)": lambda t, base: plain(
        t.costly_instructions(top=3)),
    "costly_clusters": lambda t, base: plain(t.costly_clusters()),
    "costly_clusters(fraction=0.5)": lambda t, base: plain(
        t.costly_clusters(fraction=0.5)),
    "parallelism_profile": lambda t, base: plain(t.parallelism_profile()),
    "sequential_anomaly(1)": lambda t, base: plain(
        t.sequential_anomaly(expected_threads=1)),
    "sequential_anomaly(4)": lambda t, base: plain(
        t.sequential_anomaly(expected_threads=4)),
    "rss_timeline": lambda t, base: plain(t.rss_timeline()),
    "rss_timeline(buckets=7)": lambda t, base: plain(
        t.rss_timeline(buckets=7)),
    "rss_sparkline": lambda t, base: t.rss_sparkline(),
    "rss_sparkline(width=20)": lambda t, base: t.rss_sparkline(width=20),
    "compare(self)": lambda t, base: plain(t.compare(t)),
    "compare(q1_w4)": lambda t, base: plain(t.compare(base)),
    "compare(q1_w4, reversed)": lambda t, base: plain(base.compare(t)),
    "percentile": lambda t, base: [
        t.percentile(q) for q in (0, 50, 95, 99, 100)],
    "window(first half)": lambda t, base: window(
        t, 0, t.makespan_usec // 2),
    "window(last three quarters)": lambda t, base: window(
        t, t.makespan_usec // 4, t.makespan_usec),
    "summary": lambda t, base: t.summary(),
    "to_csv": lambda t, base: t.to_csv(),
    "segments": lambda t, base: plain(t.segments()),
    "birdseye": lambda t, base: render_birdseye(t.segments()),
    "birdseye(width=40)": lambda t, base: render_birdseye(
        t.segments(), width=40),
}


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests_of(traces):
    base = TraceAnalyzer(traces["q1_w4"])
    return {name: {view: digest(compute(TraceAnalyzer(events), base))
                   for view, compute in VIEWS.items()}
            for name, events in traces.items()}


@pytest.fixture(scope="module")
def traces():
    return recorded_traces()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_trace_and_view(traces, golden):
    assert list(golden) == list(traces) == list(TRACES)
    for entry in golden.values():
        assert list(entry) == list(VIEWS)


def test_the_traces_are_not_trivial(traces):
    for name in TRACES[:-1]:
        threads = {e.thread for e in traces[name]}
        assert len(traces[name]) > 100 and len(threads) > 1, name


@pytest.mark.parametrize("name", TRACES)
@pytest.mark.parametrize("view", list(VIEWS))
def test_view_unchanged(traces, golden, name, view):
    value = VIEWS[view](TraceAnalyzer(traces[name]),
                        TraceAnalyzer(traces["q1_w4"]))
    assert digest(value) == golden[name][view]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_analysis_golden.py --regen")
    with open(GOLDEN_PATH, "w") as out:
        json.dump(digests_of(recorded_traces()), out, indent=1)
        out.write("\n")
