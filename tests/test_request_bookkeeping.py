"""What a statement leaves behind is what it left behind before.

PR 24 made the bookkeeping around ``Database.execute`` cheaper —
``MetricFamily.labels`` probes before it stringifies, histograms bucket
by bisection, ``StatsStore.observe_program`` folds its EWMAs inline,
``QueryContext`` cancels on a lock-guarded bool, the admission slot is
an object, not a generator — and none of that may change a number.  So
one fixed, seeded sequence of 200 requests runs over a live ``Mserver``
and everything it left is compared with ``request_bookkeeping_golden.
json``, recorded at 21a4d89 (the parent of that PR, *before* the
change) by copying this file into that checkout and running::

    PYTHONPATH=src python tests/test_request_bookkeeping.py --regen

Pinned: every sample of the ``repro_mal_*``, ``repro_server_*`` and
``repro_stats_*`` families (counts, sums and each bucket; of the one
wall-clock histogram, ``repro_server_query_usec``, the count), the
``StatsStore`` snapshot as bytes (entries, EWMA values, LRU order —
the store is small enough here that it evicts) without its query
entries' wall-clock ``lat`` (the whole-query latency the deadline
reroute reads is measured, so only its observation count is pinned),
and the ``queries`` verb's ``recent`` list without its wall-clock
``elapsed_s``.
Regenerate only for a change that is *meant* to alter what a statement
records, and say so in CHANGES.md.  It was regenerated once since: when
the store stopped keeping a modelled latency per instruction and kept
selections only, which changed the ``repro_stats_*`` samples and the
snapshot bytes, and — because 48 entries of selections outlast 48 of
every instruction — let two statements' select chains be reordered,
which moved two ``repro_mal_instruction_usec`` sums by 8 µs and the
utilisation sum; every count, row and ``repro_server_*`` sample held.
And once more when a cached plan compiled on cold statistics began to
be re-planned once after its first observed run: six repeated
statements of the sequence re-plan, five of them into reordered
chains, which lowered the ``algebra`` and ``bat`` sums of
``repro_mal_instruction_usec`` by 107 and 8 µs (three cumulative bucket
counts moved by one), moved the utilisation sum and changed the
snapshot's selection entries; again every count, row and
``repro_server_*`` sample held.
"""

import json
import os
import random
import sys
import threading

import pytest

from repro.errors import ReproError
from repro.metrics import REGISTRY, snapshot as metrics_snapshot
from repro.metrics.core import MetricError, Registry
from repro.server import Database, MClient, Mserver
from repro.server.lifecycle import QueryContext
from repro.stats import StatsStore
from repro.storage import Catalog
from repro.tpch import populate, query_sql
from repro.workloads import random_query

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "request_bookkeeping_golden.json")
_FAMILIES = ("repro_mal_", "repro_server_", "repro_stats_")
_WALL_CLOCK = ("repro_server_query_usec",)
_TPCH = ("demo", "q1", "q3", "q6", "q12")


def _requests(rng: random.Random):
    """200 requests: mostly small SELECTs (a quarter of them repeats,
    so EWMAs fold more than once), some TPC-H texts, writes, statements
    that fail, and the verbs that touch no engine code."""
    seen = []
    for index in range(200):
        draw = rng.random()
        if index == 0:
            yield "query", "create table notes (a integer, s varchar(16))"
        elif draw < 0.50:
            seen.append(random_query(rng))
            yield "query", seen[-1]
        elif draw < 0.65 and seen:
            yield "query", rng.choice(seen)
        elif draw < 0.75:
            yield "query", query_sql(rng.choice(_TPCH))
        elif draw < 0.80:
            yield "query", f"insert into notes values ({index}, 'n{index}')"
        elif draw < 0.85:
            yield "query", rng.choice((
                "select nothing from nowhere", "selec 1",
                "select count(*) from notes where"))
        elif draw < 0.90:
            yield "explain", "select count(*) from notes"
        elif draw < 0.95:
            yield "ping", None
        else:
            yield "queries", None


def observe() -> dict:
    """Run the sequence; return everything it left behind."""
    REGISTRY.reset()
    catalog = Catalog()
    populate(catalog, scale_factor=0.02, seed=3)
    database = Database(catalog=catalog, workers=2,
                        stats_store=StatsStore(capacity=48))
    with Mserver(database) as server, \
            MClient(port=server.port) as client:
        for verb, sql in _requests(random.Random("request-bookkeeping")):
            try:
                if verb == "query":
                    client.query(sql)
                elif verb == "explain":
                    client.explain(sql)
                elif verb == "ping":
                    client.ping()
                else:
                    client.queries()
            except ReproError:
                pass
        recent = client.queries()["recent"]
        # read while the connection is up, so the active gauge is 1
        metrics = {}
        for name, family in metrics_snapshot().items():
            if not name.startswith(_FAMILIES):
                continue
            if name in _WALL_CLOCK:
                family = dict(family, samples=[
                    {"labels": s["labels"], "count": s["count"]}
                    for s in family["samples"]])
            metrics[name] = family["samples"]
        stats = json.dumps(database.stats_store.snapshot())
    for entry in recent:
        del entry["elapsed_s"]
    # through JSON so tuples and lists compare as the file holds them
    return json.loads(json.dumps(
        {"metrics": metrics, "stats_store": stats, "recent": recent}))


def _without_latencies(stats_json: str) -> str:
    """The snapshot bytes with each query entry's measured ``lat``
    dropped; key order (the LRU order) is kept."""
    stats = json.loads(stats_json)
    for entry in stats["queries"].values():
        del entry["lat"]
    return json.dumps(stats)


class TestTheSequenceLeavesWhatItLeftBefore:
    @pytest.fixture(scope="class")
    def pair(self):
        with open(GOLDEN_PATH) as handle:
            golden = json.load(handle)
        return observe(), golden

    def test_every_metric_sample(self, pair):
        fresh, golden = pair
        assert sorted(fresh["metrics"]) == sorted(golden["metrics"])
        for name, samples in golden["metrics"].items():
            assert fresh["metrics"][name] == samples, name

    def test_the_sequence_reaches_what_it_pins(self, pair):
        """The goldens are not vacuous: errors, evictions, several
        modules' histograms and a folded EWMA are all in them."""
        metrics = pair[1]["metrics"]
        assert metrics["repro_stats_evictions_total"][0]["value"] > 0
        assert any(s["value"] for s in
                   metrics["repro_server_request_errors_total"])
        assert len(metrics["repro_mal_instruction_usec"]) >= 5
        store = json.loads(pair[1]["stats_store"])
        assert len(store["entries"]) == 48
        assert any(entry["n"] > 1 for entry in store["entries"].values())

    def test_stats_store_snapshot_bytes(self, pair):
        fresh, golden = pair
        assert _without_latencies(fresh["stats_store"]) == \
            _without_latencies(golden["stats_store"])

    def test_recent_queries(self, pair):
        fresh, golden = pair
        assert fresh["recent"] == golden["recent"]


class TestLabelsStillRefusesMisuse:
    def test_wrong_arity_and_missing_name(self):
        family = Registry().counter("t_total", "help", labels=("a", "b"))
        family.labels("x", "y").inc()
        family.labels(a="x", b="y").inc()
        family.labels(1, 2).inc()
        assert family.labels("x", "y").value() == 2
        assert family.labels("1", "2").value() == 1
        assert sorted(family.children()) == [("1", "2"), ("x", "y")]
        for bad in (lambda: family.labels("x"),
                    lambda: family.labels("x", "y", "z"),
                    lambda: family.labels(a="x"),
                    lambda: family.labels(a="x", c="y"),
                    lambda: family.labels("x", b="y"),
                    lambda: family.labels()):
            with pytest.raises(MetricError):
                bad()
        assert sorted(family.children()) == [("1", "2"), ("x", "y")]


class TestHistogramBucketsByBisection:
    def test_every_edge_lands_where_the_loop_put_it(self):
        bounds = (1.0, 5.0, 25.0)
        values = [-1, 0, 1, 1.0, 1.5, 5, 5.0001, 25, 26, float("inf")]
        one = Registry().histogram("one_usec", "help", buckets=bounds)
        many = Registry().histogram("many_usec", "help", buckets=bounds)
        for value in values:
            one.observe(value)
        many.observe_many(values)
        expected = [[1.0, 4], [5.0, 6], [25.0, 8], ["+Inf", 10]]
        for family in (one, many):
            sample = family.snapshot()["samples"][0]
            assert sample["buckets"] == expected
            assert sample["count"] == 10


class TestCancelIsSeenAtTheNextCheck:
    def test_from_another_thread(self):
        context = QueryContext("q1", sql="select 1")
        context.mark_running()
        context.check()
        thread = threading.Thread(target=context.cancel,
                                  args=("stop", "client"))
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert context.cancelled
        with pytest.raises(ReproError):
            context.check()
        # a second cancel is not counted, a finished query not cancelled
        assert context.cancel() is False
        done = QueryContext("q2")
        done.finish("done")
        assert done.cancel() is False and not done.cancelled


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_request_bookkeeping.py --regen")
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(observe(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
