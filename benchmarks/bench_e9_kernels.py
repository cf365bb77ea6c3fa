"""Experiment E9 — bulk kernel and plan-cache speedups.

The storage engine's hot BAT kernels were rewritten around batch
primitives (fused comprehensions, operator tables, memoized head
indexes); the per-row originals are preserved verbatim in
``repro.storage.naive`` as the reference implementation.  These
benchmarks race the two on identical 100k-row inputs and also measure
the SQL→MAL plan cache (cold parse+optimize versus a warm hit).

Acceptance targets (ISSUE E9):

- >= 3x on the 100k-row select -> fetchjoin -> group -> aggregate
  pipeline versus the pre-PR kernels;
- warm plan-cache ``compile`` >= 10x faster than a cold compile.

The results are the repo's first machine-readable perf baseline:
running this file standalone (``python benchmarks/bench_e9_kernels.py``)
prints a summary and writes ``e9_kernels_fresh.json`` into
``benchmarks/artifacts/``; ``benchmarks/check_regression.py`` compares
a fresh run against the committed ``benchmarks/BENCH_E9_kernels.json``
and fails on a >25% regression of any kernel.
"""

import json
import os
import random
import time

from repro.server import Database
from repro.storage import naive
from repro.storage.bat import BAT
from repro.storage.catalog import Catalog
from repro.storage.types import INT, OID

ROWS = 100_000
NGROUPS = 32

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")
BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_E9_kernels.json")

PLAN_CACHE_QUERY = (
    "select l_returnflag, sum(l_extendedprice), count(*) from lineitem "
    "where l_quantity < 24 group by l_returnflag order by l_returnflag"
)


def _median_seconds(fn, repeat=5):
    samples = []
    for _ in range(repeat):
        began = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - began)
    return sorted(samples)[len(samples) // 2]


def _race(fast_fn, naive_fn, repeat=9):
    """Interleaved medians so drifting machine load hits both sides."""
    fast_samples, naive_samples = [], []
    for _ in range(repeat):
        began = time.perf_counter()
        fast_fn()
        fast_samples.append(time.perf_counter() - began)
        began = time.perf_counter()
        naive_fn()
        naive_samples.append(time.perf_counter() - began)
    fast = sorted(fast_samples)[repeat // 2]
    slow = sorted(naive_samples)[repeat // 2]
    return {
        "new_ms": round(fast * 1e3, 3),
        "naive_ms": round(slow * 1e3, 3),
        "speedup": round(slow / fast, 2),
    }


def _dataset(rows=ROWS, seed=7):
    rng = random.Random(seed)
    measure = BAT(INT, [rng.randrange(0, 1000) for _ in range(rows)])
    grp = BAT(INT, [rng.randrange(0, NGROUPS) for _ in range(rows)])
    return measure, grp


def _pipeline(select, leftfetchjoin, group, grouped_aggregate,
              measure, grp):
    """select -> fetchjoin -> group -> aggregate over 100k rows.

    The candidate list is chained exactly as the SQL compiler emits it:
    ``bat.mirror`` over the selection result (identical glue on both
    sides), so the race isolates kernel cost.
    """
    qualifying = select(measure, 100, 299)
    keys = qualifying.mirror()
    dims = leftfetchjoin(keys, grp)
    vals = leftfetchjoin(keys, measure)
    groups, _, hist = group(dims)
    return grouped_aggregate(vals, groups, len(hist.tail), "sum")


def _partition_fetchjoin(select, leftjoin, measure, grp):
    """One mitosis fragment: select on a partition slice, fetch another
    column's slice through the mirrored candidates.

    The slices are cut afresh on every run, as ``sql.bind(…, part,
    nparts)`` cuts them for every query: whatever a kernel builds on
    one (a head hash table, a sort index) is paid for here and thrown
    away.  A slice of a void column is void, so the join is positional.
    """
    first, last = len(measure) // 2, len(measure) - 1
    keys = select(measure.slice_(first, last), 100, 299).mirror()
    return leftjoin(keys, grp.slice_(first, last))


def run_kernel_benchmarks(rows=ROWS):
    measure, grp = _dataset(rows)
    keys = BAT(OID, list(range(0, rows, 2)))
    hashed = BAT(INT, list(measure.tail),
                 head=list(range(rows)))  # non-void head: index path

    kernels = {
        # wide range: the order index declines, the fused scan answers
        "select_scan": _race(
            lambda: measure.select(100, 899),
            lambda: naive.select(measure, 100, 899)),
        # selective range: answered by bisecting the memoized order index
        "select_indexed": _race(
            lambda: measure.select(100, 299),
            lambda: naive.select(measure, 100, 299)),
        "thetaselect": _race(
            lambda: measure.thetaselect(500, "<"),
            lambda: naive.thetaselect(measure, 500, "<")),
        "leftfetchjoin_void": _race(
            lambda: keys.leftfetchjoin(measure),
            lambda: naive.leftfetchjoin(keys, measure)),
        "leftjoin_hash": _race(
            lambda: keys.leftjoin(hashed),
            lambda: naive.leftjoin(keys, hashed)),
        "partition_fetchjoin": _race(
            lambda: _partition_fetchjoin(BAT.select, BAT.leftjoin,
                                         measure, grp),
            lambda: _partition_fetchjoin(naive.select, naive.leftjoin,
                                         measure, grp)),
        "group": _race(
            lambda: grp.group(),
            lambda: naive.group(grp)),
        "grouped_aggregate": None,  # filled below (needs group output)
        "sort": _race(
            lambda: measure.sort(),
            lambda: naive.sort(measure)),
        "calc_const": _race(
            lambda: measure.calc_const(3, "*"),
            lambda: naive.calc_const(measure, 3, "*")),
    }
    groups = grp.group()[0]
    kernels["grouped_aggregate"] = _race(
        lambda: measure.grouped_aggregate(groups, NGROUPS, "sum"),
        lambda: naive.grouped_aggregate(measure, groups, NGROUPS, "sum"))

    kernels["pipeline"] = _race(
        lambda: _pipeline(BAT.select, BAT.leftfetchjoin, BAT.group,
                          BAT.grouped_aggregate, measure, grp),
        lambda: _pipeline(naive.select, naive.leftfetchjoin, naive.group,
                          naive.grouped_aggregate, measure, grp),
        repeat=3)
    return kernels


def run_plan_cache_benchmark():
    from repro.tpch import populate

    db = Database(Catalog(), workers=2)
    populate(db.catalog, scale_factor=0.01, seed=7)

    def cold():
        db.plan_cache.clear()
        db.compile(PLAN_CACHE_QUERY)

    cold_s = _median_seconds(cold, repeat=9)
    db.compile(PLAN_CACHE_QUERY)  # prime

    def warm():
        for _ in range(100):
            db.compile(PLAN_CACHE_QUERY)

    warm_s = _median_seconds(warm, repeat=9) / 100
    return {
        "cold_ms": round(cold_s * 1e3, 3),
        "warm_us": round(warm_s * 1e6, 2),
        "speedup": round(cold_s / warm_s, 1),
    }


def run_benchmarks(rows=ROWS):
    return {
        "rows": rows,
        "kernels": run_kernel_benchmarks(rows),
        "plan_cache": run_plan_cache_benchmark(),
    }


def write_results(results, path):
    with open(path, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# pytest entry points (ride the benchmarks/ suite)
# ---------------------------------------------------------------------------


def test_e9_pipeline_speedup(artifacts):
    results = run_benchmarks()
    write_results(results,
                  os.path.join(artifacts, "e9_kernels_fresh.json"))
    pipeline = results["kernels"]["pipeline"]
    assert pipeline["speedup"] >= 3.0, (
        f"pipeline only {pipeline['speedup']}x over naive kernels")
    # every racing kernel must at least not lose to its reference
    for name, result in results["kernels"].items():
        assert result["speedup"] >= 1.0, (
            f"{name} slower than naive: {result}")


def test_e9_plan_cache_speedup(artifacts):
    result = run_plan_cache_benchmark()
    with open(os.path.join(artifacts, "e9_plan_cache.txt"), "w") as f:
        f.write(f"cold={result['cold_ms']}ms warm={result['warm_us']}us "
                f"speedup={result['speedup']}x\n")
    assert result["speedup"] >= 10.0, (
        f"warm compile only {result['speedup']}x faster than cold")


def main():
    results = run_benchmarks()
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    write_results(results,
                  os.path.join(ARTIFACT_DIR, "e9_kernels_fresh.json"))
    for name, result in sorted(results["kernels"].items()):
        print(f"{name:22s} new={result['new_ms']:9.3f}ms "
              f"naive={result['naive_ms']:9.3f}ms "
              f"speedup={result['speedup']:6.2f}x")
    cache = results["plan_cache"]
    print(f"{'plan_cache':22s} cold={cache['cold_ms']}ms "
          f"warm={cache['warm_us']}us speedup={cache['speedup']}x")
    print(f"wrote {os.path.join(ARTIFACT_DIR, 'e9_kernels_fresh.json')}")


if __name__ == "__main__":
    main()
