"""Experiment E9 — bulk kernel and plan-cache speedups.

The storage engine's hot BAT kernels were rewritten around batch
primitives (fused comprehensions, operator tables, memoized head
indexes); the per-row originals are preserved verbatim in
``repro.storage.naive`` as the reference implementation.  These
benchmarks race the two on identical 100k-row inputs and also measure
the SQL→MAL plan cache (cold parse+optimize versus a warm hit).

Acceptance targets (ISSUE E9): the select -> fetchjoin -> group ->
aggregate pipeline over 100k rows beats the pre-PR kernels, a warm
plan-cache ``compile`` beats a cold one, and no kernel loses to its
reference.  A join race (:func:`run_join_race`) times the two hashes a
first value-keyed join can build; ``JOIN_HASH_SELF_RATIO`` is read
off it and it is shown, not gated.  The factors, and the share of its committed speedup
(``benchmarks/BENCH_E9_kernels.json``) every kernel must keep, are the
``e9`` rows of the gate table in ``benchmarks/check_regression.py``;
``check_regression.py --only e9`` runs this file and checks them.
"""

import random

from repro.server import Database
from repro.storage import bat as bat_module, naive
from repro.storage.bat import BAT
from repro.storage.catalog import Catalog
from repro.storage.types import INT, OID

import check_regression
from timing import interleaved_medians

ROWS = 100_000
NGROUPS = 32

PLAN_CACHE_QUERY = (
    "select l_returnflag, sum(l_extendedprice), count(*) from lineitem "
    "where l_quantity < 24 group by l_returnflag order by l_returnflag"
)


def _race(fast_fn, naive_fn):
    fast, slow = interleaved_medians(fast_fn, naive_fn, repeat=15, inner=3)
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

    The slices are cut afresh on every run, so this measures a *cold*
    slice: the first query after its column changed.  ``sql.bind(…,
    part, nparts)`` binds the column's memoized ``BAT.partitions``, so a
    warm fragment gets slices whose memos earlier runs built; the cut
    stays here so that E9's number stays comparable with its baseline.
    A slice of a void column is void, so the join is positional.
    """
    first, last = len(measure) // 2, len(measure) - 1
    keys = select(measure.slice_(first, last), 100, 299).mirror()
    return leftjoin(keys, grp.slice_(first, last))


def run_kernel_benchmarks(rows=ROWS):
    measure, grp = _dataset(rows)
    keys = BAT(OID, list(range(0, rows, 2)))
    hashed = BAT(INT, list(measure.tail),
                 head=list(range(rows)))  # non-void head: index path
    # the wide selects get a column of their own: a window of them with
    # no narrow one between makes the index policy drop the order index
    # for good, and select_indexed and the pipeline are about having it
    wide = BAT(INT, list(measure.tail))

    kernels = {
        # wide range: the order index declines, the fused scan answers
        "select_scan": _race(
            lambda: wide.select(100, 899),
            lambda: naive.select(wide, 100, 899)),
        # selective range: answered by bisecting the memoized order index
        "select_indexed": _race(
            lambda: measure.select(100, 299),
            lambda: naive.select(measure, 100, 299)),
        "thetaselect": _race(
            lambda: wide.thetaselect(500, "<"),
            lambda: naive.thetaselect(wide, 500, "<")),
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
                          naive.grouped_aggregate, measure, grp))
    return kernels


#: the join race: ``other``'s rows, and the self:other size ratios
JOIN_RACE_ROWS = 12_000
JOIN_RACE_RATIOS = (50, 16, 8, 2)


def run_join_race(rows=JOIN_RACE_ROWS, seed=11):
    """The two builds a first ``leftjoin`` against a materialised head
    can make, raced where ``JOIN_HASH_SELF_RATIO`` has to choose.

    ``other`` is the reverse of a ``rows``-row column, with unique
    heads or each head four times; ``self`` holds ``rows / ratio``
    probes of its keys.  ``hash_other`` builds ``other``'s head index
    (and multi-map, on duplicates) and probes it: what the second join
    against a head does.  ``hash_self`` hashes ``self``'s tail and
    scans ``other``'s head once: what the first one does when ``self``
    is the smaller side, here at every ratio (the race sets the ratio
    to 0 while it runs).  Both start from a head with no memo and give
    the same rows.
    """
    chosen, bat_module.JOIN_HASH_SELF_RATIO = \
        bat_module.JOIN_HASH_SELF_RATIO, 0
    try:
        return _join_race(rows, random.Random(seed))
    finally:
        bat_module.JOIN_HASH_SELF_RATIO = chosen


def _join_race(rows, rng):
    race = {}
    for heads, copies in (("unique", 1), ("dup4", 4)):
        keys = list(range(rows // copies)) * copies
        rng.shuffle(keys)
        other = BAT(INT, keys).reverse()
        for ratio in JOIN_RACE_RATIOS:
            size = rows // ratio
            probes = BAT(INT, [rng.randrange(rows // copies)
                               for _ in range(size)],
                         head=list(range(size)))

            def hash_other():
                other._invalidate_caches()
                other._join_scans = 1  # as if joined once before
                return probes.leftjoin(other)

            def hash_self():
                other._invalidate_caches()
                return probes.leftjoin(other)

            assert hash_other().tail == hash_self().tail
            assert other._index_cache is None  # hash_self did not hash it
            built, scanned = interleaved_medians(
                hash_other, hash_self, repeat=15, inner=3)
            race[f"{heads}_1:{ratio}"] = {
                "hash_other_ms": round(built * 1e3, 3),
                "hash_self_ms": round(scanned * 1e3, 3),
                "hash_self_speedup": round(built / scanned, 2),
            }
    return race


def run_plan_cache_benchmark():
    from repro.tpch import populate

    db = Database(Catalog(), workers=2)
    populate(db.catalog, scale_factor=0.01, seed=7)

    def cold():
        db.plan_cache.clear()
        db.compile(PLAN_CACHE_QUERY)

    def warm():  # the cold() before it left the plan cached
        for _ in range(100):
            db.compile(PLAN_CACHE_QUERY)

    cold_s, warm_s = interleaved_medians(cold, warm)
    warm_s /= 100
    return {
        "cold_ms": round(cold_s * 1e3, 3),
        "warm_us": round(warm_s * 1e6, 2),
        "speedup": round(cold_s / warm_s, 1),
    }


def run_benchmarks(rows=ROWS):
    return {
        "rows": rows,
        "kernels": run_kernel_benchmarks(rows),
        "join_race": run_join_race(),
        "plan_cache": run_plan_cache_benchmark(),
    }


def test_e9_kernels():
    """Rides the ``benchmarks/`` suite: the run and the rows that
    ``check_regression.py --only e9`` checks."""
    assert check_regression.run("e9") == 0
