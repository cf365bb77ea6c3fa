"""Property-based parity suite: bulk BAT kernels vs naive references.

Every kernel rewritten for the bulk execution layer in
``repro.storage.bat`` is run here against the per-row reference
implementation preserved in ``repro.storage.naive``, over randomized
inputs covering void and materialised heads, nil-bearing columns and
every atom type.  "Parity" is strict: same tails, same heads, same head
materialisation (void stays void), same output types, same errors.
Both implementations follow one voidness rule (``repro.storage.bat``'s
module docstring); a hypothesis property checks it kernel by kernel
against the same inputs with their heads written out, and a plan-level
test checks that partitioned TPC-H plans never hash a dense head.

The second half covers the SQL→MAL plan cache: hit/miss accounting,
invalidation on DDL/DML and data loaded behind the catalog's back, and
cross-session isolation of per-session pipeline/worker overrides.
"""

import datetime
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import StorageError
from repro.mal.modules.mat import pack as mat_pack
from repro.storage import naive
from repro.storage.bat import (
    BAT, JOIN_HASH_SELF_RATIO, ORDER_INDEX_EAGER_MIN_ROWS,
)
from repro.storage.types import BIT, DATE, DBL, INT, LNG, OID, STR, nil
from repro.server.database import Database, PlanCache, normalize_sql
from repro.storage.catalog import Catalog

SEEDS = [3, 11, 29]

_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
          "theta", "iota", "kappa", ""]


def _value(rng: random.Random, mal_type):
    if mal_type is INT or mal_type is LNG:
        return rng.randrange(-50, 50)
    if mal_type is OID:
        return rng.randrange(0, 100)
    if mal_type is DBL:
        return round(rng.uniform(-25.0, 25.0), 3)
    if mal_type is STR:
        return rng.choice(_WORDS) + str(rng.randrange(10))
    if mal_type is DATE:
        return datetime.date(1995, 1, 1) + datetime.timedelta(
            days=rng.randrange(0, 1200))
    if mal_type is BIT:
        return rng.random() < 0.5
    raise AssertionError(mal_type)


def make_bat(rng: random.Random, mal_type, n=None, nil_rate=0.25,
             void=None, hseqbase=None) -> BAT:
    """A random BAT: void or shuffled materialised head, optional nils."""
    if n is None:
        n = rng.randrange(0, 40)
    if void is None:
        void = rng.random() < 0.5
    if hseqbase is None:
        hseqbase = rng.choice([0, 0, 7, 100])
    values = [nil if rng.random() < nil_rate else _value(rng, mal_type)
              for _ in range(n)]
    if void:
        return BAT(mal_type, values, hseqbase=hseqbase)
    heads = [rng.randrange(0, 200) for _ in range(n)]
    return BAT(mal_type, values, head=heads)


def assert_parity(fast: BAT, reference: BAT) -> None:
    """Strict observational equality, including head materialisation."""
    assert fast.tail_type is reference.tail_type
    assert fast.tail == reference.tail
    assert (fast.head is None) == (reference.head is None)
    assert list(fast.heads()) == list(reference.heads())
    # identical footprint => identical rss numbers in profiler traces
    assert fast.bytes() == naive.bat_bytes(reference)


ALL_TYPES = [INT, LNG, DBL, STR, OID, DATE, BIT]
ORDERED_TYPES = [INT, LNG, DBL, STR, OID, DATE]


# ---------------------------------------------------------------------------
# selections
# ---------------------------------------------------------------------------


class TestSelectionParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mal_type", ALL_TYPES)
    def test_point_select(self, seed, mal_type):
        rng = random.Random(seed)
        for _ in range(8):
            bat = make_bat(rng, mal_type)
            needle = (_value(rng, mal_type)
                      if not bat.tail or rng.random() < 0.5
                      else rng.choice([v for v in bat.tail] or [nil]))
            assert_parity(bat.select(needle), naive.select(bat, needle))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mal_type", ORDERED_TYPES)
    @pytest.mark.parametrize("include_low", [True, False])
    @pytest.mark.parametrize("include_high", [True, False])
    def test_range_select(self, seed, mal_type, include_low, include_high):
        rng = random.Random(seed)
        for _ in range(6):
            bat = make_bat(rng, mal_type)
            low = nil if rng.random() < 0.25 else _value(rng, mal_type)
            high = nil if rng.random() < 0.25 else _value(rng, mal_type)
            assert_parity(
                bat.select(low, high, include_low, include_high),
                naive.select(bat, low, high, include_low, include_high),
            )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mal_type", ORDERED_TYPES)
    @pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
    def test_thetaselect(self, seed, mal_type, op):
        rng = random.Random(seed)
        for _ in range(5):
            bat = make_bat(rng, mal_type)
            value = _value(rng, mal_type)
            assert_parity(bat.thetaselect(value, op),
                          naive.thetaselect(bat, value, op))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("pattern", ["%a%", "alpha%", "%a_", "_e%",
                                         "gamma3", "%", ""])
    def test_likeselect(self, seed, pattern):
        rng = random.Random(seed)
        bat = make_bat(rng, STR, n=30)
        assert_parity(bat.likeselect(pattern),
                      naive.likeselect(bat, pattern))

    def test_unknown_theta_op_raises(self):
        bat = BAT(INT, [1, 2])
        with pytest.raises(StorageError):
            bat.thetaselect(1, "<>")

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mal_type", [INT, DBL, STR, DATE])
    def test_order_index_path_matches_scan(self, seed, mal_type):
        """BATs above ORDER_INDEX_MIN_ROWS answer selective ranges by
        bisecting the memoized order index — results must match the
        scan reference exactly, nils and duplicates included."""
        rng = random.Random(seed)
        from repro.storage.bat import ORDER_INDEX_MIN_ROWS

        n = ORDER_INDEX_MIN_ROWS + 100
        for nil_rate in (0.0, 0.2):
            bat = make_bat(rng, mal_type, n=n, nil_rate=nil_rate)
            lo, hi = sorted((_value(rng, mal_type), _value(rng, mal_type)))
            for bounds in [(lo, hi), (lo, lo), (nil, lo), (hi, nil)]:
                for incl in [(True, True), (False, False), (True, False)]:
                    assert_parity(
                        bat.select(bounds[0], bounds[1], *incl),
                        naive.select(bat, bounds[0], bounds[1], *incl))
            assert_parity(bat.select(lo), naive.select(bat, lo))
            for op in ["<", "<=", ">", ">=", "=="]:
                assert_parity(bat.thetaselect(lo, op),
                              naive.thetaselect(bat, lo, op))

    def test_order_index_invalidated_by_append(self):
        from repro.storage.bat import ORDER_INDEX_MIN_ROWS

        rng = random.Random(2)
        n = ORDER_INDEX_MIN_ROWS + 10
        bat = BAT(INT, [rng.randrange(1000) for _ in range(n)])
        assert_parity(bat.select(0, 50), naive.select(bat, 0, 50))  # builds
        bat.append(7)
        bat.extend([13, 999])
        assert_parity(bat.select(0, 50), naive.select(bat, 0, 50))
        assert_parity(bat.thetaselect(990, ">"),
                      naive.thetaselect(bat, 990, ">"))


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


class TestJoinParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("base", [0, 5])
    def test_leftjoin_void_other_all_hits(self, seed, base):
        """The prescan fast path: every oid lands inside ``other``."""
        rng = random.Random(seed)
        other = make_bat(rng, STR, n=20, void=True, hseqbase=base)
        oids = [rng.randrange(base, base + 20) for _ in range(30)]
        for left_void in (True, False):
            left = (BAT(OID, oids, hseqbase=3) if left_void
                    else BAT(OID, oids, head=[rng.randrange(99)
                                              for _ in oids]))
            assert_parity(left.leftjoin(other), naive.leftjoin(left, other))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leftjoin_void_other_with_misses_and_nils(self, seed):
        rng = random.Random(seed)
        other = make_bat(rng, DBL, n=10, void=True, hseqbase=4)
        oids = [nil if rng.random() < 0.2 else rng.randrange(0, 25)
                for _ in range(40)]
        left = BAT(OID, oids, hseqbase=2)
        assert_parity(left.leftjoin(other), naive.leftjoin(left, other))

    @pytest.mark.parametrize("mal_type", [INT, LNG, OID])
    @pytest.mark.parametrize("oids", [[nil], [4, nil], [nil, 5, 4],
                                      [6, 4, nil, 5]])
    def test_a_nil_among_hits_fails_the_prescan_not_the_fetch(
            self, mal_type, oids):
        """Into a void ``other`` from seqbase 4 every non-nil oid hits:
        the nil makes the prescan's min/max raise, and the per-row path
        answers."""
        other = BAT(STR, ["a", "b", "c"], hseqbase=4)
        left = BAT(mal_type, oids, hseqbase=1)
        assert_parity(left.leftjoin(other), naive.leftjoin(left, other))
        assert_parity(left.leftfetchjoin(other),
                      naive.leftfetchjoin(left, other))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leftjoin_hash_other_with_duplicate_heads(self, seed):
        rng = random.Random(seed)
        heads = [rng.randrange(0, 8) for _ in range(25)]  # many dups
        other = BAT(STR, [_value(rng, STR) for _ in heads], head=heads)
        left = make_bat(rng, OID, n=30, nil_rate=0.2)
        assert_parity(left.leftjoin(other), naive.leftjoin(left, other))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leftjoin_value_keyed_heads(self, seed):
        """Old-MonetDB value-keyed join: other's head holds str values."""
        rng = random.Random(seed)
        values = list({_value(rng, STR) for _ in range(15)})
        other = BAT(STR, values).reverse()  # head=str values, tail=oids
        left = BAT(STR, [rng.choice(values + ["missing!"])
                         for _ in range(30)])
        assert_parity(left.leftjoin(other), naive.leftjoin(left, other))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("base", [0, 6])
    def test_leftfetchjoin_all_hits(self, seed, base):
        rng = random.Random(seed)
        other = make_bat(rng, STR, n=15, void=True, hseqbase=base)
        oids = [rng.randrange(base, base + 15) for _ in range(25)]
        for left_void in (True, False):
            left = (BAT(OID, oids, hseqbase=9) if left_void
                    else BAT(OID, oids, head=[rng.randrange(99)
                                              for _ in oids]))
            assert_parity(left.leftfetchjoin(other),
                          naive.leftfetchjoin(left, other))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leftfetchjoin_nil_passthrough(self, seed):
        rng = random.Random(seed)
        other = make_bat(rng, INT, n=12, void=True, hseqbase=0)
        oids = [nil if rng.random() < 0.3 else rng.randrange(0, 12)
                for _ in range(30)]
        left = BAT(OID, oids, hseqbase=1)
        assert_parity(left.leftfetchjoin(other),
                      naive.leftfetchjoin(left, other))

    def test_leftfetchjoin_miss_raises_in_both(self):
        other = BAT(INT, [10, 20, 30], hseqbase=5)
        left = BAT(OID, [5, 6, 99])
        with pytest.raises(StorageError, match="fetchjoin miss"):
            left.leftfetchjoin(other)
        with pytest.raises(StorageError, match="fetchjoin miss"):
            naive.leftfetchjoin(left, other)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leftfetchjoin_hash_other(self, seed):
        rng = random.Random(seed)
        heads = rng.sample(range(50), 20)
        heads += heads[:3]  # duplicates: last position must win
        other = BAT(DBL, [_value(rng, DBL) for _ in heads], head=heads)
        left = BAT(OID, [rng.choice(heads) for _ in range(30)])
        assert_parity(left.leftfetchjoin(other),
                      naive.leftfetchjoin(left, other))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", ["semijoin", "kdifference"])
    def test_semijoin_kdifference_all_head_shapes(self, seed, kernel):
        rng = random.Random(seed)
        for self_void in (True, False):
            for other_void in (True, False):
                left = make_bat(rng, STR, n=25, void=self_void,
                                hseqbase=rng.choice([0, 4]))
                other = make_bat(rng, INT, n=rng.choice([0, 10]),
                                 void=other_void,
                                 hseqbase=rng.choice([0, 8, 30]))
                fast = getattr(left, kernel)(other)
                reference = getattr(naive, kernel)(left, other)
                assert_parity(fast, reference)


#: head columns a hash join meets, as (keys to draw heads from, keys the
#: probing tail also draws): all-unique and heavily duplicated oids,
#: value-keyed strings and dates, and keys of different types that hash
#: and compare equal, which one dict entry must answer for
_DAY = datetime.date(1996, 3, 1)
_KEY_POOLS = {
    "oids": (list(range(40)), [77, 99]),
    "few oids": ([0, 1, 2, 3], [9]),
    "strings": (_WORDS, ["missing!"]),
    "dates": ([_DAY + datetime.timedelta(days=d) for d in range(12)],
              [_DAY - datetime.timedelta(days=1)]),
    "hash-equal": ([1, 1.0, True, 0, 0.0, False, 2, 2.0], [3, 3.0]),
}


def _raw(mal_type, tail, head=None) -> BAT:
    """A BAT holding exactly these values: no cast of a mixed column."""
    return BAT(mal_type)._like(None if head is None else list(head),
                               list(tail))


@st.composite
def _hash_join_case(draw):
    keys, misses = _KEY_POOLS[draw(st.sampled_from(sorted(_KEY_POOLS)))]
    heads = draw(st.one_of(
        st.lists(st.sampled_from(keys), max_size=25),             # dups
        st.lists(st.sampled_from(keys), max_size=25, unique=True),
        st.just([])))
    probes = draw(st.lists(
        st.one_of(st.sampled_from(keys + misses), st.none()), max_size=30))
    left_heads = draw(st.one_of(
        st.none(), st.lists(st.integers(0, 99), min_size=len(probes),
                            max_size=len(probes))))
    return heads, probes, left_heads


class TestHashJoinIndexParity:
    """``leftjoin``/``join`` against a materialised head: the unique-key
    probe of the head index and the duplicate-key multi-map both give
    the reference's heads, tails, order and ``head is None``."""

    @settings(max_examples=300, deadline=None)
    @given(case=_hash_join_case())
    def test_leftjoin_and_join_match_the_reference(self, case):
        heads, probes, left_heads = case
        other = _raw(LNG, range(100, 100 + len(heads)), head=heads)
        left = _raw(OID, probes, head=left_heads)
        reference = naive.leftjoin(left, other)
        assert_parity(left.leftjoin(other), reference)
        assert_parity(left.join(other), reference)  # memoised second use
        unique = len(set(heads)) == len(heads)
        assert (other._multimap_cache is None) == unique

    @settings(max_examples=100, deadline=None)
    @given(heads=st.lists(st.integers(0, 6), min_size=1, max_size=10),
           probes=st.lists(st.one_of(st.integers(0, 9), st.none()),
                           max_size=20),
           appends=st.integers(1, 4))
    def test_both_indexes_dropped_by_an_append_between_joins(
            self, heads, probes, appends):
        """``append`` continues the head densely, which can turn a
        unique head into a duplicated one (and a join must then move
        from the index to the multi-map) or extend either kind."""
        other = _raw(INT, range(len(heads)), head=heads)
        left = _raw(OID, probes)
        assert_parity(left.leftjoin(other), naive.leftjoin(left, other))
        for value in range(appends):
            other.append(value)
            assert other._index_cache is None
            assert other._multimap_cache is None
            assert_parity(left.leftjoin(other),
                          naive.leftjoin(left, other))
            assert_parity(left.join(other), naive.leftjoin(left, other))

    def test_unique_heads_build_no_list(self, monkeypatch):
        """The unique-key probe never reaches the multi-map builder."""
        monkeypatch.setattr(BAT, "_head_multimap", lambda self: 1 / 0)
        other = BAT(STR, ["a", "b", "c"], head=[7, 3, 5])
        left = BAT(OID, [5, nil, 7, 4, 5])
        joined = left.leftjoin(other)
        assert (list(joined.heads()), joined.tail) == ([0, 2, 4],
                                                       ["c", "a", "c"])


@st.composite
def _crossover_case(draw):
    """A join on either side of ``JOIN_HASH_SELF_RATIO``: duplicated
    keys on both sides, nil probes, probes that miss."""
    keys, misses = _KEY_POOLS[draw(st.sampled_from(sorted(_KEY_POOLS)))]
    heads = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=120))
    smaller = draw(st.booleans())
    most = len(heads) // JOIN_HASH_SELF_RATIO if smaller else 40
    probes = draw(st.lists(
        st.one_of(st.sampled_from(keys + misses), st.none()),
        max_size=most))
    left_heads = draw(st.one_of(
        st.none(), st.lists(st.integers(0, 99), min_size=len(probes),
                            max_size=len(probes))))
    return heads, probes, left_heads


class TestJoinPaths:
    """The smaller-side hash of ``leftjoin``/``join``, the memoized
    ``reverse`` and the fetch through a complete tid each return what
    the path they replace returns."""

    @settings(max_examples=300, deadline=None)
    @given(case=_crossover_case())
    def test_either_side_of_the_crossover_matches_the_reference(self, case):
        heads, probes, left_heads = case
        other = _raw(LNG, range(100, 100 + len(heads)), head=heads)
        left = _raw(OID, probes, head=left_heads)
        reference = naive.leftjoin(left, other)
        scanned = len(probes) * JOIN_HASH_SELF_RATIO <= len(heads)
        assert_parity(left.leftjoin(other), reference)
        assert (other._index_cache is None) == scanned
        assert_parity(left.join(other), reference)  # builds the hash
        assert other._index_cache is not None
        assert_parity(left.leftjoin(other), reference)  # probes it

    def test_the_second_smaller_side_use_builds_and_keeps_the_hash(self):
        other = BAT(INT, [k % 50 for k in range(200)]).reverse()
        small = BAT(INT, [3, 7, 7, nil])
        first = small.leftjoin(other)
        assert other._index_cache is None and other._multimap_cache is None
        assert other._join_scans == 1
        assert_parity(small.leftjoin(other), naive.leftjoin(small, other))
        assert other._index_cache is not None
        assert other._multimap_cache is not None
        assert_parity(first, naive.leftjoin(small, other))
        other.append(0)  # a mutation forgets the count with the hash
        assert (other._index_cache, other._join_scans) == (None, 0)

    def test_a_larger_side_hashes_other_at_once(self):
        other = _raw(LNG, range(32), head=list(range(32)))
        left = BAT(OID, list(range(0, 32, 8)))  # 4 * 16 > 32
        assert_parity(left.leftjoin(other), naive.leftjoin(left, other))
        assert other._index_cache is not None and other._join_scans == 0

    def test_reverse_is_one_bat_until_either_side_changes(self):
        column = BAT(INT, [5, 3, 5, 9], hseqbase=2)
        reversed_ = column.reverse()
        assert (reversed_.head, reversed_.tail) == ([5, 3, 5, 9],
                                                    [2, 3, 4, 5])
        assert column.reverse() is reversed_
        reversed_.append(0)
        again = column.reverse()
        assert again is not reversed_ and again.tail == [2, 3, 4, 5]
        column.append(1)
        assert column._reverse_cache is None
        grown = column.reverse()
        assert (grown.head, grown.tail) == ([5, 3, 5, 9, 1],
                                            [2, 3, 4, 5, 6])

    @pytest.mark.parametrize("kernel", ["leftjoin", "leftfetchjoin"])
    @pytest.mark.parametrize("mal_type", ALL_TYPES)
    def test_a_fetch_through_a_complete_tid_is_the_column(
            self, kernel, mal_type):
        column = make_bat(random.Random(13), mal_type, n=30, void=True,
                          hseqbase=0)
        tid = BAT.dense_oids(30)
        fetched = getattr(tid, kernel)(column)
        assert fetched is column  # no tail allocated
        assert_parity(fetched, getattr(naive, kernel)(tid, column))

    @pytest.mark.parametrize("kernel", ["leftjoin", "leftfetchjoin"])
    def test_any_other_fetch_gathers(self, kernel):
        """The mark, not the data, says a tid is complete: a shorter
        tid, a longer column, a tid appended to and an unmarked 0..n-1
        all take the gather they always took (and so does a column not
        based at 0, which a fetch would miss)."""
        rng = random.Random(17)
        column = make_bat(rng, STR, n=30, void=True, hseqbase=0)
        appended = BAT.dense_oids(29)
        appended.append(29)
        cases = [(BAT.dense_oids(20), column),
                 (BAT.dense_oids(30),
                  make_bat(rng, STR, n=40, void=True, hseqbase=0)),
                 (appended, column),
                 (BAT(OID, range(30)), column)]
        if kernel == "leftjoin":
            cases.append((BAT.dense_oids(30),
                          make_bat(rng, STR, n=30, void=True, hseqbase=5)))
        assert not appended._tdense
        for tid, other in cases:
            fetched = getattr(tid, kernel)(other)
            assert fetched is not other
            assert_parity(fetched, getattr(naive, kernel)(tid, other))


# ---------------------------------------------------------------------------
# ordering, grouping, aggregation
# ---------------------------------------------------------------------------


class TestOrderGroupAggregateParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mal_type", ORDERED_TYPES)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_sort(self, seed, mal_type, reverse):
        rng = random.Random(seed)
        for nil_rate in (0.0, 0.3):
            bat = make_bat(rng, mal_type, nil_rate=nil_rate)
            assert_parity(bat.sort(reverse=reverse),
                          naive.sort(bat, reverse=reverse))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mal_type", ALL_TYPES)
    def test_group(self, seed, mal_type):
        rng = random.Random(seed)
        bat = make_bat(rng, mal_type)
        for fast, reference in zip(bat.group(), naive.group(bat)):
            assert_parity(fast, reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_refine_group(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 40)
        first = make_bat(rng, STR, n=n)
        second = make_bat(rng, INT, n=n, void=first.is_void_head,
                          hseqbase=first.hseqbase)
        if not first.is_void_head:
            second = BAT(INT, second.tail, head=list(first.head))
        groups = first.group()[0]
        for fast, reference in zip(second.refine_group(groups),
                                   naive.refine_group(second, groups)):
            assert_parity(fast, reference)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("func", ["count", "sum", "min", "max", "avg"])
    def test_scalar_aggregate(self, seed, func):
        rng = random.Random(seed)
        for mal_type in (INT, DBL):
            for nil_rate in (0.0, 0.4, 1.0):
                bat = make_bat(rng, mal_type, nil_rate=nil_rate)
                assert bat.aggregate(func) == naive.aggregate(bat, func)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("func", ["count", "sum", "min", "max", "avg"])
    @pytest.mark.parametrize("mal_type", [INT, DBL])
    def test_grouped_aggregate(self, seed, func, mal_type):
        rng = random.Random(seed)
        n = rng.randrange(1, 50)
        keys = BAT(INT, [rng.randrange(0, 6) for _ in range(n)])
        groups = keys.group()[0]
        ngroups = (max(groups.tail) + 1) if groups.tail else 0
        values = make_bat(rng, mal_type, n=n, void=True, nil_rate=0.3)
        assert_parity(
            values.grouped_aggregate(groups, ngroups, func),
            naive.grouped_aggregate(values, groups, ngroups, func),
        )

    @pytest.mark.parametrize("func", ["sum", "min", "max", "avg"])
    def test_grouped_aggregate_empty_group_is_nil(self, func):
        values = BAT(INT, [nil, nil, 5])
        groups = BAT(OID, [0, 0, 2])
        fast = values.grouped_aggregate(groups, 3, func)
        reference = naive.grouped_aggregate(values, groups, 3, func)
        assert_parity(fast, reference)
        assert fast.tail[0] is nil and fast.tail[1] is nil


_GROUPED_FUNCS = ["count", "count_no_nil", "sum", "min", "max", "avg"]
#: key atoms a grouping chain draws from, with their values
_KEY_ATOMS = [(INT, st.integers(-2, 2)),
              (STR, st.sampled_from(["a", "b", ""])),
              (DBL, st.sampled_from([0.5, -1.0, 2.0])),
              (BIT, st.booleans())]


def _reference_aggregate(values: BAT, groups: BAT, ngroups: int,
                         func: str) -> BAT:
    """naive's grouped aggregate; ``count_no_nil`` is its ``count`` over
    the rows whose value is not nil."""
    if func != "count_no_nil":
        return naive.grouped_aggregate(values, groups, ngroups, func)
    kept = [(v, g) for v, g in zip(values.tail, groups.tail) if v is not nil]
    return naive.grouped_aggregate(BAT(values.tail_type, [v for v, _ in kept]),
                                   BAT(OID, [g for _, g in kept]),
                                   ngroups, "count")


@st.composite
def _grouping_chain(draw):
    """2-3 nil-bearing key columns of one length and head, and an int or
    dbl value column under the same head."""
    n = draw(st.integers(0, 30))
    heads = draw(st.one_of(st.none(), st.lists(
        st.integers(0, 99), min_size=n, max_size=n)))
    hseqbase = draw(st.sampled_from([0, 7]))

    def column(mal_type, values):
        tail = draw(st.lists(st.one_of(st.none(), values),
                             min_size=n, max_size=n))
        return BAT(mal_type, tail, head=heads, hseqbase=hseqbase)

    keys = [column(*draw(st.sampled_from(_KEY_ATOMS)))
            for _ in range(draw(st.integers(2, 3)))]
    values = column(*draw(st.sampled_from([
        (INT, st.integers(-50, 50)), (DBL, st.sampled_from([0.25, -3.5]))])))
    return keys, values


class TestGroupingChains:
    """``group.new`` then 2-3 ``group.derive``s over nil-bearing keys give
    the reference's triples at every step, and the histogram a groups BAT
    keeps changes no aggregate: the same aggregate over a plain copy of
    the BAT, and naive's, agree with it."""

    @settings(max_examples=100, deadline=None)
    @given(case=_grouping_chain())
    def test_a_chain_and_its_aggregates_match_the_reference(self, case):
        keys, values = case
        fast, reference = keys[0].group(), naive.group(keys[0])
        for key in keys[1:]:
            for mine, theirs in zip(fast, reference):
                assert_parity(mine, theirs)
            fast = key.refine_group(fast[0])
            reference = naive.refine_group(key, reference[0])
        for mine, theirs in zip(fast, reference):
            assert_parity(mine, theirs)
        groups, ngroups = fast[0], len(fast[1])
        assert groups._histogram(ngroups) == fast[2].tail
        plain = groups.copy()
        assert plain._histogram(ngroups) is None
        for func in _GROUPED_FUNCS:
            kept = values.grouped_aggregate(groups, ngroups, func)
            assert_parity(kept, values.grouped_aggregate(plain, ngroups,
                                                         func))
            assert_parity(kept, _reference_aggregate(
                values, reference[0], ngroups, func))

    @settings(max_examples=200, deadline=None)
    @given(keys=st.lists(st.one_of(st.none(), st.integers(0, 4)),
                         min_size=1, max_size=30),
           change=st.sampled_from(["append", "patch", "wider"]),
           func=st.sampled_from(_GROUPED_FUNCS),
           seed=st.integers(0, 999))
    def test_a_changed_grouping_never_reads_a_stale_histogram(
            self, keys, change, func, seed):
        groups, extents, _hist = BAT(INT, keys).group()
        ngroups = len(extents)
        if change == "append":
            groups.append(0)
        elif change == "patch":  # same length: only the hand call clears
            groups.tail[-1] = 0
            groups._invalidate_caches()
        else:
            ngroups += 2
        assert groups._histogram(ngroups) is None
        values = make_bat(random.Random(seed), INT, n=len(groups),
                          void=True, nil_rate=0.3)
        assert_parity(values.grouped_aggregate(groups, ngroups, func),
                      _reference_aggregate(values, groups, ngroups, func))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scalar_count_no_nil_counts_the_values(self, seed):
        rng = random.Random(seed)
        for nil_rate in (0.0, 0.4, 1.0):
            bat = make_bat(rng, STR, nil_rate=nil_rate)
            values = BAT(STR, [v for v in bat.tail if v is not nil])
            assert bat.aggregate("count_no_nil") == naive.aggregate(
                values, "count")


# ---------------------------------------------------------------------------
# elementwise calc
# ---------------------------------------------------------------------------


class TestCalcParity:
    # "and"/"or" need BIT-castable inputs; they get their own test below.
    OPS = ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("op", OPS)
    def test_calc_two_bats(self, seed, op):
        rng = random.Random(seed)
        left_type = rng.choice([INT, DBL])
        right_type = rng.choice([INT, DBL])
        n = rng.randrange(0, 40)
        for nil_rate in (0.0, 0.3):
            a = make_bat(rng, left_type, n=n, nil_rate=nil_rate, void=True)
            b = make_bat(rng, right_type, n=n, nil_rate=nil_rate, void=True)
            assert_parity(a.calc(b, op), naive.calc(a, b, op))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("swapped", [False, True])
    def test_calc_const(self, seed, op, swapped):
        rng = random.Random(seed)
        for nil_rate in (0.0, 0.3):
            a = make_bat(rng, rng.choice([INT, DBL]), nil_rate=nil_rate)
            const = rng.choice([0, 3, -2, 1.5])
            assert_parity(a.calc_const(const, op, swapped=swapped),
                          naive.calc_const(a, const, op, swapped=swapped))

    def test_calc_const_nil_constant(self):
        a = BAT(INT, [1, 2, 3])
        assert_parity(a.calc_const(nil, "+"), naive.calc_const(a, nil, "+"))

    def test_division_by_zero_parity(self):
        a = BAT(INT, [6, 7, nil])
        b = BAT(INT, [3, 0, 2])
        assert_parity(a.calc(b, "/"), naive.calc(a, b, "/"))
        assert a.calc(b, "/").tail == [2.0, nil, nil]

    @pytest.mark.parametrize("op", ["and", "or"])
    def test_boolean_truthiness_semantics(self, op):
        """Three-valued: FALSE AND nil is FALSE, TRUE OR nil is TRUE,
        any other nil operand gives nil."""
        a = BAT(BIT, [True] * 3 + [False] * 3 + [nil] * 3)
        b = BAT(BIT, [True, False, nil] * 3)
        assert_parity(a.calc(b, op), naive.calc(a, b, op))
        assert a.calc(b, op).tail == {
            "and": [True, False, nil, False, False, False, nil, False, nil],
            "or": [True, True, True, True, False, nil, True, nil, nil]}[op]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("op", ["and", "or"])
    def test_bits_in_bits_out_without_a_cast(self, seed, op):
        """Two bit columns, or a bit column and a bool, skip the cast
        pass; an int operand still takes it.  Every cell is a bool or
        nil either way."""
        rng = random.Random(seed)
        n = rng.randrange(0, 40)
        a = make_bat(rng, BIT, n=n, nil_rate=0.3)
        b = make_bat(rng, BIT, n=n, nil_rate=0.3, void=a.is_void_head,
                     hseqbase=a.hseqbase)
        ints = BAT(INT, [rng.choice([0, 1, 5, nil]) for _ in range(n)])
        cases = [(a.calc(b, op), naive.calc(a, b, op)),
                 (ints.calc(b, op), naive.calc(ints, b, op))]
        for const in (True, False, nil):
            for swapped in (False, True):
                cases.append((a.calc_const(const, op, swapped=swapped),
                              naive.calc_const(a, const, op,
                                               swapped=swapped)))
        for fast, reference in cases:
            assert_parity(fast, reference)
            assert {type(v) for v in fast.tail} <= {bool, type(None)}

    def test_str_concat_parity(self):
        a = BAT(STR, ["x", nil, "z"])
        assert_parity(a.calc_const("!", "+"), naive.calc_const(a, "!", "+"))


# ---------------------------------------------------------------------------
# memoized caches: bytes, indexes, bulk extend
# ---------------------------------------------------------------------------


class TestCacheCoherence:
    @pytest.mark.parametrize("mal_type", ALL_TYPES)
    def test_bytes_matches_reference_and_survives_mutation(self, mal_type):
        rng = random.Random(5)
        bat = make_bat(rng, mal_type, n=20, void=True)
        assert bat.bytes() == naive.bat_bytes(bat)
        assert bat.bytes() == naive.bat_bytes(bat)  # cached second read
        bat.append(_value(rng, mal_type))
        assert bat.bytes() == naive.bat_bytes(bat)
        bat.extend([_value(rng, mal_type) for _ in range(7)])
        assert bat.bytes() == naive.bat_bytes(bat)

    def test_extend_equals_append_loop(self):
        rng = random.Random(9)
        values = [nil if rng.random() < 0.2 else rng.randrange(100)
                  for _ in range(50)]
        bulk = BAT(INT, [1, 2], head=[10, 11])
        loop = BAT(INT, [1, 2], head=[10, 11])
        bulk.extend(values)
        for v in values:
            loop.append(v)
        assert bulk.tail == loop.tail
        assert bulk.head == loop.head

    def test_extend_casts_in_bulk(self):
        bat = BAT(INT, [])
        bat.extend(["7", 8.0, True, nil])
        assert bat.tail == [7, 8, 1, nil]

    def test_join_index_invalidated_by_append(self):
        other = BAT(INT, [100, 200], head=[1, 2])
        left = BAT(OID, [1, 2, 3])
        assert left.leftjoin(other).tail == [100, 200]
        other.append(300)  # head continues densely: 3
        assert left.leftjoin(other).tail == [100, 200, 300]
        assert left.leftfetchjoin(other).tail == [100, 200, 300]

    def test_fetch_index_invalidated_by_extend(self):
        other = BAT(STR, ["a"], head=[0])
        left = BAT(OID, [0])
        assert left.leftfetchjoin(other).tail == ["a"]
        other.extend(["b", "c"])
        wider = BAT(OID, [0, 1, 2])
        assert wider.leftfetchjoin(other).tail == ["a", "b", "c"]
        assert wider.semijoin(other).tail == [0, 1, 2]


# ---------------------------------------------------------------------------
# the voidness rule: ``head is None`` exactly when the output heads are
# ``hseqbase .. hseqbase+n-1`` by construction
# ---------------------------------------------------------------------------


def materialised(bat: BAT) -> BAT:
    """The same associations under an explicit head column."""
    out = bat.copy()
    out.head = list(bat.heads())
    return out


def _retyped(bat: BAT, mal_type, fn) -> BAT:
    return BAT(mal_type, [nil if v is nil else fn(v) for v in bat.tail],
               head=bat.head, hseqbase=bat.hseqbase)


def _groups(bat: BAT) -> BAT:
    return bat.group()[0]


#: every BAT-returning kernel as f(a, b): a and b are equally long with
#: nilable oid tails in 0..24, so joins see hits, misses and all-hit runs
KERNELS = {
    "select": lambda a, b: a.select(5),
    "select_range": lambda a, b: a.select(3, 12, True, False),
    "thetaselect": lambda a, b: a.thetaselect(9, "<"),
    "likeselect": lambda a, b: _retyped(a, STR, str).likeselect("1%"),
    "leftjoin": lambda a, b: a.leftjoin(b),
    "leftjoin_dbl_tail": lambda a, b: _retyped(a, DBL, float).leftjoin(b),
    "leftfetchjoin": lambda a, b: a.leftfetchjoin(b),
    "join": lambda a, b: a.join(b),
    "reverse": lambda a, b: b.reverse() if nil not in b.tail else b,
    "mirror": lambda a, b: a.mirror(),
    "mark": lambda a, b: a.mark(4),
    "project": lambda a, b: a.project(7),
    "slice": lambda a, b: a.slice_(2, 9),
    "slice_empty": lambda a, b: a.slice_(5, 3),
    "semijoin": lambda a, b: a.semijoin(b.slice_(1, 6)),
    "kdifference": lambda a, b: a.kdifference(b.slice_(1, 6)),
    "kdifference_prefix": lambda a, b: a.kdifference(b.slice_(0, 3)),
    "sort": lambda a, b: a.sort(),
    "group": lambda a, b: a.group(),
    "refine_group": lambda a, b: a.refine_group(_groups(b)),
    "grouped_sum": lambda a, b: _retyped(a, INT, int).grouped_aggregate(
        _groups(b), len(b.group()[1]), "sum"),
    "calc": lambda a, b: a.calc(b, "+"),
    "calc_const": lambda a, b: a.calc_const(2, "*"),
    "copy": lambda a, b: a.copy(),
    "pack": lambda a, b: mat_pack(None, None, [a, b]),
    "pack_slices": lambda a, b: mat_pack(
        None, None, [a.slice_(0, 3), a.slice_(4, 6), a.slice_(7, 99)]),
    "pack_partitions": lambda a, b: mat_pack(None, None, a.partitions(3)),
}

_oids = st.one_of(st.integers(0, 24), st.none())
_pairs = st.lists(st.tuples(_oids, _oids), max_size=20)
_bases = st.sampled_from([0, 0, 3, 17])


def _outcome(fn, a, b):
    try:
        out = fn(a, b)
    except StorageError as exc:
        return str(exc)
    return out if isinstance(out, tuple) else (out,)


class TestVoidnessRule:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @settings(max_examples=60, deadline=None)
    @given(pairs=_pairs, base_a=_bases, base_b=_bases,
           void_b=st.booleans())
    def test_voidness_never_changes_the_associations(
            self, kernel, pairs, base_a, base_b, void_b):
        """A kernel run on void inputs returns the associations it
        returns on the same inputs with their heads written out; and
        where it answers ``head is None``, those heads are the run."""
        a = BAT(OID, [x for x, _ in pairs], hseqbase=base_a)
        b = BAT(OID, [y for _, y in pairs], hseqbase=base_b)
        if not void_b:
            b = materialised(b)
        fast = _outcome(KERNELS[kernel], a, b)
        reference = _outcome(KERNELS[kernel], materialised(a),
                             materialised(b))
        if isinstance(reference, str):
            assert fast == reference
            return
        for out, ref in zip(fast, reference):
            assert out.tail_type is ref.tail_type
            assert out.tail == ref.tail
            assert list(out.heads()) == list(ref.heads())
            if out.head is None:
                assert list(ref.heads()) == list(
                    range(out.hseqbase, out.hseqbase + len(out)))

    def test_slice_of_a_void_column_is_void(self):
        column = BAT(INT, list(range(10)), hseqbase=100)
        part = column.slice_(4, 6)
        assert part.head is None and part.hseqbase == 104
        assert part.tail == [4, 5, 6]
        assert column.slice_(7, 3).head is None
        assert BAT(INT, [1, 2, 3], head=[9, 8, 7]).slice_(1, 2).head == [8, 7]

    def test_all_hit_gathers_keep_a_void_head(self):
        column = BAT(STR, list("abcdef"), hseqbase=10).slice_(2, 5)
        for tail_type in (OID, INT):    # blind gather needs base 0
            left = BAT(tail_type, [12, 15, 13], hseqbase=7)
            for kernel in ("leftjoin", "leftfetchjoin", "join"):
                out = getattr(left, kernel)(column)
                assert out.head is None and out.hseqbase == 7
                assert out.tail == ["c", "f", "d"]
        assert BAT(OID, [1, 0]).leftjoin(BAT(INT, [5, 6])).head is None
        # a dropped row, or a hash join, materialises
        assert BAT(OID, [12, 99]).leftjoin(column).head == [0]
        hashed = BAT(STR, ["x", "y"], head=[12, 13])
        assert BAT(OID, [12, 13]).leftjoin(hashed).head == [0, 1]
        assert BAT(OID, [12, 13]).leftfetchjoin(hashed).head is None

    def test_pack_of_adjacent_void_ranges_is_one_void_range(self):
        column = BAT(INT, list(range(9)), hseqbase=20)
        parts = [column.slice_(0, 2), column.slice_(3, 3),
                 column.slice_(4, 8)]
        whole = mat_pack(None, None, parts)
        assert whole.head is None and whole.hseqbase == 20
        assert whole.tail == column.tail
        gapped = mat_pack(None, None, [parts[0], parts[2]])
        assert gapped.head == [20, 21, 22, 24, 25, 26, 27, 28]
        mixed = mat_pack(None, None, [parts[0], materialised(parts[1])])
        assert mixed.head == [20, 21, 22, 23]

    def test_head_set_kernels_keep_a_single_run_void(self):
        column = BAT(INT, list(range(10)), hseqbase=5)      # oids 5..14
        inside = BAT(INT, [0] * 4, hseqbase=8)              # oids 8..11
        kept = column.semijoin(inside)
        assert kept.head is None and kept.hseqbase == 8
        assert kept.tail == [3, 4, 5, 6]
        assert column.semijoin(BAT(INT, [0], hseqbase=40)).head is None
        assert column.kdifference(inside).head == [5, 6, 7, 12, 13, 14]
        prefix = column.kdifference(BAT(INT, [0] * 8, hseqbase=0))
        assert prefix.head is None and prefix.hseqbase == 8
        suffix = column.kdifference(BAT(INT, [0] * 9, hseqbase=12))
        assert suffix.head is None and suffix.hseqbase == 5
        assert suffix.tail == list(range(7))
        untouched = column.kdifference(BAT(INT, [], hseqbase=9))
        assert untouched.head is None and untouched.tail == column.tail
        assert column.mirror().head is None
        assert column.mirror().tail == list(range(5, 15))


# ---------------------------------------------------------------------------
# the nil-free rule: a mark says "no nil" only of a tail that holds none
# ---------------------------------------------------------------------------


def _assert_mark_holds(bat: BAT) -> None:
    """A known mark is the truth about the tail: nil-free means no nil."""
    mark = bat._nil_mark()
    if mark is not None:
        assert mark == (nil in bat.tail), (mark, bat.tail)


def _ifthenelse(cond: BAT, then, otherwise) -> BAT:
    from repro.mal.modules.batcalc import ifthenelse
    return ifthenelse(None, None, [cond, then, otherwise])


#: KERNELS and the kernels whose nil-freeness hangs on the operator or
#: the constant: ``/`` and ``%`` answer nil for a zero divisor
MARK_KERNELS = {
    **KERNELS,
    "calc_div": lambda a, b: a.calc(b, "/"),
    "calc_mod": lambda a, b: a.calc(b, "%"),
    "calc_sub": lambda a, b: a.calc(b, "-"),
    "calc_eq": lambda a, b: a.calc(b, "=="),
    "calc_and": lambda a, b: a.calc(b, "==").calc(b.calc(a, "<"), "and"),
    "calc_const_div": lambda a, b: a.calc_const(0, "/", swapped=True),
    "calc_const_mod": lambda a, b: a.calc_const(a.count() % 3, "%"),
    "calc_const_nil": lambda a, b: a.calc_const(nil, "+", out_type=OID),
    "calc_const_or": lambda a, b: a.calc(b, "<").calc_const(False, "or"),
    "project_nil": lambda a, b: a.project(nil, OID),
    "grouped_avg": lambda a, b: _retyped(a, INT, int).grouped_aggregate(
        _groups(b), len(b.group()[1]), "avg"),
    "grouped_min": lambda a, b: a.grouped_aggregate(
        _groups(b), len(b.group()[1]), "min"),
    "grouped_count_no_nil": lambda a, b: a.grouped_aggregate(
        _groups(b), len(b.group()[1]), "count_no_nil"),
    "sum_then_avg": lambda a, b: (lambda g: (
        a.grouped_aggregate(g, len(b.group()[1]), "sum"),
        a.grouped_aggregate(g, len(b.group()[1]), "avg")))(_groups(b)),
    "ifthenelse": lambda a, b: _ifthenelse(a.calc(b, "<"), a, 1),
    "pack_mixed": lambda a, b: mat_pack(None, None, [a, b, a.slice_(1, 4)]),
}

_positions = st.sets(st.integers(0, 19), max_size=4)


def _with_nils(tail, positions, known: bool) -> BAT:
    """An oid BAT of ``tail`` with nil at ``positions``; its mark is
    known (tested) or not, as ``known`` says."""
    bat = BAT(OID, [nil if i in positions else v for i, v in enumerate(tail)])
    if known:
        bat.has_nil()
    return bat


class TestNilFreeMark:
    """The nil-free rule of ``repro.storage.bat``: every kernel that
    marks its result, marks it truly.  Nil-free inputs are drawn as
    often as nil-bearing ones, with their mark known or not."""

    @pytest.mark.parametrize("kernel", sorted(MARK_KERNELS))
    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)),
                          max_size=20),
           nils_a=_positions, nils_b=_positions, known_a=st.booleans(),
           known_b=st.booleans(), void_b=st.booleans())
    def test_a_marked_result_holds_no_nil(self, kernel, pairs, nils_a,
                                          nils_b, known_a, known_b, void_b):
        a = _with_nils([x for x, _ in pairs], nils_a, known_a)
        b = _with_nils([y for _, y in pairs], nils_b, known_b)
        if not void_b:
            b = materialised(b)._marked(b._nil_mark() is False)
        outcome = _outcome(MARK_KERNELS[kernel], a, b)
        if isinstance(outcome, str):
            return
        for bat in (a, b, *outcome):
            _assert_mark_holds(bat)

    def test_the_kernels_mark_what_they_prove(self):
        a = BAT(OID, [2, 0, 1])
        b = BAT(OID, [0, 2, 7])
        assert a._nil_mark() is None and not a.has_nil()
        assert not b.has_nil()
        for out in (a.calc(b, "+"), a.calc(b, "<"), a.calc_const(2, "*"),
                    a.select(3), a.thetaselect(9, "<"), a.slice_(0, 1),
                    a.leftjoin(b), a.leftfetchjoin(b), *a.group(),
                    mat_pack(None, None, [a, b])):
            assert out._nil_mark() is False
        for out in (a.calc(b, "/"), a.calc(b, "%"), a.calc_const(0, "/"),
                    mat_pack(None, None, [a, BAT(OID, [1])])):
            assert out._nil_mark() is not False

    @settings(max_examples=100, deadline=None)
    @given(tail=st.lists(st.one_of(st.integers(0, 9), st.none()),
                         max_size=12),
           batches=st.lists(st.lists(st.one_of(st.integers(0, 9),
                                               st.none()), max_size=5),
                            max_size=4),
           known=st.booleans(), nparts=st.integers(1, 4))
    def test_an_append_keeps_the_mark_by_its_values(self, tail, batches,
                                                    known, nparts):
        column = BAT(INT)
        column.extend(tail)
        if known:
            column.has_nil()
        for batch in batches:
            if len(batch) == 1:
                column.append(batch[0])
            else:
                column.extend(batch)
            _assert_mark_holds(column)
            for part in column.partitions(nparts):
                _assert_mark_holds(part)
        _assert_mark_holds(mat_pack(None, None, column.partitions(nparts)))

    def test_a_loaded_column_is_never_scanned(self):
        column = BAT(INT)
        column.extend([1, 2, 3])
        column.append(4)
        assert column._nil_mark() is False
        column.extend([nil, 5])
        assert column._nil_mark() is True
        assert BAT.from_ship_bytes(BAT(INT, [1, 2]).to_ship_bytes()) \
            ._nil_mark() is False
        assert BAT.from_ship_bytes(BAT(INT, [1, nil]).to_ship_bytes()) \
            ._nil_mark() is True

    @settings(max_examples=60, deadline=None)
    @given(first=st.lists(st.one_of(st.integers(0, 9), st.none()),
                          max_size=6),
           second=st.lists(st.one_of(st.integers(0, 9), st.none()),
                           min_size=1, max_size=6),
           known=st.booleans())
    def test_an_insert_undo_keeps_the_mark_true(self, first, second, known):
        from repro.storage.durable import prepare_record

        catalog = Catalog()
        catalog.schema().create_table("t", [("a", INT)])
        column = catalog.table("t").column("a").bat
        column.extend(first)
        if known:
            column.has_nil()
        apply, undo = prepare_record(catalog, "insert", {
            "table": "t", "rows": [[v] for v in second]})
        apply()
        _assert_mark_holds(column)
        undo()
        assert column.tail == first
        _assert_mark_holds(column)
        undo()      # idempotent
        _assert_mark_holds(column)


def _cut(column: BAT, nparts: int):
    """The partitions as ``sql.bind`` cut them before a column owned
    them: one fresh ``slice_`` per part."""
    total = len(column)
    return [column.slice_(part * total // nparts,
                          (part + 1) * total // nparts - 1)
            for part in range(nparts)]


def _assert_covers(packed: BAT, parts, column: BAT) -> None:
    """``packed`` holds exactly the column's associations that ``parts``
    cover, in the order of ``parts``."""
    assert packed is not column
    expected = [pair for part in parts for pair in part.items()]
    assert list(packed.items()) == expected
    rows = dict(column.items())
    assert all(rows[oid] == value for oid, value in expected)


class TestPartitions:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("nparts", range(1, 9))
    def test_partitions_are_the_bind_arithmetic_and_memoized(
            self, seed, nparts):
        rng = random.Random(seed)
        column = make_bat(rng, rng.choice(ALL_TYPES), n=rng.randrange(0, 30))
        parts = column.partitions(nparts)
        assert len(parts) == nparts
        for part, cut in zip(parts, _cut(column, nparts)):
            assert_parity(part, cut)
            assert part.parent is column
        assert all(again is part for again, part
                   in zip(column.partitions(nparts), parts))

    @pytest.mark.parametrize("grow", [lambda bat: bat.append(5),
                                      lambda bat: bat.extend([5, nil, 6])])
    def test_a_mutation_cuts_new_partitions(self, grow):
        column = BAT(INT, list(range(12)), hseqbase=40)
        parts = column.partitions(4)
        grow(column)
        again = column.partitions(4)
        assert not any(old is new for old, new in zip(parts, again))
        for part, cut in zip(again, _cut(column, 4)):
            assert_parity(part, cut)
        # the stale set no longer packs into the column
        _assert_covers(mat_pack(None, None, parts), parts, column)

    @pytest.mark.parametrize("nparts", range(1, 9))
    def test_a_columns_own_partitions_pack_into_the_column(self, nparts):
        for column in (BAT(STR, [str(i) for i in range(21)], hseqbase=3),
                       BAT(INT, list(range(21)), head=list(range(50, 71))),
                       BAT(DBL, [])):
            assert mat_pack(None, None, column.partitions(nparts)) is column

    def test_any_other_set_concatenates(self):
        column = BAT(INT, [7, nil, 9, 4, 4, 1, 0, 8, 3, 2], hseqbase=100)
        parts = column.partitions(4)
        other = BAT(INT, list(column.tail), hseqbase=100).partitions(4)
        for subset in (parts[:3], parts[1:], [parts[0], parts[2]],
                       parts[::-1], [parts[1], parts[0], parts[2], parts[3]],
                       list(parts) + [parts[3]], list(other),
                       [other[0]] + list(parts[1:]), _cut(column, 4)):
            _assert_covers(mat_pack(None, None, subset), subset, column)
        # another nparts replaced the memo: the old set is stale
        column.partitions(2)
        _assert_covers(mat_pack(None, None, parts), parts, column)


# ---------------------------------------------------------------------------
# a partition in its column's oid space
# ---------------------------------------------------------------------------


def _slice_kernels(rng: random.Random, part: BAT, mal_type):
    """``(label, call)`` for every kernel that reads a void slice by
    oid, each ``call(impl)`` run with ``impl`` the BAT class (the bulk
    kernels) or :mod:`repro.storage.naive`.  Every selection runs three
    times, so the slice's order index is built and consulted between."""
    low, high = sorted((_value(rng, mal_type) for _ in range(2)),
                       key=lambda v: (v is None, v))
    selections = [("select", (low,)), ("select", (low, high)),
                  ("select", (low, high, False, True)),
                  ("select", (low, high, True, False)),
                  ("select", (nil, high, True, False)),
                  ("select", (low, nil, False, True))]
    selections += [("thetaselect", (high, op))
                   for op in ("==", "!=", "<", "<=", ">", ">=")]
    if mal_type is STR:
        selections.append(("likeselect", ("%a%",)))
    calls = [(f"{name}{args}", lambda impl, name=name, args=args:
              getattr(impl, name)(part, *args))
             for name, args in selections * 3]
    base, n = part.hseqbase, len(part)
    inside = [rng.randrange(base, base + n) for _ in range(n and 12)]
    near = [rng.randrange(max(base - 4, 0), base + n + 4) for _ in range(12)]
    fetched = [BAT(OID, inside), BAT(OID, inside + [nil]), BAT(OID, near),
               BAT(INT, inside, hseqbase=5)]
    for left in fetched:
        for name in ("leftjoin", "leftfetchjoin"):
            calls.append((f"{name}{left.tail}", lambda impl, name=name,
                          left=left: getattr(impl, name)(left, part)))
    others = [BAT(INT, [0] * len(near), head=near),
              BAT(INT, [0] * 5, hseqbase=base + n // 3)]
    for other in others:
        for name in ("semijoin", "kdifference"):
            calls.append((f"{name}{list(other.heads())}", lambda impl,
                          name=name, other=other:
                          getattr(impl, name)(part, other)))
    return calls


def _run_on_slices(rng: random.Random, parts, mal_type):
    """Every kernel of :func:`_slice_kernels` on every slice against
    naive; returns the (oid, offset) reads each slice counted."""
    before = [(part._oid_reads, part._offset_reads) for part in parts]
    for part in parts:
        for label, call in _slice_kernels(rng, part, mal_type):
            fast, reference = (_outcome(lambda impl, _: call(impl), impl,
                                        None) for impl in (BAT, naive))
            if isinstance(reference, str):
                assert fast == reference, label
                continue
            assert_parity(fast[0], reference[0])
    return [(part._oid_reads - oid, part._offset_reads - offset)
            for part, (oid, offset) in zip(parts, before)]


_columns = st.tuples(st.integers(0, 2 ** 32), st.sampled_from(ORDERED_TYPES),
                     st.integers(0, 1200), st.sampled_from([0.0, 0.1, 0.4]),
                     st.sampled_from([2, 3, 4, 8]))


class TestOidSpace:
    """A void slice that is one of the current partitions of a void
    column from 0 counts in the column's oids and reads the column's
    tail; a stale one reads its own by offset, and so does any slice of
    a column based elsewhere (without counting).  All agree with naive
    on the slice."""

    @staticmethod
    def _column(seed, mal_type, n, nil_rate):
        rng = random.Random(seed)
        return rng, make_bat(rng, mal_type, n=n, nil_rate=nil_rate,
                             void=True, hseqbase=rng.choice([0, 0, 9]))

    @settings(max_examples=25, deadline=None)
    @given(case=_columns)
    def test_current_partitions_read_by_oid(self, case):
        seed, mal_type, n, nil_rate, nparts = case
        rng, column = self._column(seed, mal_type, n, nil_rate)
        parts = column.partitions(nparts)
        reads = _run_on_slices(rng, parts, mal_type)
        for part, (oid, offset) in zip(parts, reads):
            if column.hseqbase:
                assert (oid, offset) == (0, 0)
                continue
            assert offset == 0
            assert oid > 0 or not part.hseqbase or not len(part)
            if len(part) >= ORDER_INDEX_EAGER_MIN_ROWS:
                assert part._order_cache is not None or part._order_disabled
            if part._order_cache is not None:
                assert part._order_cache[3] == part.hseqbase

    @settings(max_examples=15, deadline=None)
    @given(case=_columns, patch=st.booleans())
    def test_stale_partitions_read_by_offset(self, case, patch):
        """Cut, read (order indexes built in oid space), then append to
        the column or patch every cell of it in place: the old slices
        keep their rows and must not read the column's new ones."""
        seed, mal_type, n, nil_rate, nparts = case
        rng, column = self._column(seed, mal_type, n, nil_rate)
        parts = column.partitions(nparts)
        _run_on_slices(rng, parts, mal_type)
        if patch:
            column.tail[:] = [_value(rng, mal_type) for _ in column.tail]
            column._invalidate_caches()
        else:
            column.extend([_value(rng, mal_type) for _ in range(5)])
        reads = _run_on_slices(rng, parts, mal_type)
        for part, (oid, offset) in zip(parts, reads):
            assert oid == 0
            assert offset > 0 or column.hseqbase or not part.hseqbase \
                or not len(part)

    @pytest.mark.parametrize("mal_type", [INT, STR])
    def test_a_rollback_under_the_read_leaves_the_slices_whole(
            self, mal_type, monkeypatch):
        """An INSERT's rows are cut into the partitions, then its undo
        (``del tail[length:]``, which waits for no reader) runs between
        a kernel's ask for the column and its read of it: the last
        slice's oids past the cut miss, and it answers from its own
        rows, as naive does."""
        rng = random.Random(11)
        column = make_bat(rng, mal_type, n=900, nil_rate=0.1, void=True,
                          hseqbase=0)
        inserted, length = list(column.tail), 600
        parts = column.partitions(3)
        ask = BAT._column_tail

        def ask_then_roll_back(part):
            column.tail[length:] = inserted[length:]   # the INSERT applied
            handed = ask(part)
            del column.tail[length:]                   # and rolled back
            return handed

        monkeypatch.setattr(BAT, "_column_tail", ask_then_roll_back)
        _run_on_slices(rng, parts, mal_type)
        assert parts[2]._oid_reads > 0

    def test_a_changed_slice_leaves_its_column(self):
        column = BAT(INT, list(range(20)))
        part = column.partitions(2)[1]
        assert part._column_tail() is column.tail
        part.append(99)
        assert part.parent is None and part._column_tail() is None
        assert part.select(99).head == [20]


#: the timed ``tpch_scan`` mix of ``benchmarks/e2e``
TIMED_TPCH = ["demo", "q1", "q3", "q4", "q5", "q6", "q10", "q12", "q17",
              "q18", "q19"]


def _dense(head) -> bool:
    return len(head) >= 2 and head == list(range(head[0],
                                                 head[0] + len(head)))


class TestPartitionedPlansStayVoid:
    def test_no_hash_table_over_a_dense_head(self, monkeypatch):
        """Under ``default_pipe`` with mitosis on, the timed TPC-H
        queries bind void partition slices and never hash a head that
        is its own index.

        A materialised head may still be dense by accident of the data
        when its oids are *values*: ``bat.reverse`` of a key column, or
        a join with a materialised side.  Anything else that is dense
        (a slice, a pack, a gather of two void inputs, a mirror) should
        have been void.
        """
        import repro.mal.interpreter as interpreter
        from repro.tpch import populate, query_sql

        catalog = Catalog()
        populate(catalog, scale_factor=0.05, seed=7)
        database = Database(catalog=catalog, workers=4,
                            mitosis_threshold=50)
        producer = {}    # id(BAT) -> (the BAT, its instruction, inputs)
        slices, builds, offenders = [], [], []
        execute = interpreter.execute_instruction

        def recording_execute(ctx, instr):
            inputs, outputs = execute(ctx, instr)
            for out in outputs:
                if isinstance(out, BAT):
                    producer[id(out)] = (out, instr.qualified_name, inputs)
            if instr.qualified_name == "sql.bind" and len(inputs) == 7:
                total = ctx.catalog.bind(*inputs[1:4]).count()
                slices.append((outputs[0], inputs[5] * total // inputs[6]))
            return inputs, outputs

        def recording(build, cache):
            """``build`` (a memoised head hash), noting each first build
            and whether the head it hashes should have been void."""
            def recorded(bat):
                if getattr(bat, cache) is None:
                    builds.append(bat)
                    _bat, name, inputs = producer[id(bat)]
                    by_value = name == "bat.reverse" or (
                        name in ("algebra.leftjoin", "algebra.join")
                        and any(side.head is not None for side in inputs))
                    if _dense(bat.head) and not by_value:
                        offenders.append((name, len(bat)))
                return build(bat)
            return recorded

        monkeypatch.setattr(interpreter, "execute_instruction",
                            recording_execute)
        # a join probes the head index, and the multi-map on duplicates
        monkeypatch.setattr(BAT, "_head_index", recording(
            BAT._head_index, "_index_cache"))
        monkeypatch.setattr(BAT, "_head_multimap", recording(
            BAT._head_multimap, "_multimap_cache"))
        try:
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
        finally:
            database.close()
        assert len(slices) >= 4 * len(TIMED_TPCH)
        for part, first in slices:
            assert part.head is None and part.hseqbase == first
        assert builds, "the value-keyed joins still hash"
        assert offenders == []


class TestWarmSlices:
    """A count, not a clock (CI runs this class by name, "A warm round
    cuts no partition"): a column owns its mitosis partitions
    (``BAT.partitions``), so a warm round of the 11 timed TPC-H queries
    cuts only what the plans' ``algebra.slice`` instructions ask for --
    16 here; slices cut per ``sql.bind`` read 102."""

    def test_a_warm_round_cuts_no_partition(self, monkeypatch):
        from repro.tpch import QUERIES, populate, query_sql

        catalog = Catalog()
        populate(catalog, scale_factor=0.05, seed=7)
        database = Database(catalog=catalog, workers=2,
                            mitosis_threshold=50)
        names = [name for name in QUERIES if name != "q14"]
        cut, calls = BAT.slice_, [0]

        def counted(bat, first, last):
            calls[0] += 1
            return cut(bat, first, last)

        monkeypatch.setattr(BAT, "slice_", counted)
        try:
            for _ in range(2):
                calls[0] = 0
                plans = [database.execute(query_sql(name)).program
                         for name in names]
        finally:
            database.close()
        asked = sum(instr.qualified_name == "algebra.slice"
                    for plan in plans for instr in plan.instructions)
        assert calls[0] == asked, "a warm round cut a partition"


def _column_derived(catalog) -> dict:
    """``{id: BAT}`` of every base column, its partitions and the
    memoized reverses of both: what lives as long as the column."""
    found = {}
    for table in catalog.tables().values():
        for column in table.columns.values():
            bats = [column.bat]
            if column.bat._parts_cache is not None:
                bats += column.bat._parts_cache[1]
            bats += [bat._reverse_cache[1] for bat in bats
                     if bat._reverse_cache is not None]
            found.update((id(bat), bat) for bat in bats)
    return found


class TestWarmRound:
    """Counts, not clocks (CI runs this class by name, "A warm round
    hashes no base column"), over the second round of the timed TPC-H
    queries on the ``tpch_scan`` catalog (scale 2.0, data seed 3,
    ``workers=2``).

    That round builds 41 head indexes over 29 113 rows and 4 multi-maps
    over 1 244 rows: 30 357 rows hashed, all of them intermediates.
    Before a join hashed the smaller side and a column's reverse was
    memoized, it was 52 indexes over 87 953 rows and 9 multi-maps over
    36 201 rows (124 154), and every run re-hashed the reverse of
    ``l_orderkey``.  The bound is the count + 10 %.
    """

    ROWS_HASHED_BOUND = 33_392

    def test_a_warm_round_hashes_only_intermediates(self, monkeypatch):
        from repro.tpch import populate, query_sql

        catalog = Catalog()
        populate(catalog, scale_factor=2.0, seed=3)
        database = Database(catalog=catalog, workers=2)
        builds, fetches = [], []

        def recording(build, cache):
            def recorded(bat):
                if getattr(bat, cache) is None:
                    builds.append(bat)
                return build(bat)
            return recorded

        def fetching(kernel):
            def fetched(bat, other):
                out = kernel(bat, other)
                fetches.append((bat, other, out))
                return out
            return fetched

        monkeypatch.setattr(BAT, "_head_index", recording(
            BAT._head_index, "_index_cache"))
        monkeypatch.setattr(BAT, "_head_multimap", recording(
            BAT._head_multimap, "_multimap_cache"))
        monkeypatch.setattr(BAT, "leftjoin", fetching(BAT.leftjoin))
        monkeypatch.setattr(BAT, "leftfetchjoin",
                            fetching(BAT.leftfetchjoin))
        try:
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
            del builds[:], fetches[:]
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
        finally:
            database.close()
        derived = _column_derived(catalog)
        assert sum(map(len, builds)) <= self.ROWS_HASHED_BOUND
        assert [len(bat) for bat in builds if id(bat) in derived] == []
        # a fetch of a column through its table's tid allocates nothing
        tids = {id(table.tid()) for table in catalog.tables().values()}
        through_tid = [(other, out) for bat, other, out in fetches
                       if id(bat) in tids and id(other) in derived
                       and other.head is None and other.hseqbase == 0]
        assert len(through_tid) >= 10
        assert all(out is other for other, out in through_tid)


class TestWarmHeads:
    """A count, not a clock, over the warm round of
    :class:`TestWarmRound`: every kernel that puts a new tail under its
    input's head (``BAT.same_heads``: gathering fetches, calculations,
    mirrors, casts, ``batmtime``/``batstr`` maps) shares that head
    list, because no BAT changes a head in place (``append`` and
    ``extend`` rebind a materialised head).  The round calls
    ``same_heads`` 131 times over a materialised head of 220 598 entries
    in all and copies none of them.  Each call copied its head before:
    220 481 entries in 130 calls, and the ``batcalc``, ``batmtime`` and
    ``batstr`` kernels that set their heads by hand copied theirs too.
    The bound on the calls is the count - 10 %."""

    CALLS_AT_LEAST = 118

    def test_a_warm_round_copies_no_head_list(self, monkeypatch):
        from repro.tpch import populate, query_sql

        catalog = Catalog()
        populate(catalog, scale_factor=2.0, seed=3)
        database = Database(catalog=catalog, workers=2)
        same_heads = BAT.same_heads
        calls, copied = [0], []

        def counted(bat, tail, tail_type):
            out = same_heads(bat, tail, tail_type)
            if bat.head is not None:
                calls[0] += 1
                if out.head is not bat.head:
                    copied.append(len(bat.head))
            return out

        monkeypatch.setattr(BAT, "same_heads", counted)
        try:
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
            calls[0] = 0
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
        finally:
            database.close()
        assert copied == [], f"{sum(copied)} head entries copied"
        assert calls[0] >= self.CALLS_AT_LEAST

    def test_a_shared_head_outlives_an_append(self):
        column = BAT(INT, [5, 6, 7], head=[10, 11, 12])
        fetched = column.same_heads([50, 60, 70], INT)
        assert fetched.head is column.head
        column.append(8)
        column.extend([9])
        assert column.head == [10, 11, 12, 13, 14]
        assert fetched.head == [10, 11, 12]
        assert list(fetched.items()) == [(10, 50), (11, 60), (12, 70)]


class TestWarmGrouping:
    """Counts, not clocks (CI runs this class by name, "A warm round
    casts no value it computed"), over the warm round of
    :class:`TestWarmRound`.

    ``group``/``refine_group`` build their outputs from ints they just
    computed, so they cast none of them, and ``aggr.count``, ``aggr.avg``
    and the nil-free ``aggr.sum`` over a grouping read the histogram its
    groups BAT keeps instead of counting the group ids again.  The round
    calls ``cast_value`` 160 times.  It was 15 367 when grouping cast
    its outputs element by element (11 400 calls) and ``and``/``or``
    cast the bools of two bit columns (3 807).  The bound is the count
    + 10 %.
    """

    CASTS_BOUND = 176

    def test_a_warm_round_casts_no_value_it_computed(self, monkeypatch):
        import sys

        import repro.storage.bat as bat_module
        from repro.storage import types
        from repro.tpch import populate, query_sql

        catalog = Catalog()
        populate(catalog, scale_factor=2.0, seed=3)
        database = Database(catalog=catalog, workers=2)
        cast_value, grouped_aggregate = types.cast_value, BAT.grouped_aggregate
        casts = {"all": 0, "grouping": 0}
        inside = [0]   # group/refine_group calls under way
        made = {}      # id -> every groups BAT they returned (kept alive)
        recounts = [0]  # Counter/set calls in the bat module
        rebuilt = []   # (func, recounts) per aggregate over such a BAT

        def counted_cast(value, mal_type):
            casts["all"] += 1
            casts["grouping"] += inside[0] > 0
            return cast_value(value, mal_type)

        def grouping(kernel):
            def grouped(bat, *args):
                inside[0] += 1
                try:
                    out = kernel(bat, *args)
                finally:
                    inside[0] -= 1
                made[id(out[0])] = out[0]
                return out
            return grouped

        def aggregating(bat, groups, ngroups, func):
            before = recounts[0]
            out = grouped_aggregate(bat, groups, ngroups, func)
            if made.get(id(groups)) is groups:
                rebuilt.append((func, recounts[0] - before))
            return out

        def recounting(kind):
            def counted(*args):
                recounts[0] += 1
                return kind(*args)
            return counted

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "cast_value", None) is cast_value):
                monkeypatch.setattr(module, "cast_value", counted_cast)
        monkeypatch.setattr(BAT, "group", grouping(BAT.group))
        monkeypatch.setattr(BAT, "refine_group", grouping(BAT.refine_group))
        monkeypatch.setattr(BAT, "grouped_aggregate", aggregating)
        monkeypatch.setattr(bat_module, "Counter",
                            recounting(bat_module.Counter))
        monkeypatch.setattr(bat_module, "set", recounting(set),
                            raising=False)
        try:
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
            casts.update(all=0, grouping=0)
            del rebuilt[:]
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
        finally:
            database.close()
        assert casts["grouping"] == 0, "grouping cast a value it computed"
        counting = [case for case in rebuilt
                    if case[0] in ("count", "sum", "avg")]
        assert len(counting) >= 8
        assert [case for case in counting if case[1]] == [], (
            "an aggregate over a grouping rebuilt its histogram")
        assert casts["all"] <= self.CASTS_BOUND


class TestWarmOidReads:
    """Counts, not clocks (CI runs this class by name, "A warm round
    reads every partition by oid"), over the warm round of
    :class:`TestWarmRound`.

    Every kernel that asks a partition beyond the first for its
    column's oids (:meth:`BAT._column_tail`) finds it current: 36 oid
    reads over the second partitions of 13 of lineitem's 14 partitioned
    columns (``l_suppkey``'s is only ever a join's left side, which
    counts no offset), and 0 offset reads.  Before partitions read by
    oid, every one of those kernels added the partition's ``hseqbase``
    to, or took it from, each row it touched.
    """

    ORACLE_READS = 36
    COLUMNS_READ = 13

    def test_a_warm_round_reads_every_partition_by_oid(self):
        from repro.tpch import populate, query_sql

        catalog = Catalog()
        populate(catalog, scale_factor=2.0, seed=3)
        database = Database(catalog=catalog, workers=2)
        try:
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
            parts = [part for table in catalog.tables().values()
                     for column in table.columns.values()
                     if column.bat._parts_cache is not None
                     for part in column.bat._parts_cache[1][1:]]
            for part in parts:
                part._oid_reads = part._offset_reads = 0
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
        finally:
            database.close()
        assert [part._offset_reads for part in parts] == [0] * len(parts)
        assert sum(part._oid_reads for part in parts) >= self.ORACLE_READS
        assert sum(part._oid_reads > 0 for part in parts) \
            >= self.COLUMNS_READ


class TestWarmNilTests:
    """A count, not a clock (CI runs this class by name, "A warm round
    tests no intermediate for nil"), over the warm round of
    :class:`TestWarmRound`.

    Every nil test goes through :meth:`BAT.has_nil`, which scans only a
    BAT whose nil-free mark is not known.  The round scans 0 elements:
    the base columns are marked as they load, and each kernel marks
    what it proves nil-free.  Before the mark every ``calc``,
    ``calc_const``, ``aggregate``, ``grouped_aggregate`` and ``sort``
    tested its inputs afresh: 297 103 elements in 112 tests (q1 alone
    154 084 in 21).
    """

    def test_a_warm_round_tests_no_intermediate_for_nil(self, monkeypatch):
        from repro.tpch import populate, query_sql

        catalog = Catalog()
        populate(catalog, scale_factor=2.0, seed=3)
        database = Database(catalog=catalog, workers=2)
        has_nil, read, tests = BAT.has_nil, [0], [0]

        def counted(bat):
            tests[0] += 1
            if bat._nil_mark() is None:
                read[0] += len(bat.tail)
            return has_nil(bat)

        monkeypatch.setattr(BAT, "has_nil", counted)
        try:
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
            read[0] = tests[0] = 0
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
        finally:
            database.close()
        assert tests[0] >= 100, "the kernels no longer ask has_nil"
        assert read[0] == 0, f"a warm round read {read[0]} elements for nil"

    def test_an_avg_divides_the_sums_of_its_sum(self, monkeypatch):
        values = BAT(DBL, [1.5, 2.0, nil, 4.25, 0.5])
        groups, extents, _ = BAT(STR, list("abaca")).group()
        fresh = values.copy().grouped_aggregate(groups, len(extents), "avg")
        total = values.grouped_aggregate(groups, len(extents), "sum")
        monkeypatch.setattr(BAT, "has_nil", lambda bat: pytest.fail(
            "the avg summed its rows again"))
        again = values.grouped_aggregate(groups, len(extents), "avg")
        assert again.tail == fresh.tail == [1.0, 2.0, 4.25]
        assert total.tail == [2.0, 2.0, 4.25]
        # another grouping, or a changed column, sums afresh
        monkeypatch.undo()
        other, extents2, _ = BAT(INT, [1, 1, 1, 2, 2]).group()
        assert values.grouped_aggregate(other, len(extents2), "avg").tail \
            == [1.75, 2.375]
        values.append(8.0)
        groups, extents, _ = BAT(STR, list("abacab")).group()
        assert values.grouped_aggregate(groups, len(extents), "avg").tail \
            == [1.0, 5.0, 4.25]


class TestWarmKeptHeads:
    """A count, not a clock, over the warm round of the timed TPC-H
    queries at scale 0.5, ``workers=2``: a ``semijoin``,
    ``thetaselect`` or unique-key ``leftjoin`` that keeps every row of
    a materialised input shares its head list instead of rebuilding an
    equal one.  The round rebuilt 920 head entries so before (460 in
    ``thetaselect``, 460 in ``semijoin``); it rebuilds none."""

    def test_a_warm_round_rebuilds_no_head_it_keeps(self, monkeypatch):
        from repro.tpch import populate, query_sql

        catalog = Catalog()
        populate(catalog, scale_factor=0.5, seed=3)
        database = Database(catalog=catalog, workers=2)
        rebuilt, kept = [], [0]

        def keeping(kernel):
            def kept_rows(bat, *args):
                out = kernel(bat, *args)
                if bat.head and out.head == bat.head:
                    if out.head is bat.head:
                        kept[0] += 1
                    else:
                        rebuilt.append(len(bat.head))
                return out
            return kept_rows

        for name in ("semijoin", "thetaselect", "leftjoin"):
            monkeypatch.setattr(BAT, name, keeping(getattr(BAT, name)))
        try:
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
            del rebuilt[:]
            kept[0] = 0
            for name in TIMED_TPCH:
                database.execute(query_sql(name))
        finally:
            database.close()
        assert rebuilt == [], f"{sum(rebuilt)} head entries rebuilt"
        assert kept[0] >= 2

    def test_a_kept_head_is_shared(self):
        bat = BAT(INT, [4, 5, 6], head=[10, 11, 12])
        assert bat.thetaselect(9, "<").head is bat.head
        assert bat.select(4, 6).head is bat.head
        assert bat.semijoin(BAT(INT, [0] * 5, hseqbase=9)).head is bat.head
        assert bat.semijoin(materialised(bat)).head is bat.head
        keys = BAT(OID, [7, 8], head=[3, 4])
        assert keys.leftjoin(BAT(INT, [1, 2], head=[8, 7])).head \
            is keys.head
        assert keys.leftjoin(BAT(INT, [1], head=[8])).head == [4]
        assert bat.thetaselect(5, "<").head == [10]


# ---------------------------------------------------------------------------
# the plan cache
# ---------------------------------------------------------------------------


def _fresh_db(**kwargs) -> Database:
    db = Database(Catalog(), workers=2, **kwargs)
    db.execute("create table pets (id int, name varchar, grams int)")
    db.execute("insert into pets values (1, 'ada', 4200), "
               "(2, 'bit', 3100), (3, 'nil', 500)")
    return db


class TestPlanCache:
    def test_warm_hit_returns_same_program(self):
        db = _fresh_db()
        q = "select name from pets where grams > 1000"
        cold = db.compile(q)
        warm = db.compile(q)
        assert warm is cold
        stats = db.plan_cache.stats()
        assert stats["hits"] == 1 and stats["size"] == 1

    def test_whitespace_reformatting_shares_entry(self):
        db = _fresh_db()
        db.compile("select name from pets where grams > 1000")
        db.compile("  SELECT name\n  FROM pets\n  WHERE grams > 1000 ;")
        # keywords and unquoted names are case-insensitive: one entry
        assert db.plan_cache.stats()["size"] == 1
        db.compile("select   name from\tpets where grams > 1000")
        assert db.plan_cache.stats()["hits"] == 2

    def test_string_literal_whitespace_is_significant(self):
        assert normalize_sql("select 'a  b'  from t") == "select 'a  b' from t"
        assert (normalize_sql("select 'a  b' from t")
                != normalize_sql("select 'a b' from t"))

    def test_warm_execute_results_identical(self):
        db = _fresh_db()
        q = "select name, grams from pets where grams >= 500 order by grams"
        cold = db.execute(q)
        warm = db.execute(q)
        assert warm.rows == cold.rows
        assert db.plan_cache.stats()["hits"] >= 1

    def test_ddl_invalidates(self):
        db = _fresh_db()
        q = "select name from pets"
        db.execute(q)
        db.execute("create table other_t (x int)")
        assert db.plan_cache.stats()["size"] == 0
        db.execute(q)  # recompiles against the new catalog state
        assert db.plan_cache.stats()["size"] == 1
        db.execute("drop table other_t")
        assert db.plan_cache.stats()["size"] == 0

    def test_dml_invalidates_the_plans_that_read_the_table(self):
        db = _fresh_db()
        q = "select count(*) from pets"
        assert db.execute(q).rows == [(3,)]
        db.execute("insert into pets values (4, 'rex', 9000)")
        # nothing is cleared: the plan is refused when it is next asked for
        assert db.plan_cache.stats()["size"] == 1
        assert db.execute(q).rows == [(4,)]
        stats = db.plan_cache.stats()
        assert (stats["misses"], stats["evictions"], stats["size"]) \
            == (2, 1, 1)

    def test_out_of_band_load_is_seen(self):
        db = _fresh_db()
        q = "select count(*) from pets"
        db.execute(q)
        # bypass Database entirely: the plan assumed three rows
        db.catalog.table("pets").insert([5, "ivy", 700])
        assert db.execute(q).rows == [(4,)]
        assert db.plan_cache.stats()["misses"] >= 2

    def test_cross_session_overrides_get_distinct_plans(self):
        db = _fresh_db()
        q = "select name from pets where grams > 1000"
        a = db.execute(q, pipeline_name="sequential_pipe")
        b = db.execute(q, workers=1)
        c = db.execute(q)
        assert db.plan_cache.stats()["size"] == 3
        assert sorted(a.rows) == sorted(b.rows) == sorted(c.rows)
        # each session's second run hits its own entry
        db.execute(q, pipeline_name="sequential_pipe")
        db.execute(q, workers=1)
        assert db.plan_cache.stats()["hits"] == 2

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put(("a",), "plan-a")
        cache.put(("b",), "plan-b")
        assert cache.get(("a",)) == "plan-a"  # refresh a
        cache.put(("c",), "plan-c")  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "plan-a"
        assert cache.stats()["evictions"] == 1

    def test_capacity_zero_disables(self):
        db = _fresh_db(plan_cache_size=0)
        q = "select name from pets"
        first = db.execute(q)
        second = db.execute(q)
        assert second.rows == first.rows
        stats = db.plan_cache.stats()
        assert stats == {"size": 0, "capacity": 0, "hits": 0,
                         "misses": 0, "evictions": 0}

    def test_explain_shares_cache_with_execute(self):
        db = _fresh_db()
        q = "select name from pets where grams > 1000"
        db.execute(q)
        plan_text = db.execute("explain " + q)
        assert db.plan_cache.stats()["hits"] >= 1
        assert any("algebra" in row[0] for row in plan_text.rows)

    def test_trace_shape_unchanged_on_warm_hit(self):
        from repro.profiler import Profiler

        db = _fresh_db()
        q = "select sum(grams) from pets where grams > 400"

        def trace():
            profiler = Profiler()
            db.execute(q, listener=profiler)
            return [(e.event, e.clock_usec, e.status, e.pc, e.thread,
                     e.usec, e.rss_bytes, e.stmt)
                    for e in profiler.events]

        cold = trace()
        warm = trace()
        assert warm == cold
        assert db.plan_cache.stats()["hits"] >= 1
