"""The Binary Association Table (BAT), MonetDB's storage primitive.

A BAT is a two-column table of (head, tail) associations.  The head column
holds object identifiers (oids); the tail holds values of one atom type.
MonetDB stores relational columns as BATs with a *void* (virtual oid) head:
a dense sequence ``seqbase, seqbase+1, ...`` that occupies no memory.

This module implements the BAT operations the MAL ``algebra``/``bat``
modules need: selections, joins, projections, ordering, grouping and
aggregation — with the old (pre-2012) MonetDB semantics the paper's plans
use, e.g. ``algebra.select`` returns a BAT of qualifying (oid, value) pairs
and ``algebra.leftjoin(a, b)`` matches ``a``'s tail against ``b``'s head.

The kernels are written as *bulk* operations: each one makes a small,
constant number of passes over its input using fused list comprehensions,
``map`` over :mod:`operator` functions, and C-level slicing — rather than
dispatching a Python lambda per element.

**The voidness rule.**  A kernel returns ``head is None`` exactly when its
output heads are ``hseqbase … hseqbase+n-1`` by construction — known from
the voidness of its inputs and what the kernel does, never by inspecting
the data.  So a slice of a void column is void (``hseqbase + first``),
a join or elementwise kernel that keeps every row of a void ``self``
keeps its head, ``mat.pack`` of adjacent void ranges is one void range,
and a selection, sort or hash join materialises.  Void heads cost no
memory and make every later lookup positional; a materialised dense
head forces the next join to hash a column that is its own index.
``docs/performance.md`` §1 has the rule kernel by kernel.

**The oid-space rule.**  A void slice that is one of the current
:meth:`BAT.partitions` of a void column from 0 is a window on that
column: its position ``i`` is oid ``hseqbase + i``, and the value there
is the column's ``tail[hseqbase + i]``.  So a selection on it (scan or
order index), a gather from it and its ``semijoin``/``kdifference``
against a hashed head count in oids and read the column
(:meth:`BAT._column_tail`): no row pays an offset.  A slice its column
no longer owns — cut before the column was appended to or patched, or
changed itself — reads its own tail by offset, as every other void
BAT above 0 does.  A slice keeps its own copy of its rows, so a column
cut short under a read (a durable INSERT rolled back in place, which
does not wait for readers) costs that read an IndexError it catches and
answers from the copy; only a read that outlives the rollback *and* the
next INSERT can see that INSERT's rows where the rolled-back ones were,
rows no statement has yet committed either way.  ``docs/performance.md``
§23 has what the rule saves.

**The nil-free rule.**  A BAT carries MonetDB's ``tnonil`` as a mark
(:meth:`BAT.has_nil`'s memo): known from the inputs and what the kernel
does, never by scanning a result only to mark it.  So a slice, gather
or fetch from a nil-free tail is nil-free, ``mat.pack`` of nil-free
parts is nil-free, ``+ - *``, comparisons and ``and``/``or`` over
nil-free operands and non-nil constants are nil-free (``/`` and ``%``
are not: a zero divisor answers nil), and every selection result, group
id, extent and histogram is nil-free.  An empty tail is nil-free, and
:meth:`BAT.append`/:meth:`BAT.extend` keep the mark by testing only the
values appended, so a column loaded through them is never scanned for
nil.  Any other BAT is tested once, by the first kernel that needs the
answer.  ``docs/performance.md`` §27 has what the rule saves.

Ten memoized structures back the hot paths, all invalidated by
:meth:`BAT.append`/:meth:`BAT.extend` (and double-guarded by the BAT's
current length).  Each is built only when a kernel cannot avoid it:

* a hash index on materialised heads (``{head oid: position}``), built by
  the first ``leftfetchjoin``/``semijoin``/``kdifference`` *against* a
  BAT with a materialised head, and by the first ``leftjoin`` — or the
  second, when the first came from a side at most
  1/``JOIN_HASH_SELF_RATIO`` its size, which hashed its own tail instead;
* a multi-map variant (``{head oid: [positions]}``), built with the
  index when it shows a duplicated head — a ``leftjoin`` must produce
  every match of one;
* the :meth:`BAT.reverse`, so a column's reverse, and the hashes joins
  build on its head, live as long as the column;
* a sort-order index on the tail, built by the *second* range or point
  selection on a BAT of at least ``ORDER_INDEX_MIN_ROWS`` rows — one
  select is no evidence of reuse, and most intermediates die with their
  query — or after ``ORDER_INDEX_EAGER_AFTER`` selects on a smaller one;
* the :meth:`BAT.bytes` footprint, which RSS accounting reads when a
  BAT is bound into an interpreter environment;
* the :meth:`BAT.to_ship_bytes` payload, built when a checkpoint or a
  replication bootstrap first writes the column out;
* the :meth:`BAT.partitions` a mitosis plan binds, built by the first
  partitioned ``sql.bind`` of the column.  The column owns its slices
  and each slice knows its column (:attr:`BAT.parent`), so a slice's
  own memos live as long as the column does, and ``mat.pack`` of the
  complete set is the column itself;
* the histogram of a grouping, kept by the groups BAT :meth:`BAT.group`
  and :meth:`BAT.refine_group` return: ``aggr.count``, ``aggr.avg``
  and the nil-free ``aggr.sum`` over that grouping read the sizes
  instead of counting the group ids again, when the group count they
  are given is the histogram's;
* the least and greatest value of an int tail, which a gather from a
  void BAT not based at 0 checks its oids against: a plan fetches
  several columns through one candidate list (q1 six through each
  partition's), and only the first fetch scans for them;
* the nil-free mark (:meth:`BAT.has_nil`), by the nil-free rule above:
  the one nil test of every kernel reads it, and a kernel that knows
  its result holds no nil sets it.  With it a grouped ``aggr.sum``
  leaves its sums on the values BAT, and an ``aggr.avg`` of the same
  values over the same grouping (q1 averages two of the columns it
  sums) divides them instead of summing again.

``tests/test_kernel_parity.py`` checks every kernel here against the
per-row reference implementations in :mod:`repro.storage.naive`.
"""

from __future__ import annotations

import datetime
import json
import operator
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import compress, repeat

from repro.metrics.families import (
    ADAPTIVE_INDEX_BUILDS, ADAPTIVE_INDEX_DROPS,
)
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError, TypeMismatchError
from repro.storage.types import (
    BIT, DATE, DBL, LNG, OID, MalType, cast_value, logical_and, logical_or,
    nil, type_by_name,
)

_OPS: dict = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: tail types whose values are plain Python ints, safe for positional
#: arithmetic without a per-element ``int()`` cast.
_INT_TAILS = frozenset(("int", "lng", "oid"))

#: numeric atom names for which arithmetic results already match the
#: promoted output type, letting ``_calc_out`` skip its cast pass.
_NUMERIC_TAILS = frozenset(("int", "lng", "flt", "dbl"))


# --------------------------------------------------------------------------
# fused selection kernels (module level: no closure rebuild per call)
#
# Plain fused comprehensions: on CPython 3.11's specializing interpreter
# these beat every ``map``/``itertools.compress`` formulation measured —
# comprehension bytecode is inlined and COMPARE_OP is specialized, while
# bound-method dispatch through ``map`` pays a call per element.
# ``start`` numbers the positions: 0 for a BAT's own, its hseqbase for a
# partition read in its column's oid space (``BAT._column_tail``).
# --------------------------------------------------------------------------

def _positions_eq(tail: List[Any], start: int, value: Any) -> List[int]:
    return [i for i, v in enumerate(tail, start)
            if v is not None and v == value]


def _positions_ne(tail: List[Any], start: int, value: Any) -> List[int]:
    return [i for i, v in enumerate(tail, start)
            if v is not None and v != value]


def _positions_lt(tail: List[Any], start: int, value: Any) -> List[int]:
    return [i for i, v in enumerate(tail, start)
            if v is not None and v < value]


def _positions_le(tail: List[Any], start: int, value: Any) -> List[int]:
    return [i for i, v in enumerate(tail, start)
            if v is not None and v <= value]


def _positions_gt(tail: List[Any], start: int, value: Any) -> List[int]:
    return [i for i, v in enumerate(tail, start)
            if v is not None and v > value]


def _positions_ge(tail: List[Any], start: int, value: Any) -> List[int]:
    return [i for i, v in enumerate(tail, start)
            if v is not None and v >= value]


_THETA_KERNELS: dict = {
    "==": _positions_eq,
    "!=": _positions_ne,
    "<": _positions_lt,
    "<=": _positions_le,
    ">": _positions_gt,
    ">=": _positions_ge,
}


def _positions_like(tail: List[Any], start: int,
                    match: Callable[[str], Any]) -> List[int]:
    return [i for i, v in enumerate(tail, start)
            if v is not None and match(v) is not None]


def _positions_range(tail: List[Any], start: int, low: Any, high: Any,
                     include_low: bool, include_high: bool) -> List[int]:
    """Qualifying positions for a range select, numbered from ``start``;
    nil bounds are open ends."""
    if low is None and high is None:
        return [i for i, v in enumerate(tail, start) if v is not None]
    if low is None:
        return (_positions_le if include_high else _positions_lt)(
            tail, start, high)
    if high is None:
        return (_positions_ge if include_low else _positions_gt)(
            tail, start, low)
    if include_low and include_high:
        return [i for i, v in enumerate(tail, start)
                if v is not None and low <= v <= high]
    if include_low:
        return [i for i, v in enumerate(tail, start)
                if v is not None and low <= v < high]
    if include_high:
        return [i for i, v in enumerate(tail, start)
                if v is not None and low < v <= high]
    return [i for i, v in enumerate(tail, start)
            if v is not None and low < v < high]


# The sort-order index policy.  The static half: a BAT of at least
# ORDER_INDEX_MIN_ROWS rows builds its index on the second range select
# (the first scans: a BAT selected once is a per-query intermediate, not
# a catalog column or one of its partitions), and a bisected run of k
# rows falls back to the scan kernel when k * ORDER_INDEX_SCAN_FALLBACK
# > rows.  The adaptive half: a smaller BAT, down to
# ORDER_INDEX_EAGER_MIN_ROWS, builds after ORDER_INDEX_EAGER_AFTER range
# selects, and an index answering fewer than ORDER_INDEX_HIT_FLOOR of
# its consults over a window of ORDER_INDEX_WINDOW is dropped (and stays
# off until the BAT next mutates).
ORDER_INDEX_MIN_ROWS = 512
ORDER_INDEX_SCAN_FALLBACK = 4
ORDER_INDEX_EAGER_MIN_ROWS = 128
ORDER_INDEX_EAGER_AFTER = 4
ORDER_INDEX_HIT_FLOOR = 0.1
ORDER_INDEX_WINDOW = 32

# The first leftjoin against a materialised head with no hash hashes
# self's tail instead when len(self) * JOIN_HASH_SELF_RATIO <= len(other)
# (the second builds the head's hash and keeps it).  E9's join race
# (12 000-row other, seven runs) puts hashing self at 1.0-1.2x at 1:50,
# 0.9-1.1x at 1:16 and 0.8-0.9x at 1:8 on unique heads, and at 2.4-2.7x,
# 1.8-2.1x and 1.1-1.5x on heads each four times, where hashing other
# builds a multi-map: 16 is where unique heads stop winning.  The TPC-H
# joins it takes sit at 1:20-1:26.
JOIN_HASH_SELF_RATIO = 16


class BAT:
    """An in-memory Binary Association Table.

    Args:
        tail_type: atom type of the tail column.
        values: initial tail values (cast to ``tail_type``; nil passes).
        head: explicit head oids, or None for a void head.
        hseqbase: seqbase of the void head (ignored when ``head`` given).

    The head is *void* when ``head is None``: the i-th association then has
    head oid ``hseqbase + i``.  Operations preserve voidness by the rule in
    the module docstring, exactly like MonetDB, because void heads are
    what make positional lookups (fetch joins) O(1).
    """

    __slots__ = ("tail_type", "tail", "head", "hseqbase", "parent",
                 "_bytes_cache", "_index_cache", "_multimap_cache",
                 "_order_cache", "_ship_cache", "_parts_cache",
                 "_reverse_cache", "_tdense", "_join_scans",
                 "_range_selects", "_order_hits", "_order_misses",
                 "_order_disabled", "_hist_cache", "_bounds_cache",
                 "_nil_cache", "_sums_cache", "_oid_reads", "_offset_reads",
                 # a run keeps a weak reference to each BAT it released
                 # (repro.mal.interpreter.EvalContext.rss_bytes)
                 "__weakref__")

    def __init__(
        self,
        tail_type: MalType,
        values: Optional[Iterable[Any]] = None,
        head: Optional[Sequence[int]] = None,
        hseqbase: int = 0,
    ) -> None:
        self.tail_type = tail_type
        self.tail: List[Any] = (
            [cast_value(v, tail_type) for v in values] if values is not None else []
        )
        self.head: Optional[List[int]] = list(head) if head is not None else None
        self.hseqbase = hseqbase
        #: the column this BAT is one of the :meth:`partitions` of
        self.parent: Optional[BAT] = None
        self._bytes_cache: Optional[Tuple[Any, int]] = None
        self._index_cache: Optional[Tuple[int, dict]] = None
        self._multimap_cache: Optional[Tuple[int, dict]] = None
        self._order_cache: Optional[
            Tuple[int, List[int], List[Any], int]] = None
        self._ship_cache: Optional[Tuple[int, bytes]] = None
        self._parts_cache: Optional[Tuple[int, Tuple[BAT, ...]]] = None
        self._reverse_cache: Optional[Tuple[int, BAT]] = None
        #: the group sizes of a :meth:`group`/:meth:`refine_group` result
        self._hist_cache: Optional[Tuple[int, List[int]]] = None
        #: the (min, max) of the tail, for :meth:`_gather`'s bounds check
        self._bounds_cache: Optional[Tuple[int, Any, Any]] = None
        #: MonetDB's ``tnonil``: (length, whether the tail holds a nil)
        self._nil_cache: Optional[Tuple[int, bool]] = None
        #: a grouped sum's (length, histogram, sums, non-nil counts)
        self._sums_cache: Optional[
            Tuple[int, List[int], List[Any], List[int]]] = None
        #: MonetDB's ``tdense``: set only by :meth:`dense_oids`, so it
        #: means "void head from 0, tail 0..n-1"; a mutation clears it
        self._tdense = False
        #: joins against this BAT's head answered without hashing it
        self._join_scans = 0
        #: kernels that read this partition by its column's oids, and
        #: those that found it stale and read it by offset
        self._oid_reads = 0
        self._offset_reads = 0
        # adaptive index accounting: range selects seen, order-index
        # hits/misses in the current decision window, and whether a poor
        # hit-rate has disabled the index until the next mutation
        self._range_selects = 0
        self._order_hits = 0
        self._order_misses = 0
        self._order_disabled = False
        if self.head is not None and len(self.head) != len(self.tail):
            raise StorageError(
                f"head/tail length mismatch: {len(self.head)} vs {len(self.tail)}"
            )

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------

    def count(self) -> int:
        """Number of associations (MAL ``aggr.count``)."""
        return len(self.tail)

    def __len__(self) -> int:
        return len(self.tail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "void" if self.is_void_head else "oid"
        return f"BAT[{kind},{self.tail_type.name}]#{len(self)}"

    @property
    def is_void_head(self) -> bool:
        """True when the head is a virtual dense oid sequence."""
        return self.head is None

    def head_at(self, index: int) -> int:
        """Head oid of the association at ``index``."""
        if self.head is None:
            return self.hseqbase + index
        return self.head[index]

    def heads(self) -> Sequence[int]:
        """The head oids in association order: the materialised head
        itself (read, never change it), or the void head's range, so a
        copy or a concatenation of them is one C-level pass."""
        if self.head is None:
            return range(self.hseqbase, self.hseqbase + len(self.tail))
        return self.head

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Iterate over (head oid, tail value) pairs."""
        return zip(self.heads(), self.tail)

    def append(self, value: Any) -> None:
        """Append one association with the next dense head oid.  A
        materialised head is rebound to a longer list: other BATs may
        share the one it had (:meth:`same_heads`)."""
        head = self.head
        if head is not None:
            self.head = head + [(head[-1] + 1) if head else self.hseqbase]
        value = cast_value(value, self.tail_type)
        self._grow([value], value is None)

    def extend(self, values: Iterable[Any]) -> None:
        """Append many tail values in one bulk pass (see :meth:`append`).

        One cast comprehension over the input, then C-level ``extend`` of
        the tail (and, for materialised heads, of the dense head
        continuation).  A cast error therefore rejects the whole batch
        instead of leaving a partial append behind.
        """
        caster = self.tail_type.caster
        self._extend_raw([v if v is None else caster(v) for v in values])

    def _extend_raw(self, cast_values: List[Any]) -> None:
        """Extend with values already in canonical form (no cast pass).

        Bulk loaders that cast a whole batch up front (for all-or-nothing
        semantics across several columns) use this to avoid re-casting.
        A materialised head is rebound, as by :meth:`append`.
        """
        head = self.head
        if head is not None:
            start = (head[-1] + 1) if head else self.hseqbase
            self.head = [*head, *range(start, start + len(cast_values))]
        self._grow(cast_values, None in cast_values)

    def _grow(self, values: List[Any], nil_among: bool) -> None:
        """Append ``values`` to the tail and drop the memos; the nil-free
        mark is kept, from the mark and ``nil_among``, the answer for the
        appended values alone."""
        known = self._nil_mark()
        self.tail.extend(values)
        self._invalidate_caches()
        if known is not None:
            self._nil_cache = (len(self.tail), known or nil_among)

    def truncate(self, length: int) -> None:
        """Cut back to the first ``length`` associations (a rolled-back
        INSERT's undo): idempotent, and a prefix of a nil-free tail is
        nil-free, so the mark is kept."""
        nil_free = self._nil_mark() is False
        del self.tail[length:]
        if self.head is not None:
            self.head = self.head[:length]
        self._invalidate_caches()
        if nil_free:
            self._nil_cache = (len(self.tail), False)

    def _invalidate_caches(self) -> None:
        """Drop memoized footprint/index state after a mutation.

        Callers that patch ``tail`` in place (same length, new values)
        must invoke this by hand — the length guards on the caches
        cannot see such edits.
        """
        self._bytes_cache = None
        self._index_cache = None
        self._multimap_cache = None
        self._order_cache = None
        self._ship_cache = None
        self._parts_cache = None
        self._reverse_cache = None
        self._hist_cache = None
        self._bounds_cache = None
        self._nil_cache = None
        self._sums_cache = None
        self._tdense = False
        self._join_scans = 0
        # a slice that changed is no longer a slice of its column
        self.parent = None
        # a mutation resets the adaptive accounting: the data changed,
        # so a dropped index gets a fresh chance to prove itself
        self._range_selects = 0
        self._order_hits = 0
        self._order_misses = 0
        self._order_disabled = False

    def has_nil(self) -> bool:
        """The nil test: True when the tail holds a nil.  Every kernel
        that asks calls this.  It reads the nil-free mark (the nil-free
        rule of the module docstring) and scans only a BAT whose mark is
        not known, memoizing the answer like every memo here."""
        known = self._nil_mark()
        if known is None:
            tail = self.tail
            rows = len(tail)
            known = None in tail
            self._nil_cache = (rows, known)
        return known

    def _nil_mark(self) -> Optional[bool]:
        """What the mark knows without reading the tail: False (no nil),
        True (a nil), or None (not known)."""
        tail = self.tail
        if not tail:
            return False
        cached = self._nil_cache
        if cached is not None and cached[0] == len(tail):
            return cached[1]
        return None

    def _marked(self, nil_free: bool) -> "BAT":
        """Self, marked nil-free when ``nil_free`` (a kernel's proof)."""
        if nil_free:
            self._nil_cache = (len(self.tail), False)
        return self

    def bytes(self) -> int:
        """Approximate memory footprint, for rss accounting in traces.

        Memoized: RSS accounting reads it when a BAT is bound (and for
        every bound BAT after a kernel that grows one), and the str
        branch is O(n).  The cache is invalidated by
        :meth:`append`/:meth:`extend` and guarded by the current length
        as a backstop.
        """
        tail = self.tail
        key = (len(tail), self.head is None)
        cached = self._bytes_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        head_bytes = 0 if self.head is None else 8 * len(tail)
        if self.tail_type.name == "str":
            try:
                tail_bytes = 8 * len(tail) + sum(map(len, tail))
            except TypeError:  # a nil among them: 8 bytes, no payload
                tail_bytes = sum(8 if v is None else 8 + len(v)
                                 for v in tail)
        else:
            tail_bytes = self.tail_type.width * len(tail)
        total = head_bytes + tail_bytes
        self._bytes_cache = (key, total)
        return total

    def to_ship_bytes(self) -> bytes:
        """The column's one byte form: what checkpoints store as ``.col``
        files and replication bootstrap ships.  A JSON document ``[type, hseqbase, head,
        tail]``: ``head`` null when void, nil ``null``, dates as
        ordinals.  Only this and :meth:`from_ship_bytes` know the layout.

        Memoized like :meth:`bytes`: a column no statement changed
        between two checkpoints (or bootstraps) is encoded once and the
        payload reused.  Invalidated
        by :meth:`append`/:meth:`extend` and guarded by the current
        length as a backstop.
        """
        cached = self._ship_cache
        if cached is not None and cached[0] == len(self.tail):
            return cached[1]
        tail = self.tail
        try:
            if self.tail_type is DATE:
                tail = [None if v is None else v.toordinal() for v in tail]
            payload = json.dumps(
                [self.tail_type.name, self.hseqbase, self.head, tail],
                separators=(",", ":")).encode("ascii")
        except (TypeError, ValueError, AttributeError) as exc:
            raise StorageError(
                f"{self.tail_type.name} column holds a value with no "
                f"byte form: {exc}") from None
        self._ship_cache = (len(self.tail), payload)
        return payload

    @classmethod
    def from_ship_bytes(cls, payload: bytes) -> "BAT":
        """Rebuild a BAT from :meth:`to_ship_bytes` output.

        The document's shape and every element's type are checked
        against the declared atom, so corrupted or hostile bytes fail
        with a typed :class:`StorageError` and never yield a BAT a
        kernel would choke on later.
        """
        try:
            type_name, hseqbase, head, tail = json.loads(payload)
            tail_type = type_by_name(type_name)
            atom = int if tail_type is DATE else tail_type.pytypes[0]
            atoms = set(map(type, tail)) if type(tail) is list else None
            if not (type(hseqbase) is int and hseqbase >= 0
                    and atoms is not None and atoms <= {atom, type(None)}
                    and (head is None or (
                        type(head) is list and len(head) == len(tail)
                        and set(map(type, head)) <= {int}))):
                raise ValueError(f"not a {type_name} column document")
            if tail_type is DATE:
                fromordinal = datetime.date.fromordinal
                tail = [None if v is None else fromordinal(v) for v in tail]
        except Exception as exc:
            raise StorageError(
                f"undecodable ship payload: {exc}") from None
        out = cls(tail_type, hseqbase=hseqbase)
        out.tail = tail
        out.head = head
        # the type check saw every element: a nil is a NoneType among them
        out._nil_cache = (len(tail), type(None) in atoms)
        return out

    @classmethod
    def dense_oids(cls, rows: int) -> "BAT":
        """The (void, oid) BAT ``0..rows-1`` under a void head from 0 —
        ``sql.tid``'s candidate list of every row — carrying the
        density mark that lets a fetch through it return the column."""
        out = cls(OID)
        out.tail = list(range(rows))
        out._tdense = True
        return out._marked(True)

    def copy(self) -> "BAT":
        """Deep-enough copy (tails hold immutable atoms)."""
        out = BAT(self.tail_type, hseqbase=self.hseqbase)
        out.tail = list(self.tail)
        out.head = None if self.head is None else list(self.head)
        out._nil_cache = self._nil_cache
        return out

    def _like(self, heads: Optional[List[int]], tail: List[Any],
              tail_type: Optional[MalType] = None, hseqbase: int = 0,
              nil_free: bool = False) -> "BAT":
        out = BAT(tail_type or self.tail_type, hseqbase=hseqbase)
        out.tail = tail
        out.head = heads
        return out._marked(nil_free)

    def same_heads(self, tail: List[Any], tail_type: MalType) -> "BAT":
        """A new tail under self's head column: void stays void, and a
        materialised head is shared, not copied — no BAT changes a head
        list in place (:meth:`append` and :meth:`extend` rebind it)."""
        return self._like(self.head, tail, tail_type, self.hseqbase)

    def _take(self, positions: List[int],
              column: Optional[List[Any]] = None, *,
              ascending: bool = False, selected: bool = False) -> "BAT":
        """Gather the associations at ``positions`` (order preserved).

        With ``column`` (:meth:`_column_tail`), ``positions`` are oids
        of the column: they are the heads, and index its tail -- unless
        the column was cut short under the read (an INSERT rolled back
        in place), when they index self's own tail, which still holds
        every row it was cut with.  ``ascending`` positions that are
        all of self's rows are its own, so a materialised head is
        shared.  The result is nil-free when self is, or when
        the positions were ``selected`` (a nil never qualifies).
        """
        tail = self.tail
        nil_free = selected or self._nil_mark() is False
        if column is not None:
            try:
                return self._like(positions, [column[o] for o in positions],
                                  nil_free=nil_free)
            except IndexError:
                base = self.hseqbase
                return self._like(positions,
                                  [tail[o - base] for o in positions],
                                  nil_free=nil_free)
        if self.head is None:
            base = self.hseqbase
            heads = [base + i for i in positions] if base else positions
        elif ascending and len(positions) == len(tail):
            heads = self.head
        else:
            shead = self.head
            heads = [shead[i] for i in positions]
        return self._like(heads, [tail[i] for i in positions],
                          nil_free=nil_free)

    def _column_tail(self) -> Optional[List[Any]]:
        """The tail of the void column from 0 that self is one of the
        current :meth:`partitions` of, or None: the oid-space rule of
        the module docstring.  Every ask counts, on the slice, as an oid
        read or (a stale slice) an offset read."""
        parent = self.parent
        if parent is None or parent.head is not None or parent.hseqbase:
            return None
        cached = parent._parts_cache
        if (cached is not None and cached[0] == len(parent.tail)
                and self in cached[1]):
            self._oid_reads += 1
            return parent.tail
        self._offset_reads += 1
        return None

    # ------------------------------------------------------------------
    # memoized head indexes
    # ------------------------------------------------------------------

    def _head_index(self) -> dict:
        """Memoized ``{head oid: position}`` over a materialised head.

        Duplicate heads keep the *last* position, matching the index
        ``leftfetchjoin`` historically built per call.  ``semijoin`` and
        ``kdifference`` use only the key set; ``leftjoin`` probes it
        directly when it has as many keys as the head has rows — every
        key unique, so each has exactly one match.
        """
        head = self.head
        cached = self._index_cache
        if cached is not None and cached[0] == len(head):
            return cached[1]
        index = dict(zip(head, range(len(head))))
        self._index_cache = (len(head), index)
        return index

    def _head_multimap(self) -> dict:
        """Memoized ``{head oid: [positions]}`` over a materialised head
        with duplicates, in head order — ``leftjoin`` emits every match.
        One list per distinct key, not per row."""
        head = self.head
        cached = self._multimap_cache
        if cached is not None and cached[0] == len(head):
            return cached[1]
        index: dict = {}
        for pos, hoid in enumerate(head):
            if hoid in index:
                index[hoid].append(pos)
            else:
                index[hoid] = [pos]
        self._multimap_cache = (len(head), index)
        return index

    def _tail_order(self) -> Optional[
            Tuple[List[int], List[Any], Optional[List[Any]]]]:
        """Memoized sort-order index: (positions of non-nil tails sorted
        by value, the values in that order, :meth:`_column_tail`).  On
        a current partition the positions are the column's oids.

        Built on the second range selection against a BAT of at least
        ``ORDER_INDEX_MIN_ROWS`` rows (the first is no evidence of reuse,
        and an index costs more than the scan it replaces) — or
        *eagerly* on smaller BATs (down to ``ORDER_INDEX_EAGER_MIN_ROWS``)
        once the observed access mix shows ``ORDER_INDEX_EAGER_AFTER``
        range selects.  BATs whose tails refuse ordered comparison, and
        BATs whose index was dropped for a poor hit-rate, answer by
        scanning.
        Invalidated like every memoized structure by append/extend.
        """
        if self._order_disabled:
            return None
        rows = len(self.tail)
        if rows < ORDER_INDEX_MIN_ROWS:
            if rows < ORDER_INDEX_EAGER_MIN_ROWS:
                return None
            needed, trigger = ORDER_INDEX_EAGER_AFTER, "eager"
        else:
            needed, trigger = 2, "threshold"
        cached = self._order_cache
        if cached is None and self._range_selects < needed:
            return None
        column = self._column_tail()
        origin = 0 if column is None else self.hseqbase
        if cached is not None and cached[0] == rows and cached[3] == origin:
            return cached[1], cached[2], column
        tail = self.tail
        positions = ([i for i, v in enumerate(tail, origin) if v is not None]
                     if self.has_nil() else list(range(origin, origin + rows)))
        source = tail if column is None else column
        try:
            positions.sort(key=source.__getitem__)
            values = [source[i] for i in positions]
        except (TypeError, IndexError):
            # unordered values, or a column cut short under the read
            return None
        self._order_cache = (rows, positions, values, origin)
        ADAPTIVE_INDEX_BUILDS.labels(trigger=trigger).inc()
        return positions, values, column

    def _order_outcome(self, hit: bool) -> None:
        """Fold one index consult into the hit-rate window; drop the
        index when a full window stays below ``ORDER_INDEX_HIT_FLOOR``."""
        if hit:
            self._order_hits += 1
        else:
            self._order_misses += 1
        decided = self._order_hits + self._order_misses
        if decided < ORDER_INDEX_WINDOW:
            return
        if self._order_hits < ORDER_INDEX_HIT_FLOOR * decided:
            self._order_cache = None
            self._order_disabled = True
            ADAPTIVE_INDEX_DROPS.inc()
        self._order_hits = 0
        self._order_misses = 0

    def _select_by_order(self, low: Any, high: Any, include_low: bool,
                         include_high: bool) -> Optional["BAT"]:
        """Answer a range select by bisecting the sort-order index.

        The qualifying rows form one contiguous run of the index; slicing
        it and re-sorting the (always int) positions reproduces the scan
        kernel's output exactly.  Returns None when no index applies.
        """
        self._range_selects += 1
        index = self._tail_order()
        if index is None:
            return None
        order, values, column = index
        if low is None:
            first = 0
        elif include_low:
            first = bisect_left(values, low)
        else:
            first = bisect_right(values, low)
        if high is None:
            last = len(values)
        elif include_high:
            last = bisect_right(values, high)
        else:
            last = bisect_left(values, high)
        if last <= first:
            self._order_outcome(hit=True)
            return self._take([], column, selected=True)
        if (last - first) * ORDER_INDEX_SCAN_FALLBACK > len(self.tail):
            # wide runs: re-sorting k positions costs more than one scan
            self._order_outcome(hit=False)
            return None
        self._order_outcome(hit=True)
        return self._take(sorted(order[first:last]), column,
                          ascending=True, selected=True)

    # ------------------------------------------------------------------
    # selections
    # ------------------------------------------------------------------

    def select(self, low: Any, high: Any = "__unset__",
               include_low: bool = True, include_high: bool = True) -> "BAT":
        """Range/point selection (MAL ``algebra.select``).

        With one argument, selects associations whose tail equals ``low``.
        With two, selects tails in the (by default closed) interval
        ``[low, high]``; a nil bound means unbounded on that side.  nil
        tails never qualify.  Returns a BAT of qualifying (head oid, value)
        pairs with a materialised head.
        """
        if high == "__unset__":
            indexed = self._select_by_order(low, low, True, True)
            if indexed is not None:
                return indexed
            return self._scan(_positions_eq, low)
        indexed = self._select_by_order(low, high, include_low, include_high)
        if indexed is not None:
            return indexed
        return self._scan(_positions_range, low, high, include_low,
                          include_high)

    def thetaselect(self, value: Any, op: str) -> "BAT":
        """Selection with a comparison operator (MAL ``algebra.thetaselect``)."""
        try:
            kernel = _THETA_KERNELS[op]
        except KeyError:
            raise StorageError(f"unknown theta operator {op!r}") from None
        if op != "!=":  # every op but != is a half-open/point range
            bounds = {"==": (value, value, True, True),
                      "<": (None, value, True, False),
                      "<=": (None, value, True, True),
                      ">": (value, None, False, True),
                      ">=": (value, None, True, True)}[op]
            indexed = self._select_by_order(*bounds)
            if indexed is not None:
                return indexed
        return self._scan(kernel, value)

    def likeselect(self, pattern: str) -> "BAT":
        """SQL LIKE selection over string tails (``%`` and ``_`` wildcards)."""
        if self.tail_type.name != "str":
            raise TypeMismatchError("likeselect requires a str tail")
        match = re.compile(
            "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$",
            re.DOTALL,
        ).match
        return self._scan(_positions_like, match)

    def _scan(self, kernel: Callable[..., List[int]], *args: Any) -> "BAT":
        """The associations a position kernel selects: on a current
        partition, counted from its oids and read from its column."""
        column = self._column_tail()
        start = 0 if column is None else self.hseqbase
        return self._take(kernel(self.tail, start, *args), column,
                          ascending=True, selected=True)

    # ------------------------------------------------------------------
    # joins and projections
    # ------------------------------------------------------------------

    def leftjoin(self, other: "BAT") -> "BAT":
        """``algebra.leftjoin``: match self's tail against other's head.

        Produces (self.head, other.tail) for every matching pair, keeping
        self's order.  When ``other`` has a void head this is a positional
        fetch — and when self's tail is an int-typed, nil-free column whose
        min/max land inside ``other`` (one C-level prescan), the whole join
        collapses to a single gather comprehension.  A positional fetch
        that drops no row keeps self's head, so a void self gives a void
        result, and one through a complete tid (:meth:`dense_oids`) is
        ``other`` itself.  Otherwise a hash join runs against other's
        memoized head index — or, when that shows duplicate heads, its
        multi-map — and the head is materialised; the first join against
        a head with no hash, from a side at most 1/``JOIN_HASH_SELF_RATIO``
        its size, hashes self's tail instead (:meth:`_matches_in`); a
        unique-key probe that matches every row of a materialised self
        shares its head.  nil tails in self never match (oid nil
        semantics).  Every value comes from other's tail, so the result
        is nil-free when other is.
        """
        stail = self.tail
        heads: List[int]
        tail: List[Any]
        nil_free = other._nil_mark() is False
        if other.head is None:
            if self._is_tid_of(other):
                return other
            gathered = self._gather(other)
            if gathered is not None:
                return self.same_heads(gathered, other.tail_type)._marked(nil_free)
            base, size = other.hseqbase, len(other.tail)
            otail = other.tail
            heads, tail = [], []
            add_head, add_tail = heads.append, tail.append
            for oid, value in self.items():
                if value is None:
                    continue
                pos = int(value) - base
                if 0 <= pos < size:
                    add_head(oid)
                    add_tail(otail[pos])
            if self.head is None and len(tail) == len(stail):
                # no row dropped: self's void head is the result's
                return self._like(None, tail, other.tail_type, self.hseqbase,
                                  nil_free)
        else:
            otail = other.tail
            heads, tail = [], []
            add_head, add_tail = heads.append, tail.append
            if (other._index_cache is None and not other._join_scans
                    and len(stail) * JOIN_HASH_SELF_RATIO <= len(otail)):
                # the first join against this head: no evidence it will
                # be joined again, so hash the smaller side instead
                other._join_scans = 1
                positions_of = self._matches_in(other).get
            else:
                index = other._head_index()
                if len(index) == len(otail):
                    # every key unique: one probe per row, no list anywhere
                    position_of = index.get
                    for oid, value in self.items():
                        pos = position_of(value)
                        if pos is not None and value is not None:
                            add_head(oid)
                            add_tail(otail[pos])
                    if self.head is not None and len(heads) == len(stail):
                        heads = self.head   # every row matched once
                    return self._like(heads, tail, other.tail_type,
                                      nil_free=nil_free)
                positions_of = other._head_multimap().get
            for oid, value in self.items():
                if value is None:
                    continue
                for pos in positions_of(value, ()):
                    add_head(oid)
                    add_tail(otail[pos])
        return self._like(heads, tail, other.tail_type, nil_free=nil_free)

    def leftfetchjoin(self, other: "BAT") -> "BAT":
        """``algebra.leftfetchjoin``: positional fetch, errors on misses.

        Like :meth:`leftjoin` against a void-headed ``other``, but a tail
        oid outside ``other`` is an error rather than a dropped row — this
        is the projection step plans rely on to preserve cardinality.
        Nil-free int-typed inputs take the same prescan-then-gather fast
        path as :meth:`leftjoin`; a failed prescan means a guaranteed miss,
        reported by the per-row path.  Every row of self yields exactly
        one output row, so the result always has self's head (void stays
        void), and a fetch through a complete tid is ``other`` itself.
        A nil oid fetches a nil, so the result is nil-free when other is
        and self is, or the gather (which a nil oid fails) ran.
        """
        stail = self.tail
        tail: Optional[List[Any]] = None
        nil_free = other._nil_mark() is False
        if other.head is None:
            if self._is_tid_of(other):
                return other
            base, size = other.hseqbase, len(other.tail)
            otail = other.tail
            tail = self._gather(other)
            if tail is not None:
                return self.same_heads(tail, other.tail_type)._marked(nil_free)
            tail = []
            add_tail = tail.append
            for value in stail:
                if value is None:
                    add_tail(None)
                    continue
                pos = int(value) - base
                if not (0 <= pos < size):
                    raise StorageError(f"fetchjoin miss for oid {value}")
                add_tail(otail[pos])
        else:
            position_of = other._head_index()
            otail = other.tail
            tail = []
            add_tail = tail.append
            for value in stail:
                if value is None:
                    add_tail(None)
                    continue
                try:
                    pos = position_of[value]
                except KeyError:
                    raise StorageError(
                        f"fetchjoin miss for oid {value}") from None
                add_tail(otail[pos])
        return self.same_heads(tail, other.tail_type)._marked(
            nil_free and self._nil_mark() is False)

    def _gather(self, other: "BAT") -> Optional[List[Any]]:
        """Every row's fetch from void-headed ``other`` in one gather
        comprehension, or None -- a nil, a miss or a tail that is not
        int-typed -- for the caller's per-row path.

        Oids are non-negative by construction, so from a base of 0 the
        gather is blind: a miss raises IndexError, a nil TypeError.
        Any other gather first checks that the tail's min/max
        (:meth:`_bounds`) land inside ``other``; a nil among them makes
        that check raise TypeError, so no separate nil scan runs.
        Inside a current partition, an oid indexes its column's tail as
        it is.
        """
        stail = self.tail
        if not stail or self.tail_type.name not in _INT_TAILS:
            return None
        otail, base = other.tail, other.hseqbase
        try:
            if base == 0 and self.tail_type is OID:
                return [otail[v] for v in stail]
            low, high = self._bounds()
            if low >= base and high - base < len(otail):
                if not base:
                    return [otail[v] for v in stail]
                column = other._column_tail()
                if column is not None:
                    return [column[v] for v in stail]
                return [otail[v - base] for v in stail]
        except (IndexError, TypeError):
            pass
        return None

    def _bounds(self) -> Tuple[Any, Any]:
        """Memoized ``(min, max)`` of the tail, guarded by its length;
        a nil in it raises TypeError (and memoizes nothing)."""
        tail = self.tail
        cached = self._bounds_cache
        if cached is not None and cached[0] == len(tail):
            return cached[1], cached[2]
        low, high = min(tail), max(tail)
        self._bounds_cache = (len(tail), low, high)
        return low, high

    def _is_tid_of(self, other: "BAT") -> bool:
        """True when self is a :meth:`dense_oids` tid as long as
        ``other``, a void column from 0: a fetch of ``other`` through
        every row of it, in order, *is* ``other``, as ``mat.pack`` of a
        column's own partitions is the column."""
        return (self._tdense and other.head is None and other.hseqbase == 0
                and len(other.tail) == len(self.tail))

    def _matches_in(self, other: "BAT") -> dict:
        """``{value: [positions]}`` of self's tail values in ``other``'s
        materialised head, in head order: the head's multi-map cut down
        to what self probes, found by hashing self's tail and scanning
        the head once."""
        keys = set(self.tail)
        keys.discard(None)
        ohead = other.head
        matches: dict = {}
        if keys:
            for pos in compress(range(len(ohead)),
                                map(keys.__contains__, ohead)):
                key = ohead[pos]
                if key in matches:
                    matches[key].append(pos)
                else:
                    matches[key] = [pos]
        return matches

    def join(self, other: "BAT") -> "BAT":
        """``algebra.join``: equi-join self.tail with other.head.

        Returns (self.head, other.tail) pairs for every match, without an
        order guarantee in MonetDB; here we keep self-major order, which is
        a legal refinement.
        """
        return self.leftjoin(other)

    def reverse(self) -> "BAT":
        """``bat.reverse``: swap head and tail columns.

        The resulting tail holds the old head oids (type oid); the head is
        materialised from the old tail.  Old MonetDB BAT heads may be of
        any atom type (value-keyed joins reverse a value column), so any
        non-nil tail is accepted as the new head.

        Memoized on self and guarded by both lengths, so the reverse of
        a column is one BAT until the column (or the reverse) changes,
        and the head hash a join builds on it outlives the query.
        """
        cached = self._reverse_cache
        if cached is not None and cached[0] == len(self.tail) \
                == len(cached[1].tail):
            return cached[1]
        if self.has_nil():
            raise StorageError("cannot reverse a BAT with nil tails")
        out = self._like(list(self.tail), list(self.heads()), tail_type=OID,
                         nil_free=True)
        self._reverse_cache = (len(self.tail), out)
        return out

    def mirror(self) -> "BAT":
        """``bat.mirror``: (head, head) pairs — an identity over the head
        (the tail is materialised; a void head stays void)."""
        return self.same_heads(list(self.heads()), OID)._marked(True)

    def mark(self, base: int = 0) -> "BAT":
        """``algebra.markT``: renumber as a dense void head starting at base."""
        return self._like(None, list(self.tail), hseqbase=base,
                          nil_free=self._nil_mark() is False)

    def project(self, value: Any, value_type: Optional[MalType] = None) -> "BAT":
        """``algebra.project``: constant tail with self's heads."""
        if value_type is None:
            from repro.storage.types import infer_type

            value_type = self.tail_type if value is nil else infer_type(value)
        return self.same_heads(
            [cast_value(value, value_type)] * len(self.tail),
            value_type)._marked(value is not nil)

    def slice_(self, first: int, last: int) -> "BAT":
        """``algebra.slice``: positions ``first..last`` inclusive.

        A slice of a void BAT is void with ``hseqbase + first`` — which
        is what :meth:`partitions` hands every mitosis fragment.
        """
        first = max(first, 0)
        stop = max(min(last, len(self.tail) - 1) + 1, first)
        nil_free = self._nil_mark() is False
        if self.head is None:
            return self._like(None, self.tail[first:stop],
                              hseqbase=self.hseqbase + first,
                              nil_free=nil_free)
        return self._like(self.head[first:stop], self.tail[first:stop],
                          nil_free=nil_free)

    def partitions(self, nparts: int) -> Tuple["BAT", ...]:
        """The ``nparts`` horizontal slices ``sql.bind(…, part, nparts)``
        binds: part ``p`` holds positions ``p*n//nparts`` up to
        ``(p+1)*n//nparts - 1`` of the ``n`` rows (void stays void).

        Memoized on the column for one ``nparts`` at a time, like every
        memo invalidated by append/extend and guarded by the length, so
        whatever a kernel builds on a slice (an order index, a head hash)
        is built once per column state rather than once per run.  Two
        threads that build the memo at once may each keep their own
        slices: both are correct, one of them is just not shared.
        """
        total = len(self.tail)
        cached = self._parts_cache
        if cached is not None and cached[0] == total \
                and len(cached[1]) == nparts:
            return cached[1]
        parts = tuple(self.slice_(part * total // nparts,
                                  (part + 1) * total // nparts - 1)
                      for part in range(nparts))
        for part in parts:
            part.parent = self
        self._parts_cache = (total, parts)
        return parts

    def is_partitioned_as(self, parts: Sequence["BAT"]) -> bool:
        """True when ``parts`` is this column's current :meth:`partitions`
        list: the same objects, in order, all of them, and the column no
        longer or shorter than when they were cut."""
        cached = self._parts_cache
        return (cached is not None and cached[0] == len(self.tail)
                and len(parts) == len(cached[1])
                and all(map(operator.is_, parts, cached[1])))

    def kdifference(self, other: "BAT") -> "BAT":
        """``algebra.kdifference``: keep associations whose head is absent
        from other's head column (anti-semijoin on heads).

        Void-headed ``other`` reduces membership to range arithmetic;
        void-on-void is two C-level slices, and stays void unless other
        cuts self into two runs.  Materialised others test against the
        memoized head index.
        """
        if other.head is None:
            lo = other.hseqbase
            hi = lo + len(other.tail)
            if self.head is None:
                base, n = self.hseqbase, len(self.tail)
                left_end = min(max(lo, base), base + n)
                right_start = max(min(hi, base + n), base)
                tail = (self.tail[:left_end - base]
                        + self.tail[right_start - base:])
                nil_free = self._nil_mark() is False
                if left_end == base:    # a prefix (or nothing) removed
                    return self._like(None, tail, hseqbase=right_start,
                                      nil_free=nil_free)
                if right_start in (left_end, base + n):  # nothing, a suffix
                    return self._like(None, tail, hseqbase=base,
                                      nil_free=nil_free)
                heads = (list(range(base, left_end))
                         + list(range(right_start, base + n)))
                return self._like(heads, tail, nil_free=nil_free)
            shead = self.head
            return self._take([i for i, h in enumerate(shead)
                               if not lo <= h < hi], ascending=True)
        index = other._head_index()
        if self.head is None:
            return self._take_run(index, False)
        shead = self.head
        return self._take([i for i, h in enumerate(shead) if h not in index],
                          ascending=True)

    def semijoin(self, other: "BAT") -> "BAT":
        """``algebra.semijoin``: keep associations whose head occurs in
        other's head column.  Same fast paths as :meth:`kdifference`;
        void-on-void is one run of self, so always void.  When every row
        of a materialised self survives, its head is shared."""
        if other.head is None:
            lo = other.hseqbase
            hi = lo + len(other.tail)
            if self.head is None:
                base, n = self.hseqbase, len(self.tail)
                start = max(lo, base)
                end = max(min(hi, base + n), start)
                return self._like(None, self.tail[start - base:end - base],
                                  hseqbase=start,
                                  nil_free=self._nil_mark() is False)
            shead = self.head
            return self._take([i for i, h in enumerate(shead)
                               if lo <= h < hi], ascending=True)
        index = other._head_index()
        if self.head is None:
            return self._take_run(index, True)
        shead = self.head
        return self._take([i for i, h in enumerate(shead) if h in index],
                          ascending=True)

    def _take_run(self, index: dict, inside: bool) -> "BAT":
        """The rows of void self whose oid is (``inside``) or is not in
        ``index``, tested as oids; a current partition reads them from
        its column, any other void BAT from its own positions."""
        base = self.hseqbase
        run = range(base, base + len(self.tail))
        oids = ([o for o in run if o in index] if inside
                else [o for o in run if o not in index])
        if not base:
            return self._take(oids)
        column = self._column_tail()
        if column is not None:
            return self._take(oids, column)
        tail = self.tail
        return self._like(oids, [tail[o - base] for o in oids],
                          nil_free=self._nil_mark() is False)

    # ------------------------------------------------------------------
    # ordering and grouping
    # ------------------------------------------------------------------

    def sort(self, reverse: bool = False) -> "BAT":
        """``algebra.sortTail``: stable sort by tail value.

        Nils sort first ascending and last descending; ties keep their
        original order.  Nil-free inputs sort positions directly with the
        tail's own ``__getitem__`` as the key — no per-element wrapper.
        """
        tail = self.tail
        if self.has_nil():
            non_nil = [i for i, v in enumerate(tail) if v is not None]
            nils = [i for i, v in enumerate(tail) if v is None]
            non_nil.sort(key=tail.__getitem__, reverse=reverse)
            order = non_nil + nils if reverse else nils + non_nil
        else:
            order = sorted(range(len(tail)), key=tail.__getitem__,
                           reverse=reverse)
        return self._take(order)

    def group(self) -> Tuple["BAT", "BAT", "BAT"]:
        """``group.new``-style grouping on tail values.

        Returns (groups, extents, histogram):
          * groups: void head, tail = dense group id per input position;
          * extents: void head, tail = head oid of each group's first row;
          * histogram: void head, tail = group sizes.
        """
        # One fused pass assigns dense ids in first-appearance order (nil
        # is a hashable dict key like any atom, so no wrapping needed).
        mapping: dict = {}
        assign = mapping.setdefault
        group_ids = [assign(v, len(mapping)) for v in self.tail]
        return self._grouping(group_ids, len(mapping))

    def refine_group(self, groups: "BAT") -> Tuple["BAT", "BAT", "BAT"]:
        """Refine an existing grouping with this BAT's tail values
        (``group.derive``): rows agree iff old group id and value agree."""
        if len(groups) != len(self):
            raise StorageError("group refinement length mismatch")
        mapping: dict = {}
        assign = mapping.setdefault
        group_ids = [assign(key, len(mapping))
                     for key in zip(groups.tail, self.tail)]
        return self._grouping(group_ids, len(mapping))

    def _grouping(self, group_ids: List[int],
                  ngroups: int) -> Tuple["BAT", "BAT", "BAT"]:
        """The (groups, extents, histogram) triple of dense first-appearance
        ``group_ids``; the groups BAT keeps the histogram for the
        aggregates over it (:meth:`_histogram`).

        No value is cast: every int here was just computed.  First
        occurrences are position-ordered -- group g first appears after
        group g-1 -- so chained C-level ``list.index`` calls cost one
        effective pass in total, and ``Counter``'s first-seen key order
        is group-id order.
        """
        find = group_ids.index
        positions: List[int] = []
        position = 0
        for gid in range(ngroups):
            position = find(gid, position)
            positions.append(position)
        head, base = self.head, self.hseqbase
        if head is not None:
            extents = [head[p] for p in positions]
        else:
            extents = [base + p for p in positions] if base else positions
        hist = list(Counter(group_ids).values())
        groups = self._like(None, group_ids, OID, base, nil_free=True)
        groups._hist_cache = (len(group_ids), list(hist))
        return (groups, self._like(None, extents, OID, nil_free=True),
                self._like(None, hist, LNG, nil_free=True))

    def _histogram(self, ngroups: int) -> Optional[List[int]]:
        """The group sizes :meth:`_grouping` counted for this groups BAT
        -- each at least 1 -- or None when another kernel made it, it
        changed since, or ``ngroups`` is not its group count."""
        cached = self._hist_cache
        if (cached is not None and cached[0] == len(self.tail)
                and len(cached[1]) == ngroups):
            return cached[1]
        return None

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def aggregate(self, func: str) -> Any:
        """Scalar aggregate over non-nil tails (``aggr.sum`` etc.).

        ``count`` counts all associations (MonetDB counts nils too for
        ``count(*)``-style counts) and ``count_no_nil`` the non-nil ones
        (SQL's ``count(column)``); the others skip nils and return nil on
        an all-nil/empty input.
        """
        tail = self.tail
        if func == "count":
            return len(tail)
        has_nil = self.has_nil()
        if func == "count_no_nil":
            return len(tail) - tail.count(None) if has_nil else len(tail)
        values = [v for v in tail if v is not None] if has_nil else tail
        if not values:
            return nil
        if func == "sum":
            return sum(values)
        if func == "min":
            return min(values)
        if func == "max":
            return max(values)
        if func == "avg":
            return float(sum(values)) / len(values)
        raise StorageError(f"unknown aggregate {func!r}")

    def grouped_aggregate(self, groups: "BAT", ngroups: int, func: str) -> "BAT":
        """Per-group aggregate; returns one tail value per group id.

        Single-pass accumulators instead of materialised buckets.  Sums
        accumulate from 0 in input order — bit-identical to folding each
        bucket with ``sum`` — and ``avg`` divides the same sum by the
        non-nil count.  Where the count of every row is what a func
        needs, it is the histogram the grouping kernel left on
        ``groups`` (:meth:`_histogram`), counted again only for a
        groups BAT no grouping kernel made; over such a histogram a
        ``sum`` leaves its sums on self for an ``avg`` over the same
        grouping (:meth:`_group_sums`).
        """
        if len(groups) != len(self):
            raise StorageError("grouped aggregate length mismatch")
        gids = groups.tail
        if groups.tail_type.name not in _INT_TAILS:
            gids = [int(g) for g in gids]
        tail = self.tail
        hist = groups._histogram(ngroups)
        if func in ("count", "count_no_nil"):
            if func == "count_no_nil" and self.has_nil():
                sizes = _sizes([g for g, v in zip(gids, tail)
                                if v is not None], ngroups)
            else:
                sizes = _sizes(gids, ngroups) if hist is None else list(hist)
            return self._like(None, sizes, tail_type=LNG, nil_free=True)
        if func in ("sum", "avg"):
            sums, nonnil = self._group_sums(gids, ngroups, hist, func)
            # every group of a histogram has a row: counted by it, none
            # of them is empty
            every = nonnil is hist
            if func == "sum":
                results = (list(sums) if every
                           else [s if n else None for s, n in zip(sums, nonnil)])
                return self._like(None, results, tail_type=self.tail_type,
                                  nil_free=every)
            results = [float(s) / n if n else None
                       for s, n in zip(sums, nonnil)]
            return self._like(None, results, tail_type=DBL, nil_free=every)
        if func in ("min", "max"):
            best: List[Any] = [None] * ngroups
            if func == "min":
                for value, gid in zip(tail, gids):
                    if value is None:
                        continue
                    current = best[gid]
                    if current is None or value < current:
                        best[gid] = value
            else:
                for value, gid in zip(tail, gids):
                    if value is None:
                        continue
                    current = best[gid]
                    if current is None or value > current:
                        best[gid] = value
            return self._like(None, best, tail_type=self.tail_type,
                              nil_free=(hist is not None
                                        and self._nil_mark() is False))
        raise StorageError(f"unknown aggregate {func!r}")

    def _group_sums(self, gids: List[int], ngroups: int,
                    hist: Optional[List[int]], func: str
                    ) -> Tuple[Sequence[Any], Sequence[int]]:
        """Per-group (sums, non-nil counts) of the tail; the counts are
        ``hist`` itself when no row is nil.  Over a histogram a ``sum``
        keeps them on self, keyed by that histogram (one list per
        grouping, dropped with the groups BAT's memos), and an ``avg``
        over it reads them instead of summing the rows again."""
        tail = self.tail
        cached = self._sums_cache
        if (func == "avg" and cached is not None and hist is not None
                and cached[1] is hist and cached[0] == len(tail)):
            return cached[2], cached[3]
        sums: List[Any] = [0] * ngroups
        if self.has_nil():
            nonnil = [0] * ngroups
            for value, gid in zip(tail, gids):
                if value is not None:
                    sums[gid] += value
                    nonnil[gid] += 1
        else:
            for value, gid in zip(tail, gids):
                sums[gid] += value
            nonnil = _sizes(gids, ngroups) if hist is None else hist
        if func == "sum" and hist is not None:
            self._sums_cache = (len(tail), hist, sums, nonnil)
        return sums, nonnil

    # ------------------------------------------------------------------
    # elementwise calculation (MAL batcalc)
    # ------------------------------------------------------------------

    def calc(self, other: "BAT", op: str, out_type: Optional[MalType] = None) -> "BAT":
        """Elementwise binary op with another BAT of equal length; over
        nil-free operands the result is nil-free, but for ``/`` and
        ``%`` (a zero divisor answers nil)."""
        if len(other) != len(self):
            raise StorageError("batcalc length mismatch")
        fn = _calc_fn(op)
        a, b = self.tail, other.tail
        if op in _THREE_VALUED:
            nil_free = (self._nil_mark() is False
                        and other._nil_mark() is False)
            tail = list(map(fn, a, b))
        elif self.has_nil() or other.has_nil():
            nil_free = False
            tail = [None if (x is None or y is None) else fn(x, y)
                    for x, y in zip(a, b)]
        else:
            nil_free = op not in _NIL_ANSWERING
            tail = list(map(fn, a, b))
        return self._calc_out(tail, op, out_type, other.tail_type, nil_free)

    def calc_const(self, value: Any, op: str, swapped: bool = False,
                   out_type: Optional[MalType] = None) -> "BAT":
        """Elementwise binary op against a constant; nil-free as
        :meth:`calc`, for a constant that is not nil."""
        fn = _calc_fn(op)
        a = self.tail
        nil_free = False
        if op in _THREE_VALUED:  # commutative, and an answer for a nil
            nil_free = value is not nil and self._nil_mark() is False
            tail: List[Any] = list(map(fn, a, repeat(value)))
        elif value is nil:
            tail = [nil] * len(a)
        elif self.has_nil():
            if swapped:
                tail = [None if v is None else fn(value, v) for v in a]
            else:
                tail = [None if v is None else fn(v, value) for v in a]
        else:
            nil_free = op not in _NIL_ANSWERING
            if swapped:
                tail = list(map(fn, repeat(value), a))
            else:
                tail = list(map(fn, a, repeat(value)))
        from repro.storage.types import infer_type

        other_type = self.tail_type if value is nil else infer_type(value)
        return self._calc_out(tail, op, out_type, other_type, nil_free)

    def _calc_out(self, tail: List[Any], op: str,
                  out_type: Optional[MalType], other_type: MalType,
                  nil_free: bool) -> "BAT":
        skip_cast = False
        if out_type is None:
            if op in _OPS or op in _THREE_VALUED:
                # comparison and logical kernels yield real bools (or
                # nils): already BIT-shaped
                out_type = BIT
                skip_cast = True
            elif op == "/":
                out_type = DBL
                # true division of numerics is always a float (or nil)
                skip_cast = (self.tail_type.name in _NUMERIC_TAILS
                             and other_type.name in _NUMERIC_TAILS)
            else:
                from repro.storage.types import promote

                try:
                    out_type = promote(self.tail_type, other_type)
                except TypeMismatchError:
                    out_type = self.tail_type
                else:
                    # numeric arithmetic already matches the promoted type
                    skip_cast = op in ("+", "-", "*", "%")
        if not skip_cast:
            tail = [cast_value(v, out_type) for v in tail]
        return self.same_heads(tail, out_type)._marked(nil_free)


def _sizes(gids: List[int], ngroups: int) -> List[int]:
    """Rows per group id ``0..ngroups-1``, counted from scratch."""
    counted = Counter(gids)
    return [counted[g] for g in range(ngroups)]


def _safe_div(a: Any, b: Any) -> Any:
    return a / b if b else None


def _safe_mod(a: Any, b: Any) -> Any:
    return a % b if b else None


_CALC_FNS: dict = {
    **_OPS,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _safe_div,
    "%": _safe_mod,
    "and": logical_and,
    "or": logical_or,
}
#: the calc operators that answer for a nil operand (SQL's three-valued
#: logic) instead of propagating it
_THREE_VALUED = frozenset(("and", "or"))
#: the calc operators that answer nil for operands that are not nil
#: (:func:`_safe_div`, :func:`_safe_mod`: a zero divisor)
_NIL_ANSWERING = frozenset(("/", "%"))


def _calc_fn(op: str) -> Callable[[Any, Any], Any]:
    try:
        return _CALC_FNS[op]
    except KeyError:
        raise StorageError(f"unknown calc operator {op!r}") from None
