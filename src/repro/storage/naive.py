"""Per-row reference kernels for the bulk execution layer in ``bat.py``.

These free functions preserve the original row-at-a-time kernel
implementations (lambda dispatch, per-element casts, index rebuilt on
every join) that :mod:`repro.storage.bat` replaced with bulk
primitives.  They exist for two reasons:

* ``tests/test_kernel_parity.py`` runs every rewritten kernel against
  these references over randomized inputs — the bulk kernels must be
  observationally identical;
* ``benchmarks/bench_e9_kernels.py`` measures the bulk kernels against
  them, which is what makes the recorded speedups meaningful: the
  baseline *is* the pre-rewrite code, not a strawman.

One deliberate deviation: descending :func:`sort` with two or more nil
tails crashed in the original (its ordering adapter compared ``None``
with ``None``).  The reference implements the well-defined semantics
the rewritten kernel uses — nils sort first ascending, last descending,
original order preserved among equals — since no behaviour existed to
preserve.
"""

from __future__ import annotations

import re
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import StorageError, TypeMismatchError
from repro.storage.bat import BAT
from repro.storage.types import (
    BIT, DBL, LNG, OID, MalType, cast_value, infer_type, nil, promote,
)

_OPS: dict = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _like(src: BAT, heads: Optional[List[int]], tail: List[Any],
          tail_type: Optional[MalType] = None, hseqbase: int = 0) -> BAT:
    out = BAT(tail_type or src.tail_type, hseqbase=hseqbase)
    out.tail = tail
    out.head = heads
    return out


def _same_heads(bat: BAT, heads: List[int], tail: List[Any],
                tail_type: Optional[MalType] = None) -> BAT:
    """The voidness rule for kernels that kept every row of ``bat``: the
    output heads are bat's own, so a void ``bat`` gives a void result."""
    if bat.head is None and len(heads) == len(bat):
        return _like(bat, None, tail, tail_type, bat.hseqbase)
    return _like(bat, heads, tail, tail_type)


def _one_run(bat: BAT, other: BAT, heads: List[int], tail: List[Any]) -> BAT:
    """The voidness rule for head-set kernels: two void inputs leave at
    most two dense runs of ``bat``; exactly one (or none) stays void."""
    if bat.head is None and other.head is None:
        start = heads[0] if heads else bat.hseqbase
        if heads == list(range(start, start + len(heads))):
            return _like(bat, None, tail, hseqbase=start)
    return _like(bat, heads, tail)


def _filter(bat: BAT, predicate: Callable[[Any], bool]) -> BAT:
    heads: List[int] = []
    tail: List[Any] = []
    for oid, value in bat.items():
        if value is nil:
            continue
        if predicate(value):
            heads.append(oid)
            tail.append(value)
    return _like(bat, heads, tail)


def select(bat: BAT, low: Any, high: Any = "__unset__",
           include_low: bool = True, include_high: bool = True) -> BAT:
    """Reference ``algebra.select`` (point and range forms)."""
    if high == "__unset__":
        return _filter(bat, lambda v: v == low)
    if low is nil:
        low_ok: Callable[[Any], bool] = lambda v: True
    elif include_low:
        low_ok = lambda v: v >= low
    else:
        low_ok = lambda v: v > low
    if high is nil:
        high_ok: Callable[[Any], bool] = lambda v: True
    elif include_high:
        high_ok = lambda v: v <= high
    else:
        high_ok = lambda v: v < high
    return _filter(bat, lambda v: low_ok(v) and high_ok(v))


def thetaselect(bat: BAT, value: Any, op: str) -> BAT:
    """Reference ``algebra.thetaselect``."""
    try:
        cmp = _OPS[op]
    except KeyError:
        raise StorageError(f"unknown theta operator {op!r}") from None
    return _filter(bat, lambda v: cmp(v, value))


def likeselect(bat: BAT, pattern: str) -> BAT:
    """Reference SQL LIKE selection."""
    if bat.tail_type.name != "str":
        raise TypeMismatchError("likeselect requires a str tail")
    regex = re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$",
        re.DOTALL,
    )
    return _filter(bat, lambda v: regex.match(v) is not None)


def leftjoin(bat: BAT, other: BAT) -> BAT:
    """Reference ``algebra.leftjoin`` (index rebuilt on every call)."""
    heads: List[int] = []
    tail: List[Any] = []
    if other.head is None:
        base, size = other.hseqbase, len(other.tail)
        for oid, value in bat.items():
            if value is nil:
                continue
            pos = int(value) - base
            if 0 <= pos < size:
                heads.append(oid)
                tail.append(other.tail[pos])
        return _same_heads(bat, heads, tail, other.tail_type)
    index: dict = {}
    for pos, hoid in enumerate(other.head):
        index.setdefault(hoid, []).append(pos)
    for oid, value in bat.items():
        if value is nil:
            continue
        for pos in index.get(value, ()):
            heads.append(oid)
            tail.append(other.tail[pos])
    return _like(bat, heads, tail, tail_type=other.tail_type)


def leftfetchjoin(bat: BAT, other: BAT) -> BAT:
    """Reference ``algebra.leftfetchjoin`` (errors on misses)."""
    heads: List[int] = []
    tail: List[Any] = []
    base = other.hseqbase if other.head is None else None
    index = None
    if other.head is not None:
        index = {hoid: pos for pos, hoid in enumerate(other.head)}
    for oid, value in bat.items():
        if value is nil:
            heads.append(oid)
            tail.append(nil)
            continue
        if base is not None:
            pos = int(value) - base
            if not (0 <= pos < len(other.tail)):
                raise StorageError(f"fetchjoin miss for oid {value}")
        else:
            try:
                pos = index[value]  # type: ignore[index]
            except KeyError:
                raise StorageError(f"fetchjoin miss for oid {value}") from None
        heads.append(oid)
        tail.append(other.tail[pos])
    return _same_heads(bat, heads, tail, other.tail_type)


def semijoin(bat: BAT, other: BAT) -> BAT:
    """Reference ``algebra.semijoin`` (head set rebuilt on every call)."""
    other_heads = set(other.heads())
    heads: List[int] = []
    tail: List[Any] = []
    for oid, value in bat.items():
        if oid in other_heads:
            heads.append(oid)
            tail.append(value)
    return _one_run(bat, other, heads, tail)


def kdifference(bat: BAT, other: BAT) -> BAT:
    """Reference ``algebra.kdifference``."""
    other_heads = set(other.heads())
    heads: List[int] = []
    tail: List[Any] = []
    for oid, value in bat.items():
        if oid not in other_heads:
            heads.append(oid)
            tail.append(value)
    return _one_run(bat, other, heads, tail)


def sort(bat: BAT, reverse: bool = False) -> BAT:
    """Reference stable sort: nils first ascending, last descending."""
    tail = bat.tail
    non_nil = [i for i, v in enumerate(tail) if v is not nil]
    nils = [i for i, v in enumerate(tail) if v is nil]
    non_nil.sort(key=lambda i: tail[i], reverse=reverse)
    order = non_nil + nils if reverse else nils + non_nil
    heads = [bat.head_at(i) for i in order]
    return _like(bat, heads, [tail[i] for i in order])


def group(bat: BAT) -> Tuple[BAT, BAT, BAT]:
    """Reference ``group.new``: (groups, extents, histogram)."""
    mapping: dict = {}
    group_ids: List[int] = []
    extents: List[int] = []
    hist: List[int] = []
    for oid, value in bat.items():
        key = ("\0nil",) if value is nil else value
        gid = mapping.get(key)
        if gid is None:
            gid = len(mapping)
            mapping[key] = gid
            extents.append(oid)
            hist.append(0)
        hist[gid] += 1
        group_ids.append(gid)
    groups = BAT(OID, group_ids, hseqbase=bat.hseqbase)
    return groups, BAT(OID, extents), BAT(LNG, hist)


def refine_group(bat: BAT, groups: BAT) -> Tuple[BAT, BAT, BAT]:
    """Reference ``group.derive``."""
    if len(groups) != len(bat):
        raise StorageError("group refinement length mismatch")
    mapping: dict = {}
    group_ids: List[int] = []
    extents: List[int] = []
    hist: List[int] = []
    for (oid, value), gid_old in zip(bat.items(), groups.tail):
        key = (gid_old, ("\0nil",) if value is nil else value)
        gid = mapping.get(key)
        if gid is None:
            gid = len(mapping)
            mapping[key] = gid
            extents.append(oid)
            hist.append(0)
        hist[gid] += 1
        group_ids.append(gid)
    out_groups = BAT(OID, group_ids, hseqbase=bat.hseqbase)
    return out_groups, BAT(OID, extents), BAT(LNG, hist)


def aggregate(bat: BAT, func: str) -> Any:
    """Reference scalar aggregate."""
    if func == "count":
        return len(bat.tail)
    values = [v for v in bat.tail if v is not nil]
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


def grouped_aggregate(bat: BAT, groups: BAT, ngroups: int, func: str) -> BAT:
    """Reference per-group aggregate (bucket lists, then fold)."""
    if len(groups) != len(bat):
        raise StorageError("grouped aggregate length mismatch")
    buckets: List[List[Any]] = [[] for _ in range(ngroups)]
    counts = [0] * ngroups
    for value, gid in zip(bat.tail, groups.tail):
        gid = int(gid)
        counts[gid] += 1
        if value is not nil:
            buckets[gid].append(value)
    out_type = bat.tail_type
    results: List[Any] = []
    if func == "count":
        results = list(counts)
        out_type = LNG
    else:
        for bucket in buckets:
            if not bucket:
                results.append(nil)
            elif func == "sum":
                results.append(sum(bucket))
            elif func == "min":
                results.append(min(bucket))
            elif func == "max":
                results.append(max(bucket))
            elif func == "avg":
                results.append(float(sum(bucket)) / len(bucket))
            else:
                raise StorageError(f"unknown aggregate {func!r}")
        if func == "avg":
            out_type = DBL
    out = BAT(out_type)
    out.tail = results
    return out


def calc(bat: BAT, other: BAT, op: str,
         out_type: Optional[MalType] = None) -> BAT:
    """Reference elementwise binary op between two BATs."""
    if len(other) != len(bat):
        raise StorageError("batcalc length mismatch")
    fn = _calc_fn(op)
    tail = [fn(a, b) for a, b in zip(bat.tail, other.tail)]
    return _calc_out(bat, tail, op, out_type, other.tail_type)


def calc_const(bat: BAT, value: Any, op: str, swapped: bool = False,
               out_type: Optional[MalType] = None) -> BAT:
    """Reference elementwise binary op against a constant."""
    fn = _calc_fn(op)
    tail = [fn(value, v) if swapped else fn(v, value) for v in bat.tail]
    other_type = bat.tail_type if value is nil else infer_type(value)
    return _calc_out(bat, tail, op, out_type, other_type)


def _calc_out(bat: BAT, tail: List[Any], op: str,
              out_type: Optional[MalType], other_type: MalType) -> BAT:
    if out_type is None:
        if op in _OPS or op in ("and", "or"):
            out_type = BIT
        elif op == "/":
            out_type = DBL
        else:
            try:
                out_type = promote(bat.tail_type, other_type)
            except TypeMismatchError:
                out_type = bat.tail_type
    heads = None if bat.head is None else list(bat.head)
    out = BAT(out_type, hseqbase=bat.hseqbase)
    out.head = heads
    out.tail = [cast_value(v, out_type) for v in tail]
    return out


def _calc_fn(op: str) -> Callable[[Any, Any], Any]:
    """The reference of ``op`` on two values, nil included."""
    table: dict = {
        **_OPS,
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b if b else nil,
        "%": lambda a, b: a % b if b else nil,
    }
    if op in ("and", "or"):
        return _and3 if op == "and" else _or3
    try:
        fn = table[op]
    except KeyError:
        raise StorageError(f"unknown calc operator {op!r}") from None
    return lambda a, b: nil if a is nil or b is nil else fn(a, b)


def _and3(a: Any, b: Any) -> Any:
    """Reference three-valued AND: any false operand decides."""
    if (a is not nil and not a) or (b is not nil and not b):
        return False
    return nil if a is nil or b is nil else True


def _or3(a: Any, b: Any) -> Any:
    """Reference three-valued OR: any true operand decides."""
    if (a is not nil and a) or (b is not nil and b):
        return True
    return nil if a is nil or b is nil else False


def bat_bytes(bat: BAT) -> int:
    """Reference (uncached) memory-footprint computation."""
    head_bytes = 0 if bat.head is None else 8 * len(bat.head)
    if bat.tail_type.name == "str":
        tail_bytes = sum(8 + len(v) for v in bat.tail if v is not nil)
        tail_bytes += 8 * sum(1 for v in bat.tail if v is nil)
    else:
        tail_bytes = bat.tail_type.width * len(bat.tail)
    return head_bytes + tail_bytes
