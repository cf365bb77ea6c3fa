"""The MAL ``algebra`` module: selections, joins, projections, ordering.

These carry the old (2012-era) MonetDB semantics the paper's plans use:
``algebra.select`` returns qualifying (oid, value) associations and
``algebra.leftjoin`` matches a tail column against a head column.
"""

from __future__ import annotations

from repro.errors import MalRuntimeError, MalTypeError
from repro.mal.ast import bat_of
from repro.mal.modules import (Signature, column_atom, nil_type, register,
                               tail_of)
from repro.storage.bat import BAT
from repro.storage.types import nil


def _require_bat(value, name: str) -> BAT:
    if not isinstance(value, BAT):
        raise MalTypeError(f"{name} expects a BAT argument, got {type(value).__name__}")
    return value


@register("algebra.select", tail_of(0))
def select(ctx, instr, args):
    """``select(b, val)`` point or ``select(b, low, high[, li, hi])`` range
    selection over the tail."""
    bat = _require_bat(args[0], "algebra.select")
    if len(args) == 2:
        return bat.select(args[1])
    if len(args) == 3:
        return bat.select(args[1], args[2])
    if len(args) == 5:
        return bat.select(args[1], args[2], include_low=bool(args[3]),
                          include_high=bool(args[4]))
    raise MalRuntimeError("algebra.select expects 2, 3 or 5 arguments")


@register("algebra.thetaselect", tail_of(0))
def thetaselect(ctx, instr, args):
    """``thetaselect(b, val, op)`` selection with a comparison operator."""
    bat = _require_bat(args[0], "algebra.thetaselect")
    return bat.thetaselect(args[1], str(args[2]))


@register("algebra.likeselect", tail_of(0))
def likeselect(ctx, instr, args):
    """``likeselect(b, pattern)`` SQL LIKE selection over string tails."""
    bat = _require_bat(args[0], "algebra.likeselect")
    return bat.likeselect(str(args[1]))


@register("algebra.leftjoin", tail_of(1))
def leftjoin(ctx, instr, args):
    """``leftjoin(a, b)``: match a's tail against b's head, keep a's order."""
    return _require_bat(args[0], "algebra.leftjoin").leftjoin(
        _require_bat(args[1], "algebra.leftjoin")
    )


@register("algebra.join", tail_of(1))
def join(ctx, instr, args):
    """``join(a, b)``: equi-join a's tail with b's head."""
    return _require_bat(args[0], "algebra.join").join(
        _require_bat(args[1], "algebra.join")
    )


@register("algebra.semijoin", tail_of(0))
def semijoin(ctx, instr, args):
    """``semijoin(a, b)``: keep a's associations whose head occurs in b."""
    return _require_bat(args[0], "algebra.semijoin").semijoin(
        _require_bat(args[1], "algebra.semijoin")
    )


@register("algebra.markT", tail_of(0))
def mark_t(ctx, instr, args):
    """``markT(b[, base])``: renumber the head as a dense sequence."""
    bat = _require_bat(args[0], "algebra.markT")
    base = int(args[1]) if len(args) > 1 else 0
    return bat.mark(base)


@register("algebra.slice", tail_of(0))
def slice_(ctx, instr, args):
    """``slice(b, first, last)``: positional window, both ends inclusive."""
    bat = _require_bat(args[0], "algebra.slice")
    return bat.slice_(int(args[1]), int(args[2]))


@register("algebra.sortTail", tail_of(0))
def sort_tail(ctx, instr, args):
    """``sortTail(b)``: ascending stable sort on tail values."""
    return _require_bat(args[0], "algebra.sortTail").sort()


@register("algebra.sortReverseTail", tail_of(0))
def sort_reverse_tail(ctx, instr, args):
    """``sortReverseTail(b)``: descending stable sort on tail values."""
    return _require_bat(args[0], "algebra.sortReverseTail").sort(reverse=True)


def _project(args, var_types):
    return (bat_of(column_atom(args[1], var_types).name),)


#: ``BAT.project`` types the column by its value, a nil by its declared
#: type, an untyped nil constant ``int``
_PROJECT = Signature("a BAT of the constant's atom (`int` for an untyped "
                     "nil)", _project)


@register("algebra.project", _PROJECT)
def project(ctx, instr, args):
    """``project(b, v)``: constant tail ``v`` under b's head column."""
    bat = _require_bat(args[0], "algebra.project")
    return bat.project(args[1],
                       nil_type(ctx, instr) if args[1] is nil else None)
