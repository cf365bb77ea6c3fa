"""The MAL ``mtime`` module: date arithmetic for TPC-H style predicates."""

from __future__ import annotations

import datetime

from repro.mal.ast import scalar_of
from repro.mal.modules import register, returns
from repro.storage.types import cast_value, nil, DATE


def _as_date(value):
    if value is nil:
        return nil
    return cast_value(value, DATE)


@register("mtime.adddays", returns(scalar_of("date")))
def adddays(ctx, instr, args):
    """``mtime.adddays(d, n)``: date plus n days (nil-propagating)."""
    date = _as_date(args[0])
    if date is nil or args[1] is nil:
        return nil
    return date + datetime.timedelta(days=int(args[1]))


@register("mtime.addmonths", returns(scalar_of("date")))
def addmonths(ctx, instr, args):
    """``mtime.addmonths(d, n)``: date plus n months, clamping the day to
    the target month's length (SQL interval semantics)."""
    date = _as_date(args[0])
    if date is nil or args[1] is nil:
        return nil
    months = int(args[1])
    total = date.year * 12 + (date.month - 1) + months
    year, month = divmod(total, 12)
    month += 1
    day = min(date.day, _days_in_month(year, month))
    return datetime.date(year, month, day)


@register("mtime.year", returns(scalar_of("int")))
def year(ctx, instr, args):
    """``mtime.year(d)``: calendar year of a date."""
    date = _as_date(args[0])
    return nil if date is nil else date.year


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        nxt = datetime.date(year + 1, 1, 1)
    else:
        nxt = datetime.date(year, month + 1, 1)
    return (nxt - datetime.timedelta(days=1)).day
