"""The MAL ``batmtime`` module: elementwise date operations."""

from __future__ import annotations

from repro.errors import MalTypeError
from repro.mal.ast import bat_of
from repro.mal.modules import register, returns
from repro.mal.modules.mtime import adddays as _scalar_adddays
from repro.mal.modules.mtime import addmonths as _scalar_addmonths
from repro.storage.bat import BAT
from repro.storage.types import nil, type_by_name


def _require_bat(value, name: str) -> BAT:
    if not isinstance(value, BAT):
        raise MalTypeError(f"{name} expects a BAT argument")
    return value


def _map(bat: BAT, fn, out_type_name: str) -> BAT:
    return bat.same_heads([nil if v is nil else fn(v) for v in bat.tail],
                          type_by_name(out_type_name))


@register("batmtime.year", returns(bat_of("int")))
def year(ctx, instr, args):
    """``batmtime.year(b)``: elementwise calendar year."""
    bat = _require_bat(args[0], "batmtime.year")
    return _map(bat, lambda v: v.year, "int")


@register("batmtime.adddays", returns(bat_of("date")))
def adddays(ctx, instr, args):
    """``batmtime.adddays(b, n)``: elementwise date plus n days."""
    bat = _require_bat(args[0], "batmtime.adddays")
    days = args[1]
    return _map(bat, lambda v: _scalar_adddays(ctx, instr, [v, days]), "date")


@register("batmtime.addmonths", returns(bat_of("date")))
def addmonths(ctx, instr, args):
    """``batmtime.addmonths(b, n)``: elementwise date plus n months."""
    bat = _require_bat(args[0], "batmtime.addmonths")
    months = args[1]
    return _map(bat, lambda v: _scalar_addmonths(ctx, instr, [v, months]), "date")
