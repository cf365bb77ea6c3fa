"""The MAL ``batstr`` module: elementwise string operations."""

from __future__ import annotations

import re

from repro.errors import MalTypeError
from repro.mal.ast import bat_of
from repro.mal.modules import BIT_BAT, register, returns
from repro.storage.bat import BAT
from repro.storage.types import nil, type_by_name


def _require_str_bat(value, name: str) -> BAT:
    if not isinstance(value, BAT):
        raise MalTypeError(f"{name} expects a BAT argument")
    return value


def _map(bat: BAT, fn, out_type_name: str) -> BAT:
    return bat.same_heads([nil if v is nil else fn(v) for v in bat.tail],
                          type_by_name(out_type_name))


@register("batstr.like", returns(BIT_BAT))
def like(ctx, instr, args):
    """``batstr.like(b, pattern)``: elementwise SQL LIKE giving a bit BAT
    (unlike ``algebra.likeselect``, which filters)."""
    bat = _require_str_bat(args[0], "batstr.like")
    pattern = str(args[1])
    regex = re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$",
        re.DOTALL,
    )
    return _map(bat, lambda v: regex.match(v) is not None, "bit")


@register("batstr.length", returns(bat_of("int")))
def length(ctx, instr, args):
    """``batstr.length(b)``: elementwise string length."""
    return _map(_require_str_bat(args[0], "batstr.length"), len, "int")


@register("batstr.substring", returns(bat_of("str")))
def substring(ctx, instr, args):
    """``batstr.substring(b, start, length)``: 1-based substring."""
    bat = _require_str_bat(args[0], "batstr.substring")
    start, count = int(args[1]), int(args[2])
    begin = max(start - 1, 0)
    return _map(bat, lambda v: v[begin : begin + count], "str")


@register("batstr.toUpper", returns(bat_of("str")))
def to_upper(ctx, instr, args):
    """``batstr.toUpper(b)``: elementwise upper-casing."""
    return _map(_require_str_bat(args[0], "batstr.toUpper"), str.upper, "str")
