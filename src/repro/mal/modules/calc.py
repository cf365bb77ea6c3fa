"""The MAL ``calc`` module: scalar arithmetic, comparison and casts.

MonetDB spells these with symbolic names (``calc.+``); to keep plans
parseable by a conventional tokenizer this reproduction uses spelled-out
names (``calc.add``), a choice recorded in DESIGN.md.  nil propagates
through every operation but ``and``/``or``, which follow SQL's
three-valued logic (FALSE AND nil is FALSE, TRUE OR nil is TRUE).
"""

from __future__ import annotations

from repro.mal.ast import scalar_of
from repro.mal.modules import (binary, nil_type, promoted, register,
                               returns, tail_of)
from repro.storage.types import (cast_value, infer_type, logical_and,
                                 logical_or, nil, promote, type_by_name)

_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: (a / b) if b else nil,
    "mod": lambda a, b: (a % b) if b else nil,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "min": min,
    "max": max,
}


def _binary(name: str):
    fn = _BINARY[name]

    def impl(ctx, instr, args):
        a, b = args[0], args[1]
        if a is nil or b is nil:
            return nil
        return fn(a, b)

    impl.__doc__ = f"``calc.{name}(a, b)`` with nil propagation."
    return impl


for _name in _BINARY:
    register(f"calc.{_name}", binary(_name, scalar_of))(_binary(_name))


@register("calc.and", binary("and", scalar_of))
def and_(ctx, instr, args):
    """``calc.and(a, b)``: three-valued, FALSE AND nil is FALSE."""
    return logical_and(args[0], args[1])


@register("calc.or", binary("or", scalar_of))
def or_(ctx, instr, args):
    """``calc.or(a, b)``: three-valued, TRUE OR nil is TRUE."""
    return logical_or(args[0], args[1])


@register("calc.not", returns(scalar_of("bit")))
def not_(ctx, instr, args):
    """``calc.not(a)``: boolean negation, nil-propagating."""
    if args[0] is nil:
        return nil
    return not args[0]


@register("calc.neg", tail_of(0, scalar_of))
def neg(ctx, instr, args):
    """``calc.neg(a)``: arithmetic negation, nil-propagating."""
    if args[0] is nil:
        return nil
    return -args[0]


@register("calc.isnil", returns(scalar_of("bit")))
def isnil(ctx, instr, args):
    """``calc.isnil(a)``: true iff a is nil."""
    return args[0] is nil


@register("calc.ifthenelse", promoted("ifthenelse", scalar_of, first=1))
def ifthenelse(ctx, instr, args):
    """``calc.ifthenelse(cond, t, f)``: nil condition yields nil; the
    branch taken is cast to the promotion of both (to the declared type
    when the other is nil), as ``batcalc.ifthenelse`` casts."""
    cond, then, otherwise = args
    if cond is nil:
        return nil
    value = then if cond else otherwise
    if value is nil or type(then) is type(otherwise):
        return value
    out_type = nil_type(ctx, instr) if then is nil or otherwise is nil \
        else promote(infer_type(then), infer_type(otherwise))
    return value if out_type is None else cast_value(value, out_type)


def _cast(type_name: str):
    mal_type = type_by_name(type_name)

    def impl(ctx, instr, args):
        return cast_value(args[0], mal_type)

    impl.__doc__ = f"``calc.{type_name}(a)``: cast to {type_name}."
    return impl


for _type_name in ("bit", "int", "lng", "flt", "dbl", "str", "oid", "date"):
    register(f"calc.{_type_name}", returns(scalar_of(_type_name)))(
        _cast(_type_name))
