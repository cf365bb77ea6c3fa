"""The MAL ``batcalc`` module: elementwise calculation over BATs.

Each operation accepts (BAT, BAT), (BAT, scalar) or (scalar, BAT) operand
combinations, mirroring MonetDB's overloads; nil propagates per element.
"""

from __future__ import annotations

from repro.errors import MalTypeError
from repro.mal.ast import bat_of
from repro.mal.modules import (BIT_BAT, binary, nil_type, promoted, register,
                               returns, tail_of)
from repro.storage.bat import BAT
from repro.storage.types import (cast_value, infer_type, nil, promote,
                                 type_by_name)

_SYMBOL = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "div": "/",
    "mod": "%",
    "eq": "==",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
    "and": "and",
    "or": "or",
}


def _binary(name: str):
    op = _SYMBOL[name]

    def impl(ctx, instr, args):
        a, b = args[0], args[1]
        if isinstance(a, BAT) and isinstance(b, BAT):
            return a.calc(b, op)
        if isinstance(a, BAT):
            return a.calc_const(
                b, op, out_type=nil_type(ctx, instr) if b is nil else None)
        if isinstance(b, BAT):
            return b.calc_const(
                a, op, swapped=True,
                out_type=nil_type(ctx, instr) if a is nil else None)
        raise MalTypeError(f"batcalc.{name} needs at least one BAT operand")

    impl.__doc__ = f"``batcalc.{name}``: elementwise {op}" + (
        ", three-valued." if name in ("and", "or")
        else " with nil propagation.")
    return impl


for _name in _SYMBOL:
    register(f"batcalc.{_name}", binary(_name, bat_of))(_binary(_name))


@register("batcalc.not", tail_of(0))
def not_(ctx, instr, args):
    """``batcalc.not(b)``: elementwise boolean negation."""
    bat = args[0]
    if not isinstance(bat, BAT):
        raise MalTypeError("batcalc.not expects a BAT")
    return bat.same_heads([nil if v is nil else (not v) for v in bat.tail],
                          bat.tail_type)._marked(bat._nil_mark() is False)


@register("batcalc.neg", tail_of(0))
def neg(ctx, instr, args):
    """``batcalc.neg(b)``: elementwise arithmetic negation (``-v``, so
    ``-0.0`` keeps its sign), nil-propagating."""
    bat = args[0]
    if not isinstance(bat, BAT):
        raise MalTypeError("batcalc.neg expects a BAT")
    return bat.same_heads([nil if v is nil else -v for v in bat.tail],
                          bat.tail_type)._marked(bat._nil_mark() is False)


@register("batcalc.contains", returns(BIT_BAT))
def contains(ctx, instr, args):
    """``batcalc.contains(b, members)``: elementwise SQL IN over the
    member BAT's tail values.

    Three-valued logic: a nil element yields nil; a non-member yields
    nil (not false) when the member set itself contains nil, matching
    ``x IN (subquery)`` semantics.
    """
    bat, members = args[0], args[1]
    if not isinstance(bat, BAT) or not isinstance(members, BAT):
        raise MalTypeError("batcalc.contains expects two BAT arguments")
    member_set = {v for v in members.tail if v is not nil}
    has_nil_member = members.has_nil()
    tail = []
    for value in bat.tail:
        if value is nil:
            tail.append(nil)
        elif value in member_set:
            tail.append(True)
        elif has_nil_member:
            tail.append(nil)
        else:
            tail.append(False)
    return bat.same_heads(tail, type_by_name("bit"))._marked(
        not has_nil_member and bat._nil_mark() is False)


@register("batcalc.isnil", returns(BIT_BAT))
def isnil(ctx, instr, args):
    """``batcalc.isnil(b)``: elementwise nil test (never nil itself)."""
    bat = args[0]
    if not isinstance(bat, BAT):
        raise MalTypeError("batcalc.isnil expects a BAT")
    return bat.same_heads([v is nil for v in bat.tail],
                          type_by_name("bit"))._marked(True)


def _nil_free(operand) -> bool:
    """True for a BAT marked nil-free and for a scalar that is not nil."""
    if isinstance(operand, BAT):
        return operand._nil_mark() is False
    return operand is not nil


def _branch_type(branch):
    """Atom type of an ifthenelse branch; None for a nil scalar."""
    if isinstance(branch, BAT):
        return branch.tail_type
    return None if branch is nil else infer_type(branch)


@register("batcalc.ifthenelse", promoted("ifthenelse", bat_of, first=1))
def ifthenelse(ctx, instr, args):
    """``batcalc.ifthenelse(cond, t, f)`` with BAT condition and scalar or
    BAT branches.

    The result is typed from the two branches, never from the values
    picked: whichever branch row 0 takes, ``case when c then <dbl> else 0
    end`` is a ``dbl`` column.  It is nil-free when the condition and
    both branches are.
    """
    cond = args[0]
    if not isinstance(cond, BAT):
        raise MalTypeError("batcalc.ifthenelse expects a BAT condition")

    def pick(branch, index):
        return branch.tail[index] if isinstance(branch, BAT) else branch

    then_type, else_type = _branch_type(args[1]), _branch_type(args[2])
    if then_type is None or else_type is None:  # a nil scalar branch
        out_type = (nil_type(ctx, instr) or then_type or else_type
                    or type_by_name("int"))
    elif then_type is else_type:
        out_type = then_type
    else:
        out_type = promote(then_type, else_type)
    return cond.same_heads([
        nil if flag is nil
        else cast_value(pick(args[1] if flag else args[2], index), out_type)
        for index, flag in enumerate(cond.tail)], out_type)._marked(
            all(_nil_free(value) for value in args[:3]))


def _cast(type_name: str):
    mal_type = type_by_name(type_name)

    def impl(ctx, instr, args):
        bat = args[0]
        if not isinstance(bat, BAT):
            raise MalTypeError(f"batcalc.{type_name} expects a BAT")
        return bat.same_heads([cast_value(v, mal_type) for v in bat.tail],
                              mal_type)._marked(bat._nil_mark() is False)

    impl.__doc__ = f"``batcalc.{type_name}(b)``: elementwise cast to {type_name}."
    return impl


for _type_name in ("bit", "int", "lng", "flt", "dbl", "str", "oid"):
    register(f"batcalc.{_type_name}", returns(bat_of(_type_name)))(
        _cast(_type_name))
