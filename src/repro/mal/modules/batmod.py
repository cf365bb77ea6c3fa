"""The MAL ``bat`` module: BAT construction and column manipulation."""

from __future__ import annotations

from repro.errors import MalRuntimeError, MalTypeError
from repro.mal.ast import Const, bat_of
from repro.mal.modules import (OID_BAT, Signature, Unknown, register, returns,
                               tail_of)
from repro.storage.bat import BAT


def _require_bat(value, name: str) -> BAT:
    if not isinstance(value, BAT):
        raise MalTypeError(f"{name} expects a BAT argument, got {type(value).__name__}")
    return value


def _new(args, var_types):
    tail = args[1].mal_type if args[1].__class__ is Const else None
    if tail is None:
        raise Unknown
    return (bat_of(tail.name),)


@register("bat.new", Signature("a BAT of argument 2's typed constant", _new))
def new(ctx, instr, args):
    """``bat.new(nil:oid, nil:<tail>)``: an empty BAT, its tail type the
    second argument's literal type annotation (its signature)."""
    try:
        return BAT(_new(instr.args, None)[0].tail)
    except (Unknown, IndexError):
        raise MalRuntimeError("bat.new needs a typed nil:<tail>") from None


@register("bat.append", tail_of(0))
def append(ctx, instr, args):
    """``bat.append(b, v)``: append a value; returns the same BAT."""
    bat = _require_bat(args[0], "bat.append")
    bat.append(args[1])
    return bat


@register("bat.insert", tail_of(0))
def insert(ctx, instr, args):
    """``bat.insert(b, src)``: append all of src's tail values to b."""
    bat = _require_bat(args[0], "bat.insert")
    src = _require_bat(args[1], "bat.insert")
    bat.extend(src.tail)
    return bat


@register("bat.reverse", returns(OID_BAT))
def reverse(ctx, instr, args):
    """``bat.reverse(b)``: swap head and tail columns."""
    return _require_bat(args[0], "bat.reverse").reverse()


@register("bat.mirror", returns(OID_BAT))
def mirror(ctx, instr, args):
    """``bat.mirror(b)``: (head, head) identity pairs."""
    return _require_bat(args[0], "bat.mirror").mirror()


@register("bat.copy", tail_of(0))
def copy(ctx, instr, args):
    """``bat.copy(b)``: an independent copy."""
    return _require_bat(args[0], "bat.copy").copy()

