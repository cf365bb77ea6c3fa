"""The MAL ``aggr`` module: scalar and grouped aggregates."""

from __future__ import annotations

from repro.errors import MalRuntimeError, MalTypeError
from repro.mal.ast import bat_of, scalar_of
from repro.mal.modules import Signature, declared, register
from repro.storage.bat import BAT
from repro.storage.types import DBL, LNG


def _aggregate(name: str):
    def impl(ctx, instr, args):
        if not isinstance(args[0], BAT):
            raise MalTypeError(f"aggr.{name} expects a BAT argument")
        if len(args) == 1:
            return args[0].aggregate(name)
        if len(args) == 3:
            values, groups, extents = args
            if not isinstance(groups, BAT) or not isinstance(extents, BAT):
                raise MalTypeError(f"grouped aggr.{name} expects BAT groups/extents")
            return values.grouped_aggregate(groups, len(extents), name)
        raise MalRuntimeError(f"aggr.{name} expects 1 or 3 arguments")

    impl.__doc__ = (
        f"``aggr.{name}(b)`` scalar aggregate, or ``aggr.{name}(b, g, e)``"
        " per-group aggregate over grouping g with extents e."
    )
    return impl


def _signature(name: str) -> Signature:
    """Of ``lng`` (counts), ``dbl`` (``avg``) or b's tail: a scalar for
    ``aggr.f(b)``, a BAT for ``aggr.f(b, g, e)``."""
    fixed = {"count": LNG, "count_no_nil": LNG, "avg": DBL}.get(name)
    kind = f"`:{fixed.name}`" if fixed else "the tail of argument 1"
    return Signature(
        f"{kind}: a scalar, or a BAT when grouped",
        lambda args, var_types: ((scalar_of if len(args) == 1 else bat_of)(
            (fixed or declared(args[0], var_types).tail).name),))


for _name in ("count", "count_no_nil", "sum", "min", "max", "avg"):
    register(f"aggr.{_name}", _signature(_name))(_aggregate(_name))
