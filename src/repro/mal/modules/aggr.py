"""The MAL ``aggr`` module: scalar and grouped aggregates."""

from __future__ import annotations

from repro.errors import MalRuntimeError, MalTypeError
from repro.mal.modules import register
from repro.storage.bat import BAT


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


for _name in ("count", "count_no_nil", "sum", "min", "max", "avg"):
    register(f"aggr.{_name}")(_aggregate(_name))
