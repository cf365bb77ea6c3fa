"""The MAL ``group`` module: grouping and group refinement.

Both entry points return the (groups, extents, histogram) triple that
grouped aggregates consume.
"""

from __future__ import annotations

from repro.errors import MalTypeError
from repro.mal.ast import bat_of
from repro.mal.modules import OID_BAT, register, returns
from repro.storage.bat import BAT

#: (groups, extents, histogram)
_GROUPING = returns(OID_BAT, OID_BAT, bat_of("lng"))


@register("group.new", _GROUPING)
def new(ctx, instr, args):
    """``(g, e, h) := group.new(b)``: group rows by tail value."""
    if not isinstance(args[0], BAT):
        raise MalTypeError("group.new expects a BAT argument")
    return args[0].group()


@register("group.derive", _GROUPING)
def derive(ctx, instr, args):
    """``(g, e, h) := group.derive(g0, b)``: refine grouping g0 by b."""
    groups, values = args[0], args[1]
    if not isinstance(groups, BAT) or not isinstance(values, BAT):
        raise MalTypeError("group.derive expects BAT arguments")
    return values.refine_group(groups)
