"""The MAL ``mat`` module: merge-table operations.

``mat.pack`` is the glue the *mitosis* optimizer relies on: after a plan
fragment is replicated over horizontal partitions of a table, ``mat.pack``
concatenates the per-partition results back into one BAT.
"""

from __future__ import annotations

from repro.errors import MalRuntimeError, MalTypeError
from repro.mal.modules import register, tail_of
from repro.storage.bat import BAT


@register("mat.pack", tail_of(0))
def pack(ctx, instr, args):
    """``mat.pack(b1, b2, ...)``: concatenate partition results.

    Head oids are preserved (the partitions carry disjoint oid ranges), so
    positional relationships with the original table survive packing.
    A column's own current ``BAT.partitions``, complete and in order,
    pack into the column itself, memos and all.
    Any other inputs are concatenated into a new BAT, which is void when
    they are void with adjacent oid ranges (slices of one void column,
    and whatever kept their heads), and nil-free when they all are.
    """
    if not args:
        raise MalRuntimeError("mat.pack needs at least one argument")
    for value in args:
        if not isinstance(value, BAT):
            raise MalTypeError("mat.pack expects BAT arguments")
    first = args[0]
    parent = first.parent
    if parent is not None and parent.is_partitioned_as(args):
        return parent
    end = first.hseqbase
    void = True
    for bat in args:
        if bat.head is not None or bat.hseqbase != end:
            void = False
            break
        end += len(bat.tail)
    out = BAT(first.tail_type, hseqbase=first.hseqbase if void else 0)
    tail = out.tail
    for bat in args:
        tail += bat.tail
    if not void:
        head = out.head = []
        for bat in args:
            head += bat.heads()
    return out._marked(all(bat._nil_mark() is False for bat in args))
