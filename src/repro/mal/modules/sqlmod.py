"""The MAL ``sql`` module: catalog binding and result-set delivery.

A compiled SQL query starts with ``sql.mvc()`` (a handle to the SQL
transaction context), binds its columns with ``sql.bind``, and ends by
building a result set: ``sql.resultSet`` / ``sql.rsColumn`` /
``sql.exportResult``, after which the interpreter's context owns the
finished :class:`ResultSet`.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.errors import MalRuntimeError, MalTypeError
from repro.mal.ast import scalar_of
from repro.mal.modules import DECLARED, OID_BAT, register, returns, tail_of
from repro.storage.bat import BAT


class MvcHandle:
    """Opaque handle returned by ``sql.mvc()`` (transaction context)."""

    __slots__ = ("catalog",)

    def __init__(self, catalog) -> None:
        self.catalog = catalog

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "MvcHandle()"


class ResultSet:
    """A finished query result: named, typed columns of equal length."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.tables: List[str] = []
        self.types: List[str] = []
        self.columns: List[List[Any]] = []

    def add_column(self, table: str, name: str, type_name: str,
                   values: List[Any]) -> None:
        if self.columns and len(values) != len(self.columns[0]):
            raise MalRuntimeError(
                "result set columns must have equal length: "
                f"{len(values)} vs {len(self.columns[0])}"
            )
        self.tables.append(table)
        self.names.append(name)
        self.types.append(type_name)
        self.columns.append(values)

    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def rows(self) -> List[Tuple[Any, ...]]:
        """Materialise the rows as tuples."""
        return list(zip(*self.columns)) if self.columns else []

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ResultSet({self.names}, {self.row_count()} rows)"


#: handles (the transaction context, a result set) print as oids
_HANDLE = returns(scalar_of("oid"))


@register("sql.mvc", _HANDLE)
def mvc(ctx, instr, args):
    """``sql.mvc()``: obtain the SQL transaction context handle."""
    return MvcHandle(ctx.catalog)


@register("sql.bind", DECLARED)
def bind(ctx, instr, args):
    """``sql.bind(mvc, schema, table, column, access)``: the column's BAT.

    ``access`` 0 binds the full column.  The mitosis optimizer rewrites
    plans to the 7-argument partition form
    ``sql.bind(mvc, s, t, c, access, part, nparts)``, which binds the
    part'th horizontal slice with its original head oids preserved:
    ``BAT.partitions(nparts)[part]``, a slice the column owns, so every
    run until the column changes binds the same one.
    """
    if not isinstance(args[0], MvcHandle):
        raise MalTypeError("sql.bind expects an mvc handle first")
    schema, table, column = str(args[1]), str(args[2]), str(args[3])
    bat = ctx.catalog.bind(schema, table, column)
    if len(args) <= 5:
        return bat
    part, nparts = int(args[5]), int(args[6])
    if nparts <= 0 or not (0 <= part < nparts):
        raise MalRuntimeError(f"sql.bind: bad partition {part}/{nparts}")
    return bat.partitions(nparts)[part]


@register("sql.tid", returns(OID_BAT))
def tid(ctx, instr, args):
    """``sql.tid(mvc, schema, table)``: the table's visible oids as a
    (void, oid) BAT — the candidate list of all rows, one BAT per row
    count (:meth:`Table.tid`)."""
    if not isinstance(args[0], MvcHandle):
        raise MalTypeError("sql.tid expects an mvc handle first")
    return ctx.catalog.schema(str(args[1])).table(str(args[2])).tid()


@register("sql.resultSet", _HANDLE)
def result_set(ctx, instr, args):
    """``sql.resultSet(ncols, nrows)``: start building a result set."""
    return ResultSet()


@register("sql.rsColumn", _HANDLE)
def rs_column(ctx, instr, args):
    """``sql.rsColumn(rs, table, column, type, b)``: append one column.

    Accepts a BAT (its tail is exported) or a scalar (a one-row column),
    which is how aggregates without GROUP BY are returned.
    """
    rs = args[0]
    if not isinstance(rs, ResultSet):
        raise MalTypeError("sql.rsColumn expects a result set first")
    value = args[4]
    values = list(value.tail) if isinstance(value, BAT) else [value]
    rs.add_column(str(args[1]), str(args[2]), str(args[3]), values)
    return rs


@register("sql.exportResult", returns())
def export_result(ctx, instr, args):
    """``sql.exportResult(rs)``: hand the finished result to the client."""
    rs = args[0]
    if not isinstance(rs, ResultSet):
        raise MalTypeError("sql.exportResult expects a result set")
    ctx.result_sets.append(rs)
    return None


@register("sql.single", tail_of(0, scalar_of))
def single(ctx, instr, args):
    """``sql.single(b)``: the scalar value of a one-row column.

    SQL scalar-subquery semantics: an empty input yields nil; more than
    one row is a runtime error.
    """
    bat = args[0]
    if not isinstance(bat, BAT):
        return bat  # already scalar (aggregate subquery)
    if bat.count() == 0:
        return None
    if bat.count() > 1:
        raise MalRuntimeError(
            f"scalar subquery returned {bat.count()} rows"
        )
    return bat.tail[0]


@register("sql.affectedRows", returns())
def affected_rows(ctx, instr, args):
    """``sql.affectedRows(mvc, n)``: record a DML row count."""
    ctx.affected_rows = int(args[1])
    return None


@register("sql.append", _HANDLE)
def append(ctx, instr, args):
    """``sql.append(mvc, schema, table, column, b)``: append a BAT's tail
    to a stored column (simplified single-column INSERT path)."""
    if not isinstance(args[0], MvcHandle):
        raise MalTypeError("sql.append expects an mvc handle first")
    target = ctx.catalog.bind(str(args[1]), str(args[2]), str(args[3]))
    source = args[4]
    values = source.tail if isinstance(source, BAT) else [source]
    target.extend(values)
    return args[0]
