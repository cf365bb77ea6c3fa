"""Name resolution and type inference for SQL expressions.

The binder resolves every :class:`~repro.sqlfe.ast.ColumnRef` against the
FROM clause (filling ``table_key``), rejects unknown and ambiguous names,
and infers a MAL atom type for every expression — which the code
generator uses for casts, result metadata and date/interval arithmetic.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict

from repro.errors import BindError, TypeMismatchError
from repro.sqlfe.ast import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    ExtractYear,
    Expression,
    FuncCall,
    InList,
    InSubquery,
    Interval,
    IsNull,
    Like,
    Literal,
    ScalarSubquery,
    Select,
    UnaryOp,
)
from repro.storage.catalog import Catalog, Table, _sql_type_to_mal
from repro.storage.types import (
    BIT,
    DATE,
    DBL,
    INT,
    LNG,
    MalType,
    infer_type,
    promote,
)


class Binder:
    """Resolves one SELECT's names against a catalog."""

    def __init__(self, catalog: Catalog, select: Select,
                 schema: str = "sys") -> None:
        self.catalog = catalog
        self.schema = schema
        self.select = select
        self.tables: Dict[str, Table] = {}
        for ref in select.tables:
            if ref.key in self.tables:
                raise BindError(f"duplicate table key {ref.key!r} in FROM")
            self.tables[ref.key] = catalog.schema(schema).table(ref.table)

    # ------------------------------------------------------------------

    def bind(self) -> None:
        """Resolve every expression reachable from the SELECT."""
        for item in self.select.items:
            self.resolve(item.expr)
        for condition in self.select.join_conditions:
            self.resolve(condition.left)
            self.resolve(condition.right)
        if self.select.where is not None:
            self.resolve(self.select.where)
        for expr in self.select.group_by:
            self.resolve(expr)
        if self.select.having is not None:
            self.resolve(self.select.having)
        for order in self.select.order_by:
            if not self._is_positional(order.expr) and not self._is_alias(
                order.expr
            ):
                self.resolve(order.expr)

    def _is_positional(self, expr: Expression) -> bool:
        return isinstance(expr, Literal) and isinstance(expr.value, int)

    def _is_alias(self, expr: Expression) -> bool:
        if not isinstance(expr, ColumnRef) or expr.qualifier:
            return False
        aliases = {item.alias for item in self.select.items if item.alias}
        return expr.column in aliases

    # ------------------------------------------------------------------

    def resolve(self, expr: Expression) -> None:
        """Fill in ``table_key`` on every ColumnRef under ``expr``."""
        if isinstance(expr, ColumnRef):
            self._resolve_column(expr)
        elif isinstance(expr, BinaryOp):
            self.resolve(expr.left)
            self.resolve(expr.right)
        elif isinstance(expr, UnaryOp):
            self.resolve(expr.operand)
        elif isinstance(expr, (IsNull, Like, Cast, ExtractYear)):
            self.resolve(expr.operand)
        elif isinstance(expr, Between):
            self.resolve(expr.operand)
            self.resolve(expr.low)
            self.resolve(expr.high)
        elif isinstance(expr, InList):
            self.resolve(expr.operand)
            for item in expr.items:
                self.resolve(item)
        elif isinstance(expr, FuncCall):
            for arg in expr.args:
                self.resolve(arg)
        elif isinstance(expr, CaseWhen):
            for condition, value in expr.branches:
                self.resolve(condition)
                self.resolve(value)
            if expr.otherwise is not None:
                self.resolve(expr.otherwise)
        elif isinstance(expr, InSubquery):
            self.resolve(expr.operand)
            expr.sub_binder = self._bind_subquery(expr.select)
        elif isinstance(expr, ScalarSubquery):
            expr.sub_binder = self._bind_subquery(expr.select)
        # Literal / Interval need nothing

    def _bind_subquery(self, select: Select) -> "Binder":
        """Bind an uncorrelated subquery in its own scope.

        Correlation (references to the outer FROM) is not supported and
        surfaces as an unknown-column BindError from the inner scope.
        """
        sub_binder = Binder(self.catalog, select, self.schema)
        sub_binder.bind()
        return sub_binder

    def _resolve_column(self, ref: ColumnRef) -> None:
        if ref.table_key is not None:
            return
        if ref.qualifier is not None:
            if ref.qualifier not in self.tables:
                raise BindError(f"unknown table or alias {ref.qualifier!r}")
            table = self.tables[ref.qualifier]
            table.column(ref.column)  # raises CatalogError if missing
            ref.table_key = ref.qualifier
            return
        matches = [
            key for key, table in self.tables.items()
            if ref.column.lower() in table.columns
        ]
        if not matches:
            raise BindError(f"unknown column {ref.column!r}")
        if len(matches) > 1:
            raise BindError(
                f"ambiguous column {ref.column!r} (in {', '.join(matches)})"
            )
        ref.table_key = matches[0]

    # ------------------------------------------------------------------
    # type inference
    # ------------------------------------------------------------------

    def type_of(self, expr: Expression) -> MalType:
        """Infer the MAL atom type of a bound expression."""
        if isinstance(expr, Literal):
            if expr.value is None:
                return INT  # nil literal: type is contextual; int is benign
            return infer_type(expr.value)
        if isinstance(expr, Interval):
            return INT
        if isinstance(expr, ColumnRef):
            if expr.table_key is None:
                raise BindError(f"unresolved column {expr.display()!r}")
            return self.tables[expr.table_key].column(expr.column).mal_type
        if isinstance(expr, BinaryOp):
            if expr.op in ("AND", "OR", "=", "<>", "<", "<=", ">", ">="):
                return BIT
            left, right = self.type_of(expr.left), self.type_of(expr.right)
            if expr.op == "/":
                return DBL
            if DATE in (left, right):
                return DATE  # date +/- interval
            try:
                return promote(left, right)
            except Exception:
                raise BindError(
                    f"operator {expr.op!r} over {left.name}/{right.name}"
                ) from None
        if isinstance(expr, UnaryOp):
            if expr.op == "NOT":
                return BIT
            return self.type_of(expr.operand)
        if isinstance(expr, (IsNull, Between, InList, Like, InSubquery)):
            return BIT
        if isinstance(expr, ScalarSubquery):
            if expr.sub_binder is None:
                raise BindError("scalar subquery used before binding")
            return expr.sub_binder.type_of(expr.select.items[0].expr)
        if isinstance(expr, FuncCall):
            if expr.name == "count":
                return LNG
            if expr.name == "avg":
                return DBL
            return self.type_of(expr.args[0])
        if isinstance(expr, CaseWhen):
            # promoted over every branch and the ELSE, as the nest of
            # batcalc.ifthenelse is: a nil takes the others' type
            values = [value for _cond, value in expr.branches]
            types = [self.type_of(value) for value in values + [expr.otherwise]
                     if not (value is None or isinstance(value, Literal)
                             and value.value is None)] or [INT]
            try:
                return types[0] if all(t is types[0] for t in types) \
                    else reduce(promote, types)
            except TypeMismatchError:
                raise BindError(f"CASE over {', '.join(t.name for t in types)}"
                                ) from None
        if isinstance(expr, Cast):
            return _sql_type_to_mal(expr.type_name)
        if isinstance(expr, ExtractYear):
            return INT
        raise BindError(f"cannot type expression {expr!r}")


def contains_aggregate(expr: Expression) -> bool:
    """True when any FuncCall aggregate occurs under ``expr``."""
    if isinstance(expr, FuncCall):
        return True
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, (IsNull, Like, Cast, ExtractYear)):
        return contains_aggregate(expr.operand)
    if isinstance(expr, Between):
        return any(
            contains_aggregate(e) for e in (expr.operand, expr.low, expr.high)
        )
    if isinstance(expr, InList):
        return contains_aggregate(expr.operand) or any(
            contains_aggregate(e) for e in expr.items
        )
    if isinstance(expr, CaseWhen):
        parts = [c for c, _v in expr.branches] + [v for _c, v in expr.branches]
        if expr.otherwise is not None:
            parts.append(expr.otherwise)
        return any(contains_aggregate(p) for p in parts)
    return False
