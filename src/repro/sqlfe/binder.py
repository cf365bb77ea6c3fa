"""Name resolution for SQL statements.

The binder resolves every :class:`~repro.sqlfe.ast.ColumnRef` against the
FROM clause (filling ``table_key``), rejects unknown and ambiguous names,
and binds every uncorrelated subquery in its own scope.  It decides no
type: a result set's types are its plan's, which the kernels' signatures
decide (:mod:`repro.mal.modules`).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import BindError
from repro.sqlfe.ast import (
    ColumnRef,
    Expression,
    InSubquery,
    Literal,
    ScalarSubquery,
    Select,
    children,
)
from repro.storage.catalog import Catalog, Table


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
        """Fill in ``table_key`` on every ColumnRef under ``expr`` and
        bind every subquery under it."""
        for child in children(expr):
            self.resolve(child)
        if isinstance(expr, ColumnRef):
            self._resolve_column(expr)
        elif isinstance(expr, (InSubquery, ScalarSubquery)):
            expr.sub_binder = self._bind_subquery(expr.select)

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
