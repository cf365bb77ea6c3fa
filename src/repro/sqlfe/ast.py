"""SQL abstract syntax tree.

Plain dataclasses; the binder decorates them (resolved column references,
bound subqueries) rather than building a second tree.  :func:`children`
is the one list of an expression's parts every walker goes over.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Tuple


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for all expression nodes."""


@dataclass
class Literal(Expression):
    """A constant: number, string, boolean, NULL or date."""

    value: Any


@dataclass
class Interval(Expression):
    """An SQL interval literal, e.g. ``interval '90' day``."""

    amount: int
    unit: str  # "day" | "month" | "year"


@dataclass
class ColumnRef(Expression):
    """A (possibly qualified) column reference.

    The binder fills ``table_key`` with the FROM-item key the reference
    resolved to, and ``column`` stays the bare column name.
    """

    column: str
    qualifier: Optional[str] = None
    table_key: Optional[str] = None

    def display(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.column}"
        return self.column


@dataclass
class BinaryOp(Expression):
    """Arithmetic, comparison or boolean binary operation."""

    op: str  # + - * / % = <> < <= > >= AND OR
    left: Expression
    right: Expression


@dataclass
class UnaryOp(Expression):
    """NOT or unary minus."""

    op: str  # NOT | -
    operand: Expression


@dataclass
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


@dataclass
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)`` with literal members."""

    operand: Expression
    items: List[Expression]
    negated: bool = False


@dataclass
class Like(Expression):
    """``expr [NOT] LIKE 'pattern'``."""

    operand: Expression
    pattern: str
    negated: bool = False


@dataclass
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)`` — uncorrelated only.

    The binder attaches the subquery's own :class:`Binder` as
    ``sub_binder`` during resolution.
    """

    operand: Expression
    select: "Select"
    negated: bool = False
    sub_binder: Any = None


@dataclass
class ScalarSubquery(Expression):
    """``(SELECT agg ...)`` used as a scalar value — uncorrelated only."""

    select: "Select"
    sub_binder: Any = None


@dataclass
class FuncCall(Expression):
    """An aggregate call: COUNT/SUM/AVG/MIN/MAX.

    ``star`` marks ``COUNT(*)``.
    """

    name: str  # lower-case
    args: List[Expression]
    star: bool = False


@dataclass
class CaseWhen(Expression):
    """``CASE WHEN c1 THEN v1 [WHEN ...] [ELSE e] END``."""

    branches: List[Tuple[Expression, Expression]]
    otherwise: Optional[Expression] = None


@dataclass
class Cast(Expression):
    """``CAST(expr AS type)``."""

    operand: Expression
    type_name: str


@dataclass
class ExtractYear(Expression):
    """``EXTRACT(YEAR FROM expr)`` — the only EXTRACT TPC-H needs."""

    operand: Expression


def children(expr: Expression) -> Iterator[Expression]:
    """The sub-expressions of ``expr`` in its own scope: a subquery's
    SELECT is not one of them, an IN-subquery's operand is."""
    if isinstance(expr, BinaryOp):
        yield expr.left
        yield expr.right
    elif isinstance(expr, (UnaryOp, IsNull, Like, Cast, ExtractYear,
                           InSubquery)):
        yield expr.operand
    elif isinstance(expr, Between):
        yield from (expr.operand, expr.low, expr.high)
    elif isinstance(expr, InList):
        yield expr.operand
        yield from expr.items
    elif isinstance(expr, FuncCall):
        yield from expr.args
    elif isinstance(expr, CaseWhen):
        for branch in expr.branches:
            yield from branch  # (condition, value)
        if expr.otherwise is not None:
            yield expr.otherwise


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass
class SelectItem:
    """One entry of the select list: an expression with optional alias."""

    expr: Expression
    alias: Optional[str] = None


@dataclass
class TableRef:
    """A FROM item: ``table [AS alias]``.

    ``key`` (alias if present, else table name) is how column references
    address it.
    """

    table: str
    alias: Optional[str] = None

    @property
    def key(self) -> str:
        return self.alias or self.table


@dataclass
class JoinCondition:
    """An explicit ``JOIN ... ON left = right`` equi-join condition."""

    left: ColumnRef
    right: ColumnRef


@dataclass
class OrderItem:
    """One ORDER BY key: expression or 1-based output position."""

    expr: Expression
    descending: bool = False


@dataclass
class Select:
    """A SELECT statement."""

    items: List[SelectItem]
    tables: List[TableRef]
    join_conditions: List[JoinCondition] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: List[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    distinct: bool = False


@dataclass
class CreateTable:
    """``CREATE TABLE name (col type, ...)``."""

    table: str
    columns: List[Tuple[str, str]]


@dataclass
class DropTable:
    """``DROP TABLE name``."""

    table: str


@dataclass
class Insert:
    """``INSERT INTO name VALUES (...), (...)``."""

    table: str
    rows: List[List[Expression]]


Statement = Any  # Select | CreateTable | DropTable | Insert
