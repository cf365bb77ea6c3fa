"""SQL parser: recursive descent over statements and clauses,
precedence climbing over expressions.

Entry point :func:`parse_sql` returns one statement per input string
(trailing semicolon optional).  Errors raise
:class:`~repro.errors.SqlParseError` with the offending token.
"""

from __future__ import annotations

import datetime
from typing import List, Optional

from repro.errors import SqlParseError
from repro.sqlfe.ast import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    CreateTable,
    DropTable,
    ExtractYear,
    FuncCall,
    InList,
    InSubquery,
    Insert,
    Interval,
    IsNull,
    JoinCondition,
    Like,
    Literal,
    OrderItem,
    ScalarSubquery,
    Select,
    SelectItem,
    Statement,
    TableRef,
    UnaryOp,
)
from repro.sqlfe.lexer import Token, tokenize

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_KEYWORD_LITERALS = {"TRUE": True, "FALSE": False, "NULL": None}

#: How tightly each infix token binds, loosest first.  A predicate (a
#: comparison, ``[NOT] BETWEEN / IN / LIKE`` or ``IS [NOT] NULL``) does
#: not chain — ``a = b = c`` is an error — and a prefix NOT takes one
#: whole predicate; unary minus binds tighter than every infix operator.
_OR, _AND, _NOT, _PREDICATE, _ADDITIVE, _MULTIPLICATIVE, _UNARY = range(1, 8)
_INFIX = {
    "OR": _OR, "AND": _AND,
    "=": _PREDICATE, "<>": _PREDICATE, "!=": _PREDICATE, "<": _PREDICATE,
    "<=": _PREDICATE, ">": _PREDICATE, ">=": _PREDICATE,
    "NOT": _PREDICATE, "BETWEEN": _PREDICATE, "IN": _PREDICATE,
    "LIKE": _PREDICATE, "IS": _PREDICATE,
    "+": _ADDITIVE, "-": _ADDITIVE,
    "*": _MULTIPLICATIVE, "/": _MULTIPLICATIVE, "%": _MULTIPLICATIVE,
}


class _Parser:
    def __init__(self, sql: str) -> None:
        self.tokens = tokenize(sql)
        self.index = 0

    # -- token plumbing --------------------------------------------------

    def peek(self) -> Token:
        """The current token; the ``eof`` sentinel is never advanced
        past, so the index needs no bound."""
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def error(self, message: str) -> SqlParseError:
        token = self.peek()
        return SqlParseError(f"{message} (near {token.text!r})")

    # A keyword, operator or name is never the sentinel, so accepting
    # one steps over it without asking :meth:`advance`.

    def accept_keyword(self, *words: str) -> Optional[Token]:
        token = self.tokens[self.index]
        if token.kind == "keyword" and token.text in words:
            self.index += 1
            return token
        return None

    def expect_keyword(self, *words: str) -> Token:
        token = self.accept_keyword(*words)
        if token is None:
            raise self.error(f"expected {' or '.join(words)}")
        return token

    def accept_op(self, text: str) -> Optional[Token]:
        token = self.tokens[self.index]
        if token.kind == "op" and token.text == text:
            self.index += 1
            return token
        return None

    def expect_op(self, text: str) -> Token:
        token = self.accept_op(text)
        if token is None:
            raise self.error(f"expected {text!r}")
        return token

    def expect_name(self) -> str:
        token = self.tokens[self.index]
        if token.kind != "name":
            raise self.error("expected identifier")
        self.index += 1
        return token.text

    # -- statements --------------------------------------------------------

    def parse_statement(self) -> Statement:
        if self.peek().is_keyword("SELECT"):
            stmt = self.parse_select()
        elif self.peek().is_keyword("CREATE"):
            stmt = self.parse_create()
        elif self.peek().is_keyword("DROP"):
            stmt = self.parse_drop()
        elif self.peek().is_keyword("INSERT"):
            stmt = self.parse_insert()
        else:
            raise self.error("expected SELECT, CREATE, DROP or INSERT")
        self.accept_op(";")
        if self.peek().kind != "eof":
            raise self.error("trailing input after statement")
        return stmt

    def parse_create(self) -> CreateTable:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        table = self.expect_name()
        self.expect_op("(")
        columns = []
        while True:
            name = self.expect_name()
            type_name = self._parse_type_name()
            columns.append((name, type_name))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return CreateTable(table, columns)

    def _parse_type_name(self) -> str:
        token = self.peek()
        if token.kind == "name":
            base = self.advance().text
        elif token.is_keyword("DATE"):
            self.advance()
            base = "date"
        else:
            raise self.error("expected type name")
        if self.accept_op("("):
            parts = [self.advance().text]
            while self.accept_op(","):
                parts.append(self.advance().text)
            self.expect_op(")")
            base += "(" + ",".join(parts) + ")"
        return base

    def parse_drop(self) -> DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        return DropTable(self.expect_name())

    def parse_insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_name()
        self.expect_keyword("VALUES")
        rows = []
        while True:
            self.expect_op("(")
            row = [self.parse_expression()]
            while self.accept_op(","):
                row.append(self.parse_expression())
            self.expect_op(")")
            rows.append(row)
            if not self.accept_op(","):
                break
        return Insert(table, rows)

    def parse_select(self) -> Select:
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        items = [self._parse_select_item()]
        while self.accept_op(","):
            items.append(self._parse_select_item())
        self.expect_keyword("FROM")
        tables = [self._parse_table_ref()]
        join_conditions: List[JoinCondition] = []
        while True:
            if self.accept_op(","):
                tables.append(self._parse_table_ref())
            elif self.peek().is_keyword("JOIN", "INNER"):
                self.accept_keyword("INNER")
                self.expect_keyword("JOIN")
                tables.append(self._parse_table_ref())
                self.expect_keyword("ON")
                left = self._parse_column_ref()
                self.expect_op("=")
                right = self._parse_column_ref()
                join_conditions.append(JoinCondition(left, right))
            else:
                break
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        group_by: List = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self.accept_op(","):
                group_by.append(self.parse_expression())
        having = None
        if self.accept_keyword("HAVING"):
            having = self.parse_expression()
        order_by: List[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self.accept_op(","):
                order_by.append(self._parse_order_item())
        limit = None
        offset = 0
        if self.accept_keyword("LIMIT"):
            token = self.peek()
            if token.kind != "number" or not token.text.isdigit():
                raise self.error("LIMIT expects an integer")
            limit = int(self.advance().text)
            if self.accept_keyword("OFFSET"):
                token = self.peek()
                if token.kind != "number" or not token.text.isdigit():
                    raise self.error("OFFSET expects an integer")
                offset = int(self.advance().text)
        return Select(items, tables, join_conditions, where, group_by,
                      having, order_by, limit, offset, distinct)

    def _parse_select_item(self) -> SelectItem:
        expr = self.parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_name()
        elif self.peek().kind == "name":
            alias = self.advance().text
        return SelectItem(expr, alias)

    def _parse_table_ref(self) -> TableRef:
        table = self.expect_name()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_name()
        elif self.peek().kind == "name":
            alias = self.advance().text
        return TableRef(table, alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expression()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return OrderItem(expr, descending)

    def _parse_column_ref(self) -> ColumnRef:
        first = self.expect_name()
        if self.accept_op("."):
            return ColumnRef(self.expect_name(), qualifier=first)
        return ColumnRef(first)

    # -- expressions -------------------------------------------------------

    def parse_expression(self, tightest: int = _OR):
        """An expression whose infix operators all bind at least as
        tightly as ``tightest``.

        ``loosest`` bounds what may still take ``left`` as its left
        operand: anything after a primary or a unary minus; only AND
        and OR after a prefix NOT or a predicate; and after a binary
        operator nothing tighter than it, which its right operand would
        have consumed had it not stopped at such a predicate.
        """
        token = self.tokens[self.index]
        text = token.text
        loosest = _UNARY
        if token.kind == "op" and text == "-":
            self.index += 1
            left = self.parse_expression(_UNARY)
            if isinstance(left, Literal) and isinstance(
                left.value, (int, float)
            ):
                left = Literal(-left.value)
            else:
                left = UnaryOp("-", left)
        elif token.kind == "keyword" and text == "NOT" and tightest <= _NOT:
            self.index += 1
            left = UnaryOp("NOT", self.parse_expression(_NOT))
            loosest = _AND
        else:
            left = self._parse_primary()
        while True:
            token = self.tokens[self.index]
            text = token.text
            level = _INFIX.get(text)
            if level is None or level < tightest or level > loosest \
                    or token.kind == "string" or token.kind == "name":
                return left  # (``'AND'`` and ``"AND"`` are no operators)
            if level == _PREDICATE:
                left = self._parse_predicate(left)
                loosest = _AND
            else:
                self.index += 1
                left = BinaryOp(text, left, self.parse_expression(level + 1))
                loosest = level

    def _parse_predicate(self, left):
        """What may follow the left operand of a predicate."""
        token = self.peek()
        if token.kind == "op":
            op = self.advance().text
            if op == "!=":
                op = "<>"
            return BinaryOp(op, left, self.parse_expression(_ADDITIVE))
        negated = bool(self.accept_keyword("NOT"))
        if self.accept_keyword("BETWEEN"):
            low = self.parse_expression(_ADDITIVE)
            self.expect_keyword("AND")
            high = self.parse_expression(_ADDITIVE)
            return Between(left, low, high, negated)
        if self.accept_keyword("IN"):
            self.expect_op("(")
            if self.peek().is_keyword("SELECT"):
                sub_select = self.parse_select()
                self.expect_op(")")
                return InSubquery(left, sub_select, negated)
            items = [self.parse_expression()]
            while self.accept_op(","):
                items.append(self.parse_expression())
            self.expect_op(")")
            return InList(left, items, negated)
        if self.accept_keyword("LIKE"):
            token = self.peek()
            if token.kind != "string":
                raise self.error("LIKE expects a string literal pattern")
            return Like(left, self.advance().text, negated)
        if self.accept_keyword("IS"):
            is_negated = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return IsNull(left, is_negated)
        raise self.error("expected BETWEEN, IN or LIKE after NOT")

    def _parse_primary(self):
        token = self.tokens[self.index]
        kind = token.kind
        if kind == "name":
            return self._parse_column_ref()
        if kind == "number":
            self.index += 1
            text = token.text
            return Literal(int(text) if text.isdigit() else float(text))
        if kind == "string":
            self.index += 1
            return Literal(token.text)
        if kind == "keyword":
            word = token.text
            if word in _AGGREGATES:
                self.index += 1
                name = word.lower()
                self.expect_op("(")
                if name == "count" and self.accept_op("*"):
                    self.expect_op(")")
                    return FuncCall(name, [], star=True)
                self.accept_keyword("DISTINCT")  # parsed, handled by binder
                args = [self.parse_expression()]
                self.expect_op(")")
                return FuncCall(name, args)
            if word in _KEYWORD_LITERALS:
                self.index += 1
                return Literal(_KEYWORD_LITERALS[word])
            if word == "DATE":
                self.index += 1
                text_token = self.peek()
                if text_token.kind != "string":
                    raise self.error("DATE expects a quoted ISO date")
                self.advance()
                try:
                    return Literal(
                        datetime.date.fromisoformat(text_token.text))
                except ValueError:
                    raise self.error(
                        f"bad date literal {text_token.text!r}")
            if word == "INTERVAL":
                self.index += 1
                amount = self.peek()
                try:
                    if amount.kind not in ("string", "number"):
                        raise ValueError
                    count = int(amount.text)
                except ValueError:
                    raise self.error("INTERVAL expects a number")
                self.advance()
                unit = self.expect_keyword("DAY", "MONTH", "YEAR")
                return Interval(count, unit.text.lower())
            if word == "CASE":
                return self._parse_case()
            if word == "CAST":
                self.index += 1
                self.expect_op("(")
                operand = self.parse_expression()
                self.expect_keyword("AS")
                type_name = self._parse_type_name()
                self.expect_op(")")
                return Cast(operand, type_name)
            if word == "EXTRACT":
                self.index += 1
                self.expect_op("(")
                self.expect_keyword("YEAR")
                self.expect_keyword("FROM")
                operand = self.parse_expression()
                self.expect_op(")")
                return ExtractYear(operand)
        elif kind == "op" and token.text == "(":
            self.index += 1
            if self.peek().is_keyword("SELECT"):
                sub_select = self.parse_select()
                self.expect_op(")")
                return ScalarSubquery(sub_select)
            expr = self.parse_expression()
            self.expect_op(")")
            return expr
        raise self.error("expected expression")

    def _parse_case(self):
        self.expect_keyword("CASE")
        branches = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expression()
            self.expect_keyword("THEN")
            branches.append((condition, self.parse_expression()))
        otherwise = None
        if self.accept_keyword("ELSE"):
            otherwise = self.parse_expression()
        self.expect_keyword("END")
        if not branches:
            raise self.error("CASE needs at least one WHEN branch")
        return CaseWhen(branches, otherwise)


def parse_sql(sql: str) -> Statement:
    """Parse one SQL statement.

    Raises:
        SqlParseError: on any syntax error.
    """
    return _Parser(sql).parse_statement()
