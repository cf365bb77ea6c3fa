"""Unit tests for the SQL lexer and parser."""

import datetime

import pytest

from repro.errors import SqlParseError
from repro.sqlfe.ast import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    CreateTable,
    DropTable,
    FuncCall,
    InList,
    Insert,
    Interval,
    IsNull,
    Like,
    Literal,
    Select,
    UnaryOp,
)
from repro.sqlfe.lexer import tokenize
from repro.sqlfe.parser import parse_sql


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.kind for t in tokens[:-1]] == ["keyword"] * 3
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_lowercased(self):
        assert tokenize("LineItem")[0].text == "lineitem"

    def test_quoted_identifier_preserves_case(self):
        assert tokenize('"MyCol"')[0].text == "MyCol"

    def test_string_with_escaped_quote(self):
        assert tokenize("'it''s'")[0].text == "it's"

    def test_numbers(self):
        kinds = [t.text for t in tokenize("1 2.5 3e2 10.5e-3")[:-1]]
        assert kinds == ["1", "2.5", "3e2", "10.5e-3"]

    def test_comments_dropped(self):
        tokens = tokenize("select -- a comment\n1")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "1"]

    def test_multichar_operators(self):
        texts = [t.text for t in tokenize("<> <= >= != ||")[:-1]]
        assert texts == ["<>", "<=", ">=", "!=", "||"]

    def test_bad_character_raises(self):
        with pytest.raises(SqlParseError):
            tokenize("select @x")


class TestSelectParsing:
    def test_figure1_query(self):
        stmt = parse_sql("select l_tax from lineitem where l_partkey = 1")
        assert isinstance(stmt, Select)
        assert stmt.items[0].expr.column == "l_tax"
        assert stmt.tables[0].table == "lineitem"
        assert isinstance(stmt.where, BinaryOp) and stmt.where.op == "="

    def test_aliases(self):
        stmt = parse_sql("select l.x as y from t as l")
        assert stmt.items[0].alias == "y"
        assert stmt.tables[0].alias == "l"
        assert stmt.items[0].expr.qualifier == "l"

    def test_implicit_alias(self):
        stmt = parse_sql("select x foo from t u")
        assert stmt.items[0].alias == "foo"
        assert stmt.tables[0].alias == "u"

    def test_join_on(self):
        stmt = parse_sql("select a from t1 join t2 on t1.k = t2.k")
        assert len(stmt.tables) == 2
        assert len(stmt.join_conditions) == 1

    def test_group_by_having_order_limit(self):
        stmt = parse_sql(
            "select k, count(*) from t group by k having count(*) > 2 "
            "order by 2 desc, k asc limit 10"
        )
        assert len(stmt.group_by) == 1
        assert isinstance(stmt.having, BinaryOp)
        assert stmt.order_by[0].descending and not stmt.order_by[1].descending
        assert stmt.limit == 10

    def test_distinct(self):
        assert parse_sql("select distinct x from t").distinct

    def test_count_star(self):
        stmt = parse_sql("select count(*) from t")
        call = stmt.items[0].expr
        assert isinstance(call, FuncCall) and call.star

    def test_operator_precedence(self):
        stmt = parse_sql("select a + b * c from t")
        expr = stmt.items[0].expr
        assert expr.op == "+" and expr.right.op == "*"

    def test_boolean_precedence(self):
        stmt = parse_sql("select a from t where x = 1 or y = 2 and z = 3")
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_parentheses_override(self):
        stmt = parse_sql("select (a + b) * c from t")
        assert stmt.items[0].expr.op == "*"

    def test_between(self):
        stmt = parse_sql("select a from t where a between 1 and 10")
        assert isinstance(stmt.where, Between)

    def test_not_between(self):
        stmt = parse_sql("select a from t where a not between 1 and 10")
        assert stmt.where.negated

    def test_in_list(self):
        stmt = parse_sql("select a from t where a in (1, 2, 3)")
        assert isinstance(stmt.where, InList)
        assert len(stmt.where.items) == 3

    def test_like(self):
        stmt = parse_sql("select a from t where s like '%x%'")
        assert isinstance(stmt.where, Like)
        assert stmt.where.pattern == "%x%"

    def test_is_null(self):
        stmt = parse_sql("select a from t where a is not null")
        assert isinstance(stmt.where, IsNull) and stmt.where.negated

    def test_date_literal(self):
        stmt = parse_sql("select a from t where d < date '1998-12-01'")
        assert stmt.where.right.value == datetime.date(1998, 12, 1)

    def test_interval_arithmetic(self):
        stmt = parse_sql(
            "select a from t where d <= date '1998-12-01' - interval '90' day"
        )
        right = stmt.where.right
        assert right.op == "-" and isinstance(right.right, Interval)
        assert right.right.amount == 90 and right.right.unit == "day"

    def test_case_when(self):
        stmt = parse_sql(
            "select case when a > 1 then 'big' else 'small' end from t"
        )
        expr = stmt.items[0].expr
        assert isinstance(expr, CaseWhen)
        assert expr.otherwise.value == "small"

    def test_negative_literal_folded(self):
        stmt = parse_sql("select a from t where a > -5")
        assert stmt.where.right.value == -5

    def test_exponent_is_part_of_the_number(self):
        stmt = parse_sql("select 1e3 from region where r_regionkey < 1e1")
        assert stmt.items[0].expr.value == 1000.0
        assert stmt.items[0].alias is None  # not ``1`` aliased ``e3``
        assert stmt.where.right.value == 10.0
        assert parse_sql("select 2E-2 x from t").items[0].expr.value == 0.02

    def test_unary_not(self):
        stmt = parse_sql("select a from t where not a = 1")
        assert isinstance(stmt.where, UnaryOp) and stmt.where.op == "NOT"


class TestOtherStatements:
    def test_create_table(self):
        stmt = parse_sql(
            "create table t (a integer, b varchar(10), c decimal(15,2))"
        )
        assert isinstance(stmt, CreateTable)
        assert stmt.columns == [
            ("a", "integer"), ("b", "varchar(10)"), ("c", "decimal(15,2)")
        ]

    def test_drop_table(self):
        stmt = parse_sql("drop table t")
        assert isinstance(stmt, DropTable) and stmt.table == "t"

    def test_insert_values(self):
        stmt = parse_sql("insert into t values (1, 'a'), (2, 'b')")
        assert isinstance(stmt, Insert)
        assert len(stmt.rows) == 2
        assert stmt.rows[1][1].value == "b"


class TestParseErrors:
    def test_missing_from(self):
        with pytest.raises(SqlParseError):
            parse_sql("select 1")

    def test_trailing_garbage(self):
        with pytest.raises(SqlParseError):
            parse_sql("select a from t where a = 1 42")

    def test_limit_requires_integer(self):
        with pytest.raises(SqlParseError):
            parse_sql("select a from t limit 1.5")

    def test_bad_date(self):
        with pytest.raises(SqlParseError):
            parse_sql("select a from t where d = date 'tomorrow'")

    def test_like_requires_string(self):
        with pytest.raises(SqlParseError):
            parse_sql("select a from t where s like 5")

    def test_empty_case(self):
        with pytest.raises(SqlParseError):
            parse_sql("select case end from t")

    @pytest.mark.parametrize("sql", ["select .5 from t", "select 5. from t",
                                     "select a from t limit 1e1"])
    def test_a_number_needs_digits_on_both_sides_of_its_point(self, sql):
        with pytest.raises(SqlParseError):
            parse_sql(sql)
