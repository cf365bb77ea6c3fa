"""SQL → MAL code generation.

The generated plans follow MonetDB's column-at-a-time style:

* per-table *candidate lists* (BATs of qualifying oids) built by chaining
  ``algebra.select`` / ``algebra.thetaselect`` / ``algebra.semijoin``;
* projections as ``algebra.leftjoin`` of a candidate/row map against the
  bound column;
* equi-joins as ``algebra.join`` over value columns with
  ``algebra.markT`` renumbering producing per-table row maps;
* grouping as ``group.new`` / ``group.derive`` chains feeding grouped
  ``aggr.*``;
* ordering as stable ``algebra.sortTail`` passes (least-significant key
  first) composed into a permutation BAT;
* result delivery through ``sql.resultSet`` / ``sql.rsColumn`` /
  ``sql.exportResult``.

The output of :func:`compile_sql` is an *unoptimized* plan, as produced by
MonetDB's SQL compiler; run it through an optimizer
:class:`~repro.mal.optimizer.Pipeline` to get the plan the server would
actually execute (and whose dot file the Stethoscope displays).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import SqlError
from repro.mal.ast import Const, MalProgram, Var, bat_of
from repro.mal.modules import column_atom, lookup
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
    children,
)
from repro.sqlfe.binder import Binder
from repro.sqlfe.parser import parse_sql
from repro.storage.catalog import Catalog, _sql_type_to_mal
from repro.storage.types import nil

_CMP_TO_THETA = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
#: the calc/batcalc function of each binary operator
_CALC = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
         "=": "eq", "<>": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
         "AND": "and", "OR": "or"}


@dataclass
class OutputColumn:
    """One column of the final result set."""

    name: str
    value: Union[Var, Const]
    is_scalar: bool


class SqlCompiler:
    """Compiles SELECT statements to MAL programs against a catalog."""

    def __init__(self, catalog: Catalog, schema: str = "sys") -> None:
        self.catalog = catalog
        self.schema = schema
        self._query_counter = 0

    def compile(self, statement) -> MalProgram:
        """Compile a parsed statement (currently SELECT only) to MAL."""
        if isinstance(statement, Select):
            self._query_counter += 1
            return _SelectCompiler(
                self.catalog, self.schema, statement,
                f"user.s{self._query_counter}_1",
            ).compile()
        raise SqlError(
            f"only SELECT compiles to MAL; got {type(statement).__name__}"
        )

    def compile_text(self, sql: str) -> MalProgram:
        """Parse and compile one SELECT statement."""
        return self.compile(parse_sql(sql))


def compile_sql(catalog: Catalog, sql: str) -> MalProgram:
    """One-shot convenience wrapper over :class:`SqlCompiler`."""
    return SqlCompiler(catalog).compile_text(sql)


class _SelectCompiler:
    """Stateful single-statement compilation (one instance per SELECT)."""

    def __init__(self, catalog: Catalog, schema: str, select: Select,
                 name: str, program: Optional[MalProgram] = None,
                 binder: Optional[Binder] = None,
                 mvc: Optional[Var] = None) -> None:
        self.catalog = catalog
        self.schema = schema
        self.select = select
        self.binder = binder or Binder(catalog, select, schema)
        # nested subquery compilers share the enclosing program so that
        # variable names stay unique across the whole plan
        self.program = program or MalProgram(name, {"autoCommit": True})
        self.mvc: Optional[Var] = mvc
        self._bind_cache: Dict[Tuple[str, str], Var] = {}
        self._candidates: Dict[str, Var] = {}
        self._space: Optional[_RowSpace] = None

    # ------------------------------------------------------------------
    # emission helpers
    # ------------------------------------------------------------------

    def emit(self, module: str, function: str, args: Sequence) -> Var:
        """Append ``result := module.function(args)`` and return the
        fresh result variable, typed by the kernel's signature."""
        return self.program.call(module, function, args)

    def is_bat(self, value) -> bool:
        return value.__class__ is Var \
            and self.program.var_types[value.name].kind == "bat"

    def bind_column(self, table_key: str, column: str) -> Var:
        """``sql.bind`` for a column, cached per (table, column)."""
        cached = self._bind_cache.get((table_key, column))
        if cached is not None:
            return cached
        table = self.binder.tables[table_key]
        # the one result type the plan states: the catalog column's
        var = self.program.call(
            "sql", "bind",
            [self.mvc, Const(self.schema), Const(table.name), Const(column),
             Const(0)],
            bat_of(table.column(column).mal_type),
        )
        self._bind_cache[(table_key, column)] = var
        return var

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def compile(self) -> MalProgram:
        self.binder.bind()
        self.mvc = self.emit("sql", "mvc", [])
        outputs = self._compile_body()
        self._emit_result(outputs)
        return self.program

    def compile_subquery(self) -> OutputColumn:
        """Compile as an uncorrelated subquery inside the enclosing
        program (already bound by the outer binder): returns the single
        output column instead of emitting result-set delivery."""
        if len(self.select.items) != 1:
            raise SqlError("a subquery must produce exactly one column")
        outputs = self._compile_body()
        return outputs[0]

    def _compile_body(self) -> List[OutputColumn]:
        select = self.select
        if select.distinct:
            if select.group_by or self._has_aggregates():
                raise SqlError("DISTINCT with aggregates is not supported")
            select.group_by = [item.expr for item in select.items]
        join_edges, table_filters, residuals = self._classify_where()
        for ref in select.tables:
            self._build_candidate(ref.key, table_filters.get(ref.key, []))
        self._build_joins(join_edges)
        self._apply_residuals(residuals)
        grouped = bool(select.group_by) or self._has_aggregates()
        if grouped:
            outputs, order_keys = self._compile_grouped()
        else:
            outputs, order_keys = self._compile_plain()
        outputs = self._apply_ordering(outputs, order_keys)
        return self._apply_limit(outputs)

    def _has_aggregates(self) -> bool:
        select = self.select
        if any(_contains_aggregate(i.expr) for i in select.items):
            return True
        if select.having is not None and _contains_aggregate(select.having):
            return True
        return False

    # ------------------------------------------------------------------
    # WHERE classification
    # ------------------------------------------------------------------

    def _classify_where(self):
        join_edges: List[Tuple[ColumnRef, ColumnRef]] = [
            (c.left, c.right) for c in self.select.join_conditions
        ]
        table_filters: Dict[str, List[Expression]] = {}
        residuals: List[Expression] = []
        for conjunct in _split_conjuncts(self.select.where):
            edge = self._as_join_edge(conjunct)
            if edge is not None:
                join_edges.append(edge)
                continue
            keys = _tables_of(conjunct)
            if len(keys) == 1:
                table_filters.setdefault(next(iter(keys)), []).append(conjunct)
            else:
                residuals.append(conjunct)
        return join_edges, table_filters, residuals

    @staticmethod
    def _as_join_edge(expr: Expression):
        if (
            isinstance(expr, BinaryOp) and expr.op == "="
            and isinstance(expr.left, ColumnRef)
            and isinstance(expr.right, ColumnRef)
            and expr.left.table_key != expr.right.table_key
        ):
            return (expr.left, expr.right)
        return None

    # ------------------------------------------------------------------
    # candidates
    # ------------------------------------------------------------------

    def _build_candidate(self, table_key: str,
                         filters: List[Expression]) -> None:
        cand: Optional[Var] = None
        deferred: List[Expression] = []
        for predicate in filters:
            simple = self._try_simple_selection(table_key, predicate, cand)
            if simple is not None:
                cand = simple
            else:
                deferred.append(predicate)
        if cand is None:
            table = self.binder.tables[table_key]
            cand = self.emit("sql", "tid", [self.mvc, Const(self.schema),
                                             Const(table.name)])
        for predicate in deferred:
            sel = self._filter_by_bit(
                predicate, _RowSpace(self, {table_key: cand}))
            cand = self.emit("algebra", "semijoin", [cand, sel])
        self._candidates[table_key] = cand
        self._space = _RowSpace(self, dict(self._candidates))

    def _try_simple_selection(self, table_key: str, predicate: Expression,
                              cand: Optional[Var]) -> Optional[Var]:
        """Emit a pushable predicate as a selection chain; None if the
        predicate is not of simple (column vs constants) shape."""
        parts = self._simple_parts(predicate)
        if parts is None:
            return None
        column, kind, payload = parts
        col_bat = self.bind_column(table_key, column)
        source = col_bat if cand is None else self.emit(
            "algebra", "leftjoin", [cand, col_bat])
        if kind == "theta":
            value, op = payload
            if op == "=":
                sel = self.emit("algebra", "select", [source, Const(value)])
            else:
                sel = self.emit("algebra", "thetaselect", [
                    source, Const(value), Const(_CMP_TO_THETA[op])])
        elif kind == "range":
            low, high = payload
            sel = self.emit("algebra", "select",
                            [source, Const(low), Const(high)])
        else:  # like
            sel = self.emit("algebra", "likeselect", [source, Const(payload)])
        if cand is None:
            return self.emit("bat", "mirror", [sel])
        return self.emit("algebra", "semijoin", [cand, sel])

    def _simple_parts(self, predicate: Expression):
        """Decompose a predicate into (column, kind, payload) when it is a
        single column against compile-time constants."""
        if isinstance(predicate, BinaryOp) and predicate.op in _CMP_TO_THETA:
            left_col = isinstance(predicate.left, ColumnRef)
            right_col = isinstance(predicate.right, ColumnRef)
            if left_col and not right_col:
                value = _const_eval(predicate.right)
                if value is not _NOT_CONST:
                    return predicate.left.column, "theta", (value, predicate.op)
            if right_col and not left_col:
                value = _const_eval(predicate.left)
                if value is not _NOT_CONST:
                    return (predicate.right.column, "theta",
                            (value, _FLIP[predicate.op]))
            return None
        if isinstance(predicate, Between) and not predicate.negated and \
                isinstance(predicate.operand, ColumnRef):
            low = _const_eval(predicate.low)
            high = _const_eval(predicate.high)
            if low is not _NOT_CONST and high is not _NOT_CONST:
                return predicate.operand.column, "range", (low, high)
            return None
        if isinstance(predicate, Like) and not predicate.negated and \
                isinstance(predicate.operand, ColumnRef):
            return predicate.operand.column, "like", predicate.pattern
        return None

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------

    def _build_joins(self, edges: List[Tuple[ColumnRef, ColumnRef]]) -> None:
        keys = [ref.key for ref in self.select.tables]
        if len(keys) == 1:
            if edges:
                raise SqlError("join condition over a single table")
            return
        joined: Set[str] = {keys[0]}
        remaining = list(edges)
        post_filters: List[Tuple[ColumnRef, ColumnRef]] = []
        while len(joined) < len(keys):
            progress = False
            for edge in list(remaining):
                left, right = edge
                lin, rin = left.table_key in joined, right.table_key in joined
                if lin and rin:
                    post_filters.append(edge)
                    remaining.remove(edge)
                    progress = True
                elif lin or rin:
                    if rin:
                        left, right = right, left
                    self._join_step(left, right, joined)
                    joined.add(right.table_key)
                    remaining.remove(edge)
                    progress = True
            if not progress:
                missing = [k for k in keys if k not in joined]
                raise SqlError(
                    f"no join condition connects tables: {', '.join(missing)}"
                )
        for edge in remaining:
            post_filters.append(edge)
        for left, right in post_filters:
            self._apply_residuals([BinaryOp("=", left, right)])

    def _join_step(self, inner: ColumnRef, outer: ColumnRef,
                   joined: Set[str]) -> None:
        """Join the already-joined row space (via ``inner``) with the fresh
        table referenced by ``outer``.

        Only the maps of the ``joined`` tables follow the new rows: the
        map of a table not joined yet is never read before the step that
        joins it in replaces it.  Each one skipped still draws the name
        its ``leftjoin`` had, so every later variable keeps its number."""
        inner_vals = self._space.leaf(inner)
        outer_cand = self._candidates[outer.table_key]
        outer_col = self.bind_column(outer.table_key, outer.column)
        outer_vals = self.emit("algebra", "leftjoin", [outer_cand, outer_col])
        reversed_outer = self.emit("bat", "reverse", [outer_vals])
        pairs = self.emit("algebra", "join", [inner_vals, reversed_outer])
        new_outer_map = self.emit("algebra", "markT", [pairs, Const(0)])
        reversed_pairs = self.emit("bat", "reverse", [pairs])
        old_row_map = self.emit("algebra", "markT", [reversed_pairs, Const(0)])
        rowmaps = {}
        for key, rowmap in self._space.rowmaps.items():
            if key in joined:
                rowmap = self.emit("algebra", "leftjoin",
                                   [old_row_map, rowmap])
            else:
                self.program.new_var()
            rowmaps[key] = rowmap
        rowmaps[outer.table_key] = new_outer_map
        self._space = _RowSpace(self, rowmaps)

    # ------------------------------------------------------------------
    # residual predicates
    # ------------------------------------------------------------------

    def _apply_residuals(self, residuals: List[Expression]) -> None:
        for predicate in residuals:
            sel = self._filter_by_bit(predicate, self._space)
            # the selection on the shared row space applies to all maps
            self._space = _RowSpace(self, {
                key: self.emit("algebra", "semijoin", [rowmap, sel])
                for key, rowmap in self._space.rowmaps.items()})

    def _filter_by_bit(self, predicate: Expression, space: _RowSpace) -> Var:
        """Compute ``predicate`` as a bit BAT over ``space`` and select
        the true rows; returns a BAT whose heads are the surviving rows."""
        bit = self._compile_expr(predicate, space)
        if not self.is_bat(bit):
            bit = self.emit("algebra", "project", [space.rows, bit])
        return self.emit("algebra", "select", [bit, Const(True)])

    # ------------------------------------------------------------------
    # expression compilation
    # ------------------------------------------------------------------

    def _compile_expr(self, expr: Expression, space):
        """Compile an expression in ``space`` (a :class:`_RowSpace` or a
        :class:`_GroupSpace`, which compiles the leaves).

        Returns a Var (BAT when any input was a BAT, scalar otherwise) or
        a Const for literal subtrees.
        """
        leaf = space.leaf(expr)
        if leaf is not None:
            return leaf
        if isinstance(expr, Literal):
            return Const(expr.value)
        if isinstance(expr, Interval):
            raise SqlError("interval literal outside date arithmetic")
        if isinstance(expr, BinaryOp):
            return self._compile_binary(expr, space)
        if isinstance(expr, UnaryOp):
            operand = self._compile_expr(expr.operand, space)
            if expr.op == "NOT":
                return self._emit_calc("not", [operand])
            return self._emit_calc("neg", [operand])
        if isinstance(expr, IsNull):
            operand = self._compile_expr(expr.operand, space)
            bit = self._emit_calc("isnil", [operand])
            if expr.negated:
                bit = self._emit_calc("not", [bit])
            return bit
        if isinstance(expr, Between):
            lowered = BinaryOp(
                "AND",
                BinaryOp(">=", expr.operand, expr.low),
                BinaryOp("<=", expr.operand, expr.high),
            )
            bit = self._compile_binary(lowered, space)
            if expr.negated:
                bit = self._emit_calc("not", [bit])
            return bit
        if isinstance(expr, InList):
            bit = None
            for item in expr.items:
                eq = self._compile_binary(
                    BinaryOp("=", expr.operand, item), space
                )
                bit = eq if bit is None else self._emit_calc("or", [bit, eq])
            if expr.negated:
                bit = self._emit_calc("not", [bit])
            return bit
        if isinstance(expr, Like):
            operand = self._compile_expr(expr.operand, space)
            if not self.is_bat(operand):
                raise SqlError("LIKE over a non-column value")
            bit = self.emit("batstr", "like", [operand, Const(expr.pattern)])
            if expr.negated:
                bit = self._emit_calc("not", [bit])
            return bit
        if isinstance(expr, InSubquery):
            members = self._compile_sub_select(expr)
            operand = self._compile_expr(expr.operand, space)
            if not self.is_bat(operand):
                raise SqlError("IN (subquery) needs a column operand")
            if self.is_bat(members):
                bit = self.emit("batcalc", "contains", [operand, members])
            else:
                bit = self._emit_calc("eq", [operand, members])
            if expr.negated:
                bit = self._emit_calc("not", [bit])
            return bit
        if isinstance(expr, ScalarSubquery):
            return self._scalar_subquery(expr)
        if isinstance(expr, CaseWhen):  # a nest of ``ifthenelse``
            result = (self._compile_expr(expr.otherwise, space)
                      if expr.otherwise is not None else Const(None))
            for condition, value in reversed(expr.branches):
                result = self._emit_calc("ifthenelse", [
                    self._compile_expr(condition, space),
                    self._compile_expr(value, space), result])
            return result
        if isinstance(expr, Cast):
            operand = self._compile_expr(expr.operand, space)
            mal_type = _sql_type_to_mal(expr.type_name)
            return self._emit_calc(mal_type.name, [operand])
        if isinstance(expr, ExtractYear):
            operand = self._compile_expr(expr.operand, space)
            return self._emit_calc("year", [operand], "mtime")
        raise SqlError(f"cannot compile expression {expr!r}")

    def _compile_binary(self, expr: BinaryOp, space):
        date_arith = _date_arithmetic(expr)
        if date_arith is not None:  # mtime/batmtime instructions
            function, operand, amount = date_arith
            return self._emit_calc(function, [
                self._compile_expr(operand, space), Const(amount)], "mtime")
        if expr.op not in _CALC:
            raise SqlError(f"unknown operator {expr.op!r}")
        left = self._compile_expr(expr.left, space)
        right = self._compile_expr(expr.right, space)
        return self._emit_calc(_CALC[expr.op], [left, right])

    def _compile_sub_select(self, expr):
        """Compile an uncorrelated subquery into the enclosing program;
        returns its single output value (BAT var or scalar)."""
        if expr.sub_binder is None:
            raise SqlError("subquery was not bound")
        nested = _SelectCompiler(
            self.catalog, self.schema, expr.select,
            self.program.name, program=self.program,
            binder=expr.sub_binder, mvc=self.mvc,
        )
        return nested.compile_subquery().value

    def _scalar_subquery(self, expr: ScalarSubquery):
        value = self._compile_sub_select(expr)
        return self.emit("sql", "single", [value]) if self.is_bat(value) \
            else value

    def _emit_calc(self, function: str, operands: List,
                   module: str = "calc") -> Var:
        """Scalar ``calc`` (or ``mtime``) or elementwise ``batcalc`` (or
        ``batmtime``) depending on operand BAT-ness."""
        if any(self.is_bat(op) for op in operands):
            module = "bat" + module
        return self.emit(module, function, operands)

    # ------------------------------------------------------------------
    # ungrouped output
    # ------------------------------------------------------------------

    def _compile_plain(self):
        outputs: List[OutputColumn] = []
        for item in self.select.items:
            value = self._ensure_bat(
                self._compile_expr(item.expr, self._space))
            outputs.append(OutputColumn(
                name=item.alias or _display_name(item.expr),
                value=value, is_scalar=False,
            ))
        return outputs, self._compile_order_keys(outputs, self._space)

    # ------------------------------------------------------------------
    # grouped / aggregate output
    # ------------------------------------------------------------------

    def _compile_grouped(self):
        select = self.select
        groups = extents = None
        keys: Dict[str, Var] = {}
        if select.group_by:
            key_vars = [
                self._ensure_bat(self._compile_expr(e, self._space))
                for e in select.group_by
            ]
            groups, extents, _hist = self._emit_grouping(key_vars)
            keys = dict(zip(map(repr, select.group_by), key_vars))
        space = _GroupSpace(self, groups, extents, keys)
        outputs: List[OutputColumn] = []
        for item in select.items:
            value = self._compile_expr(item.expr, space)
            if not space.scalar and not self.is_bat(value):
                value = self.emit("algebra", "project", [extents, value])
            outputs.append(OutputColumn(
                name=item.alias or _display_name(item.expr),
                value=value,
                is_scalar=space.scalar,
            ))
        order_keys = self._compile_order_keys(outputs, space)
        if select.having is not None:
            if space.scalar:
                raise SqlError("HAVING without GROUP BY is not supported")
            bit = self._compile_expr(select.having, space)
            if not self.is_bat(bit):
                raise SqlError("HAVING must reference the grouping")
            sel = self.emit("algebra", "select", [bit, Const(True)])
            for output in outputs:
                output.value = self.emit("algebra", "semijoin",
                                         [output.value, sel])
            order_keys = [(self.emit("algebra", "semijoin", [var, sel]), desc)
                          for var, desc in order_keys]
        return outputs, order_keys

    def _ensure_bat(self, value) -> Var:
        if self.is_bat(value):
            return value
        return self.emit("algebra", "project", [self._space.rows, value])

    def _emit_grouping(self, key_vars: List[Var]):
        groups = extents = hist = None
        for index, key in enumerate(key_vars):
            results = [self.program.new_var() for _ in range(3)]
            if index == 0:
                self.program.add("group", "new", [key], results)
            else:
                self.program.add("group", "derive", [groups, key], results)
            groups, extents, hist = (Var(r) for r in results)
        return groups, extents, hist

    # ------------------------------------------------------------------
    # ordering / limit / result
    # ------------------------------------------------------------------

    def _compile_order_keys(self, outputs: List[OutputColumn], space):
        keys = []
        if not self.select.order_by:
            return keys
        aliases = {o.name: o for o in outputs}
        item_reprs = {
            repr(item.expr): output
            for item, output in zip(self.select.items, outputs)
        }
        for order in self.select.order_by:
            expr = order.expr
            if isinstance(expr, Literal) and isinstance(expr.value, int):
                index = expr.value - 1
                if not (0 <= index < len(outputs)):
                    raise SqlError(f"ORDER BY position {expr.value} out of range")
                keys.append((outputs[index].value, order.descending))
                continue
            if (isinstance(expr, ColumnRef) and expr.qualifier is None
                    and expr.table_key is None and expr.column in aliases):
                keys.append((aliases[expr.column].value, order.descending))
                continue
            matched = item_reprs.get(repr(expr))
            if matched is not None:
                keys.append((matched.value, order.descending))
                continue
            keys.append((self._ensure_bat(self._compile_expr(expr, space)),
                         order.descending))
        return keys

    def _apply_ordering(self, outputs: List[OutputColumn], order_keys):
        if not order_keys or all(o.is_scalar for o in outputs):
            return outputs
        perm: Optional[Var] = None
        for key_var, descending in reversed(order_keys):
            source = key_var if perm is None else self.emit(
                "algebra", "leftjoin", [perm, key_var])
            function = "sortReverseTail" if descending else "sortTail"
            sorted_var = self.emit("algebra", function, [source])
            mirrored = self.emit("bat", "mirror", [sorted_var])
            this_perm = self.emit("algebra", "markT", [mirrored, Const(0)])
            perm = this_perm if perm is None else self.emit(
                "algebra", "leftjoin", [this_perm, perm])
        for output in outputs:
            output.value = self.emit("algebra", "leftjoin",
                                     [perm, output.value])
        return outputs

    def _apply_limit(self, outputs: List[OutputColumn]):
        limit = self.select.limit
        if limit is None or all(o.is_scalar for o in outputs):
            return outputs
        first = self.select.offset
        last = first + limit - 1
        for output in outputs:
            output.value = self.emit("algebra", "slice", [
                output.value, Const(first), Const(last)])
        return outputs

    def _emit_result(self, outputs: List[OutputColumn]) -> None:
        rs = self.emit("sql", "resultSet", [Const(len(outputs)), Const(-1)])
        table_label = ".".join(
            [self.schema] + [self.select.tables[0].table]
        )
        for output in outputs:
            value = output.value
            if value.__class__ is Var:  # the type the plan declares
                atom = self.program.type_of(value.name).tail
            else:  # a constant in a scalar aggregate's select list
                atom = column_atom(value, {})
            rs = self.emit("sql", "rsColumn", [
                rs, Const(table_label), Const(output.name),
                Const(atom.name), value])
        self.program.add("sql", "exportResult", [rs])


class _RowSpace:
    """The leaves of an expression over the row space (one table's
    candidates, or the joined rows): a column is a ``leftjoin`` of its
    table's row map against the bound column, emitted once per space.
    A join or a filter makes a new space."""

    def __init__(self, compiler: _SelectCompiler,
                 rowmaps: Dict[str, Var]) -> None:
        self.compiler = compiler
        self.rowmaps = rowmaps
        self.rows = next(iter(rowmaps.values()))
        self._columns: Dict[Tuple[str, str], Var] = {}

    def leaf(self, expr: Expression) -> Optional[Var]:
        if isinstance(expr, ColumnRef):
            key = (expr.table_key, expr.column)
            var = self._columns.get(key)
            if var is None:
                c = self.compiler
                var = self._columns[key] = c.emit("algebra", "leftjoin", [
                    self.rowmaps[expr.table_key], c.bind_column(*key)])
            return var
        if isinstance(expr, FuncCall):
            raise SqlError(
                f"aggregate {expr.name}() in a non-aggregate context"
            )
        return None


class _GroupSpace:
    """The leaves of an expression after GROUP BY (the group space) or
    over aggregates without GROUP BY (the scalar aggregate space): a key,
    matched by ``repr``, projects through the extents; an aggregate
    compiles its argument in the row space; any other column is an
    error.  Each leaf is emitted once."""

    def __init__(self, compiler: _SelectCompiler, groups, extents,
                 keys: Dict[str, Var]) -> None:
        self.compiler = compiler
        self.groups = groups
        self.extents = extents
        self.scalar = groups is None
        self._keys = keys
        self._leaves: Dict[str, Var] = {}

    def leaf(self, expr: Expression) -> Optional[Var]:
        # (a scalar aggregate has no keys: only an aggregate needs a repr)
        text = repr(expr) if self._keys or isinstance(expr, FuncCall) \
            else None
        if text in self._leaves:
            return self._leaves[text]
        c = self.compiler
        if text in self._keys:
            var = c.emit("algebra", "leftjoin",
                         [self.extents, self._keys[text]])
        elif isinstance(expr, FuncCall):
            var = self._aggregate(expr)
        elif isinstance(expr, ColumnRef):
            raise SqlError(
                f"column {expr.display()!r} is neither grouped nor aggregated"
            )
        else:
            return None
        self._leaves[text] = var
        return var

    def _aggregate(self, call: FuncCall) -> Var:
        c = self.compiler
        function = call.name
        if call.star or not call.args:
            source = c._space.rows
        else:
            source = c._ensure_bat(c._compile_expr(call.args[0], c._space))
            if function == "count":
                function = "count_no_nil"  # count(column) skips nils
        if self.scalar:
            return c.emit("aggr", function, [source])
        return c.emit("aggr", function, [source, self.groups, self.extents])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


_NOT_CONST = object()


def _const_eval(expr: Expression):
    """Evaluate a literal-only expression at compile time, on the
    ``calc``/``mtime`` kernels that would compute it at run time; returns
    ``_NOT_CONST`` when the expression involves columns or aggregates,
    when a kernel fails (the plan then fails at run time, typed), or when
    it is nil: a selection cannot take a nil, which compares as nil, so
    its predicate is computed as a ``bit``."""
    if isinstance(expr, Literal):
        return _NOT_CONST if expr.value is None else expr.value
    module = "calc"
    if isinstance(expr, UnaryOp) and expr.op == "-":
        function, operands = "neg", [_const_eval(expr.operand)]
    elif isinstance(expr, Cast):
        function = _sql_type_to_mal(expr.type_name).name
        operands = [_const_eval(expr.operand)]
    elif isinstance(expr, BinaryOp) and expr.op in ("+", "-", "*", "/", "%"):
        date_arith = _date_arithmetic(expr)
        if date_arith is None:
            function = _CALC[expr.op]
            operands = [_const_eval(expr.left), _const_eval(expr.right)]
        else:
            module = "mtime"
            function, operand, amount = date_arith
            operands = [_const_eval(operand), amount]
    else:
        return _NOT_CONST
    if any(operand is _NOT_CONST for operand in operands):
        return _NOT_CONST
    try:
        value = lookup(module, function)(None, None, operands)
    except Exception:
        return _NOT_CONST
    return _NOT_CONST if value is nil else value


def _date_arithmetic(expr: BinaryOp):
    """``date ± interval`` as the ``mtime`` call that computes it:
    ``(function, date operand, amount)``; None for any other operation."""
    if expr.op not in ("+", "-"):
        return None
    if isinstance(expr.right, Interval):
        interval, operand = expr.right, expr.left
    elif isinstance(expr.left, Interval) and expr.op == "+":
        interval, operand = expr.left, expr.right
    else:
        return None
    amount = interval.amount if expr.op == "+" else -interval.amount
    if interval.unit == "day":
        return "adddays", operand, amount
    months = amount * 12 if interval.unit == "year" else amount
    return "addmonths", operand, months


def _split_conjuncts(expr: Optional[Expression]) -> List[Expression]:
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _tables_of(expr: Expression) -> Set[str]:
    """The FROM keys of the columns under ``expr`` (a subquery is
    uncorrelated, so it adds none)."""
    if isinstance(expr, ColumnRef):
        return {expr.table_key} if expr.table_key else set()
    return set().union(*map(_tables_of, children(expr)))


def _contains_aggregate(expr: Expression) -> bool:
    """True when any FuncCall aggregate occurs under ``expr``."""
    return isinstance(expr, FuncCall) \
        or any(map(_contains_aggregate, children(expr)))


def _display_name(expr: Expression) -> str:
    if isinstance(expr, ColumnRef):
        return expr.column
    if isinstance(expr, FuncCall):
        if expr.star:
            return f"{expr.name}(*)"
        return f"{expr.name}({_display_name(expr.args[0])})"
    if isinstance(expr, BinaryOp):
        return (
            f"{_display_name(expr.left)}{expr.op}{_display_name(expr.right)}"
        )
    if isinstance(expr, Literal):
        return str(expr.value)
    if isinstance(expr, Cast):
        return _display_name(expr.operand)
    if isinstance(expr, ExtractYear):
        return f"year({_display_name(expr.operand)})"
    return "expr"
