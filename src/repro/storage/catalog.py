"""Relational catalog over BAT storage.

A :class:`Catalog` holds named :class:`Schema` objects; each schema holds
:class:`Table` objects; each table column is one void-headed :class:`BAT`.
This is the structure MAL's ``sql.bind`` taps into: binding a column of a
table yields its BAT.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.errors import CatalogError
from repro.storage.bat import BAT
from repro.storage.types import MalType, cast_value, type_by_name


class Column:
    """A named, typed column of a table, stored as a void-headed BAT."""

    def __init__(self, name: str, mal_type: MalType) -> None:
        self.name = name
        self.mal_type = mal_type
        self.bat = BAT(mal_type)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Column({self.name}:{self.mal_type.name})"


class Table:
    """A relational table: an ordered set of equally long columns."""

    def __init__(self, name: str, columns: Sequence[Tuple[str, MalType]]) -> None:
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        self.name = name
        self.columns: Dict[str, Column] = {}
        for col_name, mal_type in columns:
            key = col_name.lower()
            if key in self.columns:
                raise CatalogError(f"duplicate column {col_name!r} in {name!r}")
            self.columns[key] = Column(col_name, mal_type)
        self._tid: Optional[BAT] = None

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Table({self.name}, {len(self.columns)} cols, {self.row_count()} rows)"

    def column(self, name: str) -> Column:
        """Look up a column by (case-insensitive) name."""
        try:
            return self.columns[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def column_names(self) -> List[str]:
        """Column names in definition order."""
        return [c.name for c in self.columns.values()]

    def row_count(self) -> int:
        """Number of rows (0 for a fresh table)."""
        first = next(iter(self.columns.values()))
        return first.bat.count()

    def tid(self) -> BAT:
        """``sql.tid``: every row's oid, ``BAT.dense_oids(rows)``, memoized
        while the row count stands and nobody appended to it (which
        clears its density mark)."""
        rows = self.row_count()
        tid = self._tid
        if tid is None or not tid._tdense or len(tid.tail) != rows:
            tid = self._tid = BAT.dense_oids(rows)
        return tid

    def insert(self, row: Sequence[Any]) -> None:
        """Append one row; values are cast to the column types."""
        if len(row) != len(self.columns):
            raise CatalogError(
                f"row arity {len(row)} != table arity {len(self.columns)}"
            )
        for column, value in zip(self.columns.values(), row):
            column.bat.append(value)

    def cast_columns(self, rows: Sequence[Sequence[Any]]) -> List[List[Any]]:
        """``rows`` as one list of cast values per column; raises on a
        wrong arity or a value that does not cast, and touches nothing."""
        arity = len(self.columns)
        for row in rows:
            if len(row) != arity:
                raise CatalogError(
                    f"row arity {len(row)} != table arity {arity}"
                )
        cast_columns: List[List[Any]] = []
        for position, column in enumerate(self.columns.values()):
            caster = column.mal_type.caster
            cast_columns.append([
                None if row[position] is None else caster(row[position])
                for row in rows
            ])
        return cast_columns

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append many rows in one bulk pass; returns the number inserted.

        Rows are transposed into per-column value lists, cast in one
        comprehension per column, and appended with a C-level extend —
        all-or-nothing: a bad value anywhere rejects the whole batch
        before any column is touched.
        """
        rows = [tuple(row) for row in rows]
        cast_columns = self.cast_columns(rows)
        if not rows:
            return 0
        for column, values in zip(self.columns.values(), cast_columns):
            column.bat._extend_raw(values)
        return len(rows)

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate rows as tuples, in oid order."""
        bats = [c.bat for c in self.columns.values()]
        return zip(*(b.tail for b in bats)) if bats else iter(())


class Schema:
    """A namespace of tables."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.tables: Dict[str, Table] = {}

    def create_table(self, name: str,
                     columns: Sequence[Tuple[str, MalType]]) -> Table:
        """Create a table; errors on duplicates."""
        key = name.lower()
        if key in self.tables:
            raise CatalogError(f"table {name!r} already exists in {self.name!r}")
        table = Table(name, columns)
        self.tables[key] = table
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table; errors if absent."""
        try:
            del self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table {name!r} in {self.name!r}") from None

    def table(self, name: str) -> Table:
        """Look up a table by (case-insensitive) name."""
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table {name!r} in schema {self.name!r}") from None


class Observed(NamedTuple):
    """What a reader assumed of the tables it read, as
    :meth:`Catalog.observe` found them.

    ``states`` holds one ``(schema key, table key, table, rows)`` per
    table — its identity, so a table dropped and created again under
    the same name is another table, and its row count, which in this
    append-only dialect (INSERT, CREATE, DROP; a rolled-back insert
    truncates to an earlier length) moves with every change of content.
    ``scope`` says the same as text, ``sys.lineitem=6005,sys.part=200``,
    for keys that outlive the process; it cannot carry the identity.
    """

    states: Tuple[Tuple[str, str, Optional[Table], int], ...]
    scope: str


#: the assumption of a reader that read no table
UNOBSERVED = Observed((), "")


class Catalog:
    """Top-level catalog; created with a default ``sys`` schema.

    Nothing here is versioned.  Whoever keeps something derived from
    tables — a compiled plan, a learned statistic — asks :meth:`observe`
    what it may assume of exactly the tables it read and :meth:`holds`
    whether that is still so; a write to any other table, through
    ``Database`` or behind its back (``Table.insert``, ``populate``,
    WAL replay), is invisible to it.
    """

    DEFAULT_SCHEMA = "sys"

    def __init__(self) -> None:
        self.schemas: Dict[str, Schema] = {}
        self.create_schema(self.DEFAULT_SCHEMA)

    def tables(self) -> Dict[Tuple[str, str], Table]:
        """Every table by ``(schema key, table key)``, as of now; each
        copy is one C-level call, so a concurrent DDL cannot tear it."""
        return {(schema_key, table_key): table
                for schema_key, schema in list(self.schemas.items())
                for table_key, table in list(schema.tables.items())}

    def observe(self, names: Iterable[Tuple[str, str]],
                tables: Optional[Dict[Tuple[str, str], Table]] = None,
                ) -> Observed:
        """What a reader of the ``(schema, table)`` ``names`` may assume
        until :meth:`holds` says otherwise.  ``tables`` is an earlier
        :meth:`tables`: a plan's identities are taken from before its
        compiler looked the tables up, its row counts from after."""
        if tables is None:
            tables = self.tables()
        states = []
        for schema, name in names:
            key = (schema.lower(), name.lower())
            table = tables.get(key)
            states.append(
                key + (table, table.row_count() if table is not None else 0))
        return Observed(tuple(states), ",".join(
            f"{schema}.{name}={rows}" for schema, name, _, rows in states))

    def holds(self, observed: Observed) -> bool:
        """True while every observed table is the same table with the
        same number of rows."""
        for schema, name, table, rows in observed.states:
            found = self.schemas.get(schema)
            if table is None or found is None \
                    or found.tables.get(name) is not table \
                    or table.row_count() != rows:
                return False
        return True

    def create_schema(self, name: str) -> Schema:
        """Create a schema; errors on duplicates."""
        key = name.lower()
        if key in self.schemas:
            raise CatalogError(f"schema {name!r} already exists")
        schema = Schema(name)
        self.schemas[key] = schema
        return schema

    def schema(self, name: Optional[str] = None) -> Schema:
        """Look up a schema (default schema when name is None)."""
        key = (name or self.DEFAULT_SCHEMA).lower()
        try:
            return self.schemas[key]
        except KeyError:
            raise CatalogError(f"no schema {name!r}") from None

    def table(self, name: str, schema: Optional[str] = None) -> Table:
        """Convenience: look up ``schema.table``."""
        return self.schema(schema).table(name)

    def bind(self, schema: str, table: str, column: str) -> BAT:
        """MAL ``sql.bind``: the BAT backing one column."""
        return self.schema(schema).table(table).column(column).bat

    def create_table_from_sql_types(
        self, name: str, columns: Sequence[Tuple[str, str]],
        schema: Optional[str] = None,
    ) -> Table:
        """Create a table from (name, type-name) pairs, mapping common SQL
        type names onto MAL atoms (``integer``→int, ``varchar``→str, ...)."""
        resolved = [
            (col_name, _sql_type_to_mal(type_name)) for col_name, type_name in columns
        ]
        return self.schema(schema).create_table(name, resolved)


_SQL_TYPE_MAP = {
    "int": "int",
    "integer": "int",
    "smallint": "int",
    "tinyint": "int",
    "bigint": "lng",
    "decimal": "dbl",
    "numeric": "dbl",
    "real": "dbl",
    "float": "dbl",
    "double": "dbl",
    "varchar": "str",
    "char": "str",
    "text": "str",
    "string": "str",
    "clob": "str",
    "boolean": "bit",
    "bool": "bit",
    "date": "date",
    "oid": "oid",
}


def _sql_type_to_mal(type_name: str) -> MalType:
    base = type_name.strip().lower().split("(", 1)[0].strip()
    try:
        return type_by_name(_SQL_TYPE_MAP.get(base, base))
    except Exception:
        raise CatalogError(f"unsupported SQL type {type_name!r}") from None
