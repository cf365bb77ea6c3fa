"""Unit tests for the relational catalog."""

import pytest

from repro.errors import CatalogError
from repro.storage import Catalog, INT, STR


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.schema().create_table("emp", [("id", INT), ("name", STR)])
    return cat


class TestSchemas:
    def test_default_schema_exists(self):
        assert Catalog().schema().name == "sys"

    def test_create_duplicate_schema_raises(self):
        cat = Catalog()
        with pytest.raises(CatalogError):
            cat.create_schema("SYS".lower())

    def test_unknown_schema_raises(self):
        with pytest.raises(CatalogError):
            Catalog().schema("nope")


class TestTables:
    def test_create_and_lookup_case_insensitive(self, catalog):
        assert catalog.table("EMP").name == "emp"

    def test_duplicate_table_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.schema().create_table("emp", [("x", INT)])

    def test_empty_columns_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.schema().create_table("t", [])

    def test_duplicate_column_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.schema().create_table("t", [("a", INT), ("A", INT)])

    def test_drop_table(self, catalog):
        catalog.schema().drop_table("emp")
        with pytest.raises(CatalogError):
            catalog.table("emp")

    def test_drop_missing_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.schema().drop_table("ghost")


class TestRows:
    def test_insert_and_rows(self, catalog):
        t = catalog.table("emp")
        t.insert([1, "ann"])
        t.insert([2, "bob"])
        assert list(t.rows()) == [(1, "ann"), (2, "bob")]
        assert t.row_count() == 2

    def test_insert_casts(self, catalog):
        t = catalog.table("emp")
        t.insert(["3", 42])
        assert list(t.rows()) == [(3, "42")]

    def test_arity_mismatch_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.table("emp").insert([1])

    def test_insert_many_returns_count(self, catalog):
        n = catalog.table("emp").insert_many([[1, "a"], [2, "b"], [3, "c"]])
        assert n == 3

    def test_column_names_in_order(self, catalog):
        assert catalog.table("emp").column_names() == ["id", "name"]

    def test_unknown_column_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.table("emp").column("salary")


class TestBind:
    def test_bind_returns_backing_bat(self, catalog):
        catalog.table("emp").insert([1, "ann"])
        bat = catalog.bind("sys", "emp", "name")
        assert bat.tail == ["ann"]
        assert bat.is_void_head

    def test_bind_is_live(self, catalog):
        bat = catalog.bind("sys", "emp", "id")
        catalog.table("emp").insert([9, "zed"])
        assert bat.tail == [9]


class TestObserve:
    """What a reader may assume of the tables it read, and for how long."""

    def test_holds_until_the_observed_table_changes(self, catalog):
        catalog.schema().create_table("dept", [("id", INT)])
        catalog.table("emp").insert([1, "ann"])
        observed = catalog.observe([("sys", "EMP")])  # as sql.bind spells it
        assert observed.scope == "sys.emp=1"
        assert observed.states == (("sys", "emp", catalog.table("emp"), 1),)
        catalog.table("dept").insert([7])
        assert catalog.holds(observed)
        catalog.table("emp").insert([2, "bob"])
        assert not catalog.holds(observed)
        del catalog.table("emp").column("id").bat.tail[1:]    # a WAL undo
        del catalog.table("emp").column("name").bat.tail[1:]
        assert catalog.holds(observed)

    def test_a_recreated_table_is_another_table(self, catalog):
        observed = catalog.observe([("sys", "emp")])
        catalog.schema().drop_table("emp")
        assert not catalog.holds(observed)
        catalog.schema().create_table("emp", [("id", INT), ("name", STR)])
        assert catalog.observe([("sys", "emp")]).scope == observed.scope
        assert not catalog.holds(observed)

    def test_identity_comes_from_the_earlier_snapshot(self, catalog):
        before = catalog.tables()
        catalog.schema().drop_table("emp")
        catalog.schema().create_table("emp", [("id", STR)]).insert(["x"])
        observed = catalog.observe([("sys", "emp")], before)
        assert observed.states[0][2] is before[("sys", "emp")]
        assert not catalog.holds(observed)

    def test_a_table_that_is_not_there_never_holds(self, catalog):
        assert not catalog.holds(catalog.observe([("sys", "nope")]))
        assert catalog.holds(catalog.observe([]))


class TestSqlTypes:
    def test_create_from_sql_types(self):
        cat = Catalog()
        t = cat.create_table_from_sql_types(
            "x", [("a", "INTEGER"), ("b", "VARCHAR(25)"), ("c", "DECIMAL(15,2)"),
                  ("d", "DATE"), ("e", "BIGINT")]
        )
        names = [c.mal_type.name for c in t.columns.values()]
        assert names == ["int", "str", "dbl", "date", "lng"]

    def test_unknown_sql_type_raises(self):
        with pytest.raises(CatalogError):
            Catalog().create_table_from_sql_types("x", [("a", "GEOMETRY")])
