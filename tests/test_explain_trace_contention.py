"""Tests for the EXPLAIN/TRACE SQL modifiers."""

import pytest

from repro.server import Database
from repro.tpch import populate


@pytest.fixture(scope="module")
def db():
    database = Database(workers=4, mitosis_threshold=200)
    populate(database.catalog, scale_factor=0.1, seed=5)
    return database


class TestExplainStatement:
    def test_explain_returns_plan_rows(self, db):
        outcome = db.execute("explain select count(*) from lineitem")
        assert outcome.columns == ["mal"]
        text = "\n".join(r[0] for r in outcome.rows)
        assert text.startswith("function user.")
        assert "end " in text

    def test_explain_does_not_execute(self, db):
        outcome = db.execute(
            "explain select count(*) from lineitem where l_quantity > 5"
        )
        assert outcome.execution is None

    def test_explain_case_insensitive(self, db):
        outcome = db.execute("EXPLAIN select count(*) from region")
        assert outcome.columns == ["mal"]


class TestTraceStatement:
    def test_trace_returns_event_rows(self, db):
        outcome = db.execute("trace select count(*) from region")
        assert outcome.columns[:4] == ["event", "clock", "status", "pc"]
        statuses = {row[2] for row in outcome.rows}
        assert statuses == {"start", "done"}

    def test_trace_rows_pair_up(self, db):
        outcome = db.execute("trace select count(*) from nation")
        starts = sum(1 for r in outcome.rows if r[2] == "start")
        dones = sum(1 for r in outcome.rows if r[2] == "done")
        assert starts == dones > 0

    def test_trace_carries_statement_text(self, db):
        outcome = db.execute("trace select count(*) from region")
        assert any("sql.tid" in row[7] for row in outcome.rows)
