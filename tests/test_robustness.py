"""Failure-injection and robustness tests across the pipeline."""

import pytest

from repro.core.textual import TextualStethoscope
from repro.errors import MappingError, StethoscopeError
from repro.mal import Interpreter
from repro.profiler import Profiler, UdpEmitter, write_trace
from repro.server import Database
from repro.sqlfe import compile_sql
from repro.storage import Catalog, INT


@pytest.fixture
def catalog():
    cat = Catalog()
    t = cat.schema().create_table("t", [("x", INT)])
    t.insert_many([[i] for i in range(20)])
    return cat


class TestMalformedStream:
    def test_garbage_datagrams_counted_not_fatal(self):
        with TextualStethoscope() as textual:
            connection = textual.connect("noisy")
            emitter = UdpEmitter(port=connection.port)
            emitter.send_line("complete garbage")
            emitter.send_line('[ 0,\t0,\t"start",\t0,\t0,\t0,\t0,\t"a.b();"\t]')
            emitter.send_line("[ broken, event ]")
            emitter.send_end()
            textual.drain_until_ended(max_rounds=100, timeout=0.05)
            assert connection.malformed == 2
            assert len(connection.events) == 1
            emitter.close()

    def test_interleaved_dot_and_garbage(self):
        with TextualStethoscope() as textual:
            connection = textual.connect("noisy")
            emitter = UdpEmitter(port=connection.port)
            emitter.send_line("#dot\tdigraph G {")
            emitter.send_line("???")
            emitter.send_line("#dot\t}")
            emitter.send_end()
            textual.drain_until_ended(max_rounds=100, timeout=0.05)
            assert connection.dot_text() == "digraph G {\n}"
            emitter.close()


class TestTracePlanMismatch:
    def test_offline_session_rejects_foreign_trace(self, catalog, tmp_path):
        """A trace whose pcs exceed the plan is detected at load time —
        the user mixed up files from two different queries."""
        from repro.dot import plan_to_dot

        small = compile_sql(catalog, "select x from t limit 1")
        big = compile_sql(
            catalog,
            "select count(*) from t where x > 1 and x < 15",
        )
        profiler = Profiler()
        Interpreter(catalog, listener=profiler).run(big)
        dot_path = str(tmp_path / "small.dot")
        trace_path = str(tmp_path / "big.trace")
        with open(dot_path, "w") as f:
            f.write(plan_to_dot(small))
        write_trace(profiler.events, trace_path)
        from repro.core.session import Stethoscope

        with pytest.raises(MappingError):
            Stethoscope.offline(dot_path, trace_path)


class TestDegenerateInputs:
    def test_empty_table_queries(self, catalog):
        catalog.schema().create_table("void_t", [("v", INT)])
        db = Database(catalog=catalog)
        assert db.execute("select count(*) from void_t").rows == [(0,)]
        assert db.execute("select v from void_t order by v").rows == []
        assert db.execute(
            "select v, count(*) from void_t group by v"
        ).rows == []

    def test_aggregate_over_empty_is_nil(self, catalog):
        catalog.schema().create_table("void_u", [("v", INT)])
        db = Database(catalog=catalog)
        assert db.execute("select sum(v) from void_u").rows == [(None,)]

    def test_whole_table_filtered_out(self, catalog):
        db = Database(catalog=catalog)
        rows = db.execute("select x from t where x > 9999").rows
        assert rows == []

    def test_replay_of_empty_trace(self, catalog):
        from repro.core.session import Stethoscope
        from repro.dot import plan_to_dot

        program = compile_sql(catalog, "select x from t limit 1")
        session = Stethoscope.offline_from_memory(
            plan_to_dot(program), []
        )
        assert session.replay.run_to_end() == 0
        assert session.trace_map.coverage() == 0.0
        assert "not executed" in session.tooltip("n0")
