"""Tests for the repro.metrics subsystem: the primitives, the registry,
the exposition formats, the reporter thread, and the instrumentation
wired through the engine (server, MAL, UDP stream, online monitor,
render queue)."""

import io
import json
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.metrics import (
    REGISTRY,
    MetricError,
    PeriodicReporter,
    Registry,
    disabled,
    render_snapshot,
    render_text,
    snapshot,
)
from repro.metrics import families


def counter_value(family, **labels):
    """Current value of one (possibly labeled) counter/gauge child."""
    child = family.labels(**labels) if labels else family
    return child.value()


# ---------------------------------------------------------------------------
# primitives and registry
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_counter_counts_up_only(self):
        reg = Registry()
        c = reg.counter("t_total", "test")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = Registry()
        g = reg.gauge("t_depth", "test")
        g.set(10)
        g.inc()
        g.dec(4)
        assert g.value() == 7

    def test_histogram_buckets_cumulative(self):
        reg = Registry()
        h = reg.histogram("t_usec", "test", buckets=(10, 100, 1000))
        for v in (5, 50, 500, 5000):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == 5555
        assert h._single().cumulative_buckets() == [
            (10, 1), (100, 2), (1000, 3), ("+Inf", 4),
        ]

    def test_histogram_observe_many_matches_observe(self):
        reg = Registry()
        one = reg.histogram("t_one_usec", "test", buckets=(10, 100, 1000))
        many = reg.histogram("t_many_usec", "test", buckets=(10, 100, 1000))
        values = [5, 50, 500, 5000, 10, 100]
        for v in values:
            one.observe(v)
        many.observe_many(values)
        assert many._single().cumulative_buckets() == \
            one._single().cumulative_buckets()
        assert many.count() == one.count() and many.sum() == one.sum()
        many.observe_many([])  # empty batch is a no-op
        assert many.count() == len(values)
        with disabled(reg):
            many.observe_many([1, 2, 3])
        assert many.count() == len(values)

    def test_labeled_children_are_cached(self):
        reg = Registry()
        fam = reg.counter("t_ops_total", "test", labels=("op",))
        fam.labels(op="query").inc()
        fam.labels("query").inc()  # positional form hits the same child
        assert fam.labels(op="query").value() == 2
        assert set(fam.children()) == {("query",)}

    def test_label_arity_enforced(self):
        reg = Registry()
        fam = reg.counter("t_ops_total", "test", labels=("op",))
        with pytest.raises(MetricError):
            fam.labels()
        with pytest.raises(MetricError):
            fam.labels(other="x")
        with pytest.raises(MetricError):
            fam.inc()  # labeled family has no single child

    def test_reregistration_returns_same_family(self):
        reg = Registry()
        a = reg.counter("t_total", "test")
        b = reg.counter("t_total", "test")
        assert a is b
        with pytest.raises(MetricError):
            reg.gauge("t_total", "test")  # kind clash

    def test_disabled_suspends_recording(self):
        reg = Registry()
        c = reg.counter("t_total", "test")
        with disabled(reg):
            c.inc()
        assert c.value() == 0
        c.inc()
        assert c.value() == 1

    def test_reset_zeroes_children(self):
        reg = Registry()
        plain = reg.counter("t_total", "test")
        labeled = reg.counter("t_ops_total", "test", labels=("op",))
        plain.inc()
        labeled.labels(op="q").inc()
        reg.reset()
        assert plain.value() == 0
        assert labeled.children() == {}

    def test_thread_safety_no_lost_updates(self):
        reg = Registry()
        c = reg.counter("t_total", "test")

        def bump():
            for _ in range(5000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 20000


class TestSnapshotAndExposition:
    def test_snapshot_is_json_safe(self):
        reg = Registry()
        reg.counter("t_ops_total", "ops", labels=("op",)).labels(op="q").inc()
        reg.histogram("t_usec", "lat", buckets=(10, 100)).observe(7)
        snap = reg.snapshot()
        round_tripped = json.loads(json.dumps(snap))
        assert round_tripped == snap
        assert snap["t_ops_total"]["samples"][0] == {
            "labels": {"op": "q"}, "value": 1.0,
        }
        histogram = snap["t_usec"]["samples"][0]
        assert histogram["count"] == 1 and histogram["sum"] == 7
        assert histogram["buckets"][-1] == ["+Inf", 1]

    def test_render_text_exposition_shape(self):
        reg = Registry()
        reg.counter("t_ops_total", "ops handled", labels=("op",),
                    unit="requests").labels(op="q").inc(3)
        reg.histogram("t_usec", "latency", buckets=(10,)).observe(4)
        text = reg.render_text()
        assert "# HELP t_ops_total ops handled [requests]" in text
        assert "# TYPE t_ops_total counter" in text
        assert 't_ops_total{op="q"} 3' in text
        assert 't_usec_bucket{le="10"} 1' in text
        assert 't_usec_bucket{le="+Inf"} 1' in text
        assert "t_usec_sum 4" in text
        assert "t_usec_count 1" in text

    def test_render_snapshot_round_trips_the_wire_form(self):
        reg = Registry()
        reg.gauge("t_depth", "queue depth").set(5)
        wire = json.loads(json.dumps(reg.snapshot()))
        assert render_snapshot(wire) == reg.render_text()

    def test_process_registry_catalog_complete(self):
        # every subsystem family is registered by importing repro.metrics
        names = set(REGISTRY.families())
        for expected in (
            "repro_server_requests_total",
            "repro_mal_instructions_total",
            "repro_udp_datagrams_sent_total",
            "repro_online_sampled_out_total",
            "repro_mapping_lookups_total",
            "repro_render_queue_depth",
        ):
            assert expected in names
        assert render_text().count("# TYPE") == len(names)


class TestPeriodicReporter:
    def test_collects_snapshots_until_stopped(self):
        reporter = PeriodicReporter(interval_s=0.02)
        with reporter:
            time.sleep(0.08)
        assert len(reporter.snapshots) >= 2  # a few ticks + final report
        assert "repro_mal_instructions_total" in reporter.snapshots[-1]

    def test_sink_and_stream_modes(self):
        seen = []
        with PeriodicReporter(interval_s=5.0, sink=seen.append):
            pass  # stop() still takes the final snapshot
        assert len(seen) == 1
        stream = io.StringIO()
        with PeriodicReporter(interval_s=5.0, stream=stream):
            pass
        assert "# TYPE" in stream.getvalue()

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            PeriodicReporter(interval_s=0)


# ---------------------------------------------------------------------------
# engine instrumentation
# ---------------------------------------------------------------------------


class TestMalInstrumentation:
    def test_interpreter_records_instructions_and_run(self):
        from repro.mal.parser import parse_program
        from repro.mal.interpreter import Interpreter
        from repro.storage import Catalog

        before_runs = counter_value(families.MAL_EXECUTIONS,
                                    scheduler="interpreter")
        before_calc = counter_value(families.MAL_INSTRUCTIONS,
                                    module="calc")
        before_util = families.MAL_WORKER_UTILIZATION.count()
        program = parse_program(
            "function user.main():void;\n"
            "  X_1 := calc.add(1,2);\n"
            "  X_2 := calc.mul(X_1,3);\n"
            "end main;\n"
        )
        Interpreter(Catalog()).run(program)
        assert counter_value(families.MAL_EXECUTIONS,
                             scheduler="interpreter") == before_runs + 1
        assert counter_value(families.MAL_INSTRUCTIONS,
                             module="calc") == before_calc + 2
        assert families.MAL_WORKER_UTILIZATION.count() == before_util + 1

    def test_dataflow_records_per_scheduler(self, tpch_db=None):
        from repro.server import Database
        from repro.tpch import populate

        db = Database(workers=2, mitosis_threshold=50)
        populate(db.catalog, scale_factor=0.01, seed=5)
        before = counter_value(families.MAL_EXECUTIONS,
                               scheduler="simulated")
        db.execute("select count(*) from lineitem")
        assert counter_value(families.MAL_EXECUTIONS,
                             scheduler="simulated") == before + 1


class TestUdpInstrumentation:
    def test_emitter_counts_kinds_and_bytes(self):
        from repro.profiler import UdpEmitter, UdpReceiver

        with UdpReceiver() as receiver:
            sent_events = counter_value(families.UDP_DATAGRAMS_SENT,
                                        kind="event")
            sent_dot = counter_value(families.UDP_DATAGRAMS_SENT,
                                     kind="dot")
            sent_end = counter_value(families.UDP_DATAGRAMS_SENT,
                                     kind="end")
            bytes_before = counter_value(families.UDP_BYTES_SENT)
            with UdpEmitter(port=receiver.port) as emitter:
                emitter.send_dot("digraph {\n}")
                emitter.send_line("[ 1,\t0,\t\"start\",\t1,\t0,\t0,\t0,"
                                  "\t\"x\"\t]")
                emitter.send_end()
            received = list(receiver.lines(timeout=2.0))
        assert counter_value(families.UDP_DATAGRAMS_SENT,
                             kind="dot") == sent_dot + 2
        assert counter_value(families.UDP_DATAGRAMS_SENT,
                             kind="event") == sent_events + 1
        assert counter_value(families.UDP_DATAGRAMS_SENT,
                             kind="end") == sent_end + 1
        assert counter_value(families.UDP_BYTES_SENT) > bytes_before
        assert len(received) >= 1  # END terminates iteration

    def test_send_error_counted_not_raised(self):
        from repro.profiler import UdpEmitter

        emitter = UdpEmitter(port=50011)
        emitter.close()
        before = counter_value(families.UDP_SEND_ERRORS)
        emitter.send_line("after close")  # must not raise
        assert counter_value(families.UDP_SEND_ERRORS) == before + 1

    def test_receiver_counts_datagrams(self):
        from repro.profiler import UdpEmitter, UdpReceiver

        before = counter_value(families.UDP_DATAGRAMS_RECEIVED)
        with UdpReceiver() as receiver:
            with UdpEmitter(port=receiver.port) as emitter:
                for _ in range(5):
                    emitter.send_line("x")
                emitter.send_end()
            drained = list(receiver.lines(timeout=2.0))
        assert len(drained) == 5
        assert counter_value(families.UDP_DATAGRAMS_RECEIVED) >= before + 5


class TestRenderQueueInstrumentation:
    def test_post_and_execute_counted(self):
        from repro.core.coloring import ColorAction
        from repro.core.painter import GraphPainter
        from repro.dot.parser import parse_dot
        from repro.layout import layout_graph
        from repro.viz import RED, build_virtual_space

        space = build_virtual_space(layout_graph(parse_dot(
            'digraph g { n1 [label="a"]; n2 [label="b"]; n1 -> n2 }')))
        posted = counter_value(families.RENDER_TASKS_POSTED)
        executed = counter_value(families.RENDER_TASKS_EXECUTED)
        waits = families.RENDER_QUEUE_WAIT_MS.count()
        painter = GraphPainter(space)
        for pc in (1, 2, 1):
            painter.apply(ColorAction(pc, RED, "t"))
        assert counter_value(families.RENDER_TASKS_POSTED) == posted + 3
        assert counter_value(families.RENDER_QUEUE_DEPTH) == 3
        painter.flush()
        assert counter_value(
            families.RENDER_TASKS_EXECUTED) == executed + 3
        assert counter_value(families.RENDER_QUEUE_DEPTH) == 0
        assert families.RENDER_QUEUE_WAIT_MS.count() == waits + 3


class TestMappingInstrumentation:
    def _graph(self):
        from repro.dot.parser import parse_dot

        return parse_dot('digraph g { n1 [label="a"]; n2 [label="b"]; '
                         "n1 -> n2 }")

    def _event(self, pc):
        from repro.profiler.events import TraceEvent

        return TraceEvent(event=0, clock_usec=0, status="start", pc=pc,
                          thread=0, usec=0, rss_bytes=0, stmt="s")

    def test_hits_and_misses_counted(self):
        from repro.core.mapping import PlanTraceMap
        from repro.errors import MappingError

        hits = counter_value(families.MAPPING_LOOKUPS, result="hit")
        misses = counter_value(families.MAPPING_LOOKUPS, result="miss")
        PlanTraceMap(self._graph(), [self._event(1), self._event(2)])
        assert counter_value(families.MAPPING_LOOKUPS,
                             result="hit") == hits + 2
        with pytest.raises(MappingError):
            PlanTraceMap(self._graph(), [self._event(99)])
        assert counter_value(families.MAPPING_LOOKUPS,
                             result="miss") == misses + 1


# ---------------------------------------------------------------------------
# the server stats verb and the CLI
# ---------------------------------------------------------------------------


class TestServerStats:
    @pytest.fixture(scope="class")
    def server(self):
        from repro.server import Database, Mserver
        from repro.tpch import populate

        db = Database(workers=2, mitosis_threshold=50)
        populate(db.catalog, scale_factor=0.02, seed=2)
        with Mserver(db) as server:
            yield server

    def test_stats_verb_returns_full_catalog(self, server):
        from repro.server import MClient

        with MClient(port=server.port) as client:
            client.query("select count(*) from lineitem")
            stats = client.stats()
        assert set(stats) == set(REGISTRY.families())
        requests = {
            s["labels"]["op"]: s["value"]
            for s in stats["repro_server_requests_total"]["samples"]
        }
        assert requests.get("query", 0) >= 1
        latency = stats["repro_server_query_usec"]["samples"][0]
        assert latency["count"] >= 1 and latency["sum"] > 0

    def test_connection_metrics_move(self, server):
        from repro.server import MClient

        before = counter_value(families.SERVER_CONNECTIONS)
        with MClient(port=server.port) as client:
            client.ping()
        assert counter_value(families.SERVER_CONNECTIONS) >= before + 1

    def test_errors_counted_by_op(self, server):
        from repro.errors import ServerError
        from repro.server import MClient

        # a verb the protocol does not have is counted as "invalid":
        # the peer does not get to mint label values
        before = counter_value(families.SERVER_REQUEST_ERRORS, op="invalid")
        with MClient(port=server.port) as client:
            with pytest.raises(ServerError):
                client._call({"op": "bogus"})
        # the error counter update happens before the response is sent
        assert counter_value(families.SERVER_REQUEST_ERRORS,
                             op="invalid") == before + 1

    def test_cli_metrics_fetches_from_server(self, server):
        out = io.StringIO()
        code = cli_main(["metrics", "--port", str(server.port)], out=out)
        assert code == 0
        text = out.getvalue()
        assert "# TYPE repro_server_requests_total counter" in text
        assert "repro_server_connections_total" in text


class TestCliMetricsLocal:
    def test_dumps_full_catalog(self):
        out = io.StringIO()
        code = cli_main(["metrics"], out=out)
        assert code == 0
        text = out.getvalue()
        for name in REGISTRY.families():
            assert name in text

    def test_snapshot_module_helper(self):
        snap = snapshot()
        assert set(snap) == set(REGISTRY.families())
        json.dumps(snap)  # wire-safe
