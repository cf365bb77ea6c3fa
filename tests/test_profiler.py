"""Tests for the profiler: events, filters, trace I/O and UDP streaming."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.mal import Interpreter
from repro.mal.parser import parse_instruction_text
from repro.profiler import (
    EventFilter,
    Profiler,
    TraceEvent,
    UdpEmitter,
    UdpReceiver,
    format_event,
    parse_event,
    read_trace,
    write_trace,
)
from repro.profiler.stream import DOT_PREFIX, split_stream
from repro.profiler.traceio import parse_trace_text
from repro.storage import Catalog, INT


@pytest.fixture
def catalog():
    cat = Catalog()
    t = cat.schema().create_table("t", [("x", INT)])
    t.insert_many([[i] for i in range(50)])
    return cat


def run_profiled(catalog, event_filter=None):
    profiler = Profiler(event_filter)
    program = parse_instruction_text("""
        X_1 := sql.mvc();
        X_2 := sql.bind(X_1,"sys","t","x",0);
        X_3 := algebra.thetaselect(X_2,10,">");
        X_4 := aggr.count(X_3);
        X_9 := sql.resultSet(1,1);
        X_10 := sql.rsColumn(X_9,"sys.t","n","lng",X_4);
        sql.exportResult(X_10);
    """)
    Interpreter(catalog, listener=profiler).run(program)
    return profiler


class TestEventFormat:
    def event(self, **kwargs):
        base = dict(event=3, clock_usec=1000, status="done", pc=2, thread=1,
                    usec=44, rss_bytes=2048,
                    stmt='X_2 := sql.bind(X_1,"sys","t","x",0);')
        base.update(kwargs)
        return TraceEvent(**base)

    def test_roundtrip(self):
        event = self.event()
        assert parse_event(format_event(event)) == event

    def test_roundtrip_with_backslash(self):
        event = self.event(stmt='X := calc.str("a\\\\b");')
        assert parse_event(format_event(event)) == event

    def test_module_function_extraction(self):
        assert self.event().module == "sql"
        assert self.event().function == "bind"

    def test_module_of_bare_call(self):
        event = self.event(stmt="sql.exportResult(X_30);")
        assert event.module == "sql" and event.function == "exportResult"

    def test_module_of_multiresult(self):
        event = self.event(stmt="(X_1,X_2,X_3) := group.new(X_0);")
        assert event.module == "group"

    def test_bad_line_raises(self):
        with pytest.raises(TraceFormatError):
            parse_event("[ not an event ]")

    def test_bad_status_raises(self):
        line = format_event(self.event()).replace("done", "doing")
        with pytest.raises(TraceFormatError):
            parse_event(line)


class TestProfiler:
    def test_two_events_per_instruction(self, catalog):
        profiler = run_profiled(catalog)
        assert len(profiler.events) == 14
        statuses = [e.status for e in profiler.events]
        assert statuses[::2] == ["start"] * 7
        assert statuses[1::2] == ["done"] * 7

    def test_sequence_increasing(self, catalog):
        profiler = run_profiled(catalog)
        ids = [e.event for e in profiler.events]
        assert ids == list(range(14))

    def test_pcs_match_plan(self, catalog):
        profiler = run_profiled(catalog)
        assert [e.pc for e in profiler.done_events()] == list(range(7))

    def test_done_carries_usec(self, catalog):
        profiler = run_profiled(catalog)
        assert all(e.usec >= 1 for e in profiler.done_events())
        starts = [e for e in profiler.events if e.status == "start"]
        assert all(e.usec == 0 for e in starts)

    def test_filter_by_status(self, catalog):
        profiler = run_profiled(catalog, EventFilter(statuses={"done"}))
        assert all(e.status == "done" for e in profiler.events)
        assert len(profiler.events) == 7

    def test_filter_by_module(self, catalog):
        profiler = run_profiled(catalog, EventFilter(modules={"algebra"}))
        assert {e.module for e in profiler.events} == {"algebra"}

    def test_filter_min_usec_keeps_starts(self, catalog):
        profiler = run_profiled(catalog, EventFilter(min_usec=10 ** 6))
        assert all(e.status == "start" for e in profiler.events)

    def test_filter_describe(self):
        f = EventFilter(statuses={"done"}, min_usec=5)
        assert "done" in f.describe() and "usec >= 5" in f.describe()
        assert EventFilter().describe() == "all events"

    def test_custom_sink(self, catalog):
        seen = []
        profiler = Profiler()
        profiler.add_sink(seen.append)
        program = parse_instruction_text("X_1 := sql.mvc();")
        Interpreter(catalog, listener=profiler).run(program)
        assert len(seen) == 2

    def test_reset(self, catalog):
        profiler = run_profiled(catalog)
        profiler.reset()
        assert profiler.events == [] and profiler.total_usec() == 0


class TestTraceIo:
    def test_write_read_roundtrip(self, catalog, tmp_path):
        profiler = run_profiled(catalog)
        path = str(tmp_path / "query.trace")
        count = write_trace(profiler.events, path)
        assert count == 14
        assert read_trace(path) == profiler.events

    def test_attach_file_sink(self, catalog, tmp_path):
        path = str(tmp_path / "live.trace")
        profiler = Profiler()
        profiler.attach_file(path)
        program = parse_instruction_text("X_1 := sql.mvc();")
        Interpreter(catalog, listener=profiler).run(program)
        assert len(read_trace(path)) == 2

    def test_read_reports_line_numbers(self, tmp_path):
        path = str(tmp_path / "bad.trace")
        with open(path, "w") as f:
            f.write("garbage\n")
        with pytest.raises(TraceFormatError, match="bad.trace:1"):
            read_trace(path)

    def test_parse_trace_text(self, catalog):
        profiler = run_profiled(catalog)
        text = "\n".join(format_event(e) for e in profiler.events)
        assert parse_trace_text(text) == profiler.events

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_parse_trace_text_splits_only_at_line_feeds(self, stmt):
        """A statement may hold any character; the text ends lines where a
        file does (``\\x0b``, ``\\x85`` or U+2028 split ``splitlines``)."""
        event = TraceEvent(1, 2, "done", 3, 0, 5, 6, stmt)
        assert parse_trace_text(format_event(event) + "\n") == [event]
        assert parse_trace_text(format_event(event) + "\r\n"
                                + format_event(event)) == [event, event]

    def test_parse_trace_text_names_the_line(self):
        event = format_event(TraceEvent(1, 2, "done", 3, 0, 5, 6, "a\x0cb"))
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_trace_text(event + "\n\ngarbage\n")


class TestUdpStream:
    def test_events_travel_over_udp(self, catalog):
        with UdpReceiver() as receiver:
            emitter = UdpEmitter(port=receiver.port)
            profiler = Profiler()
            profiler.add_sink(emitter)
            program = parse_instruction_text("X_1 := sql.mvc();")
            Interpreter(catalog, listener=profiler).run(program)
            emitter.send_end()
            lines = list(receiver.lines(timeout=2.0))
            emitter.close()
        assert len(lines) == 2
        assert parse_event(lines[0]).status == "start"

    def test_dot_content_framed_and_split(self):
        with UdpReceiver() as receiver:
            emitter = UdpEmitter(port=receiver.port)
            emitter.send_dot("digraph G {\nn0 -> n1;\n}")
            emitter.send_line('[ 0,\t0,\t"start",\t0,\t0,\t0,\t0,\t"x := a.b();"\t]')
            emitter.send_end()
            lines = list(receiver.lines(timeout=2.0))
            emitter.close()
        dot_lines, trace_lines = split_stream(lines)
        assert dot_lines == ["digraph G {", "n0 -> n1;", "}"]
        assert len(trace_lines) == 1

    def test_multiple_emitters_one_receiver(self):
        # the textual stethoscope supports multiple (distributed) servers
        with UdpReceiver() as receiver:
            a = UdpEmitter(port=receiver.port)
            b = UdpEmitter(port=receiver.port)
            a.send_line("#dot\tdigraph A {}")
            b.send_line("#dot\tdigraph B {}")
            seen = {receiver.try_line(1.0), receiver.try_line(1.0)}
            a.close()
            b.close()
        assert seen == {"#dot\tdigraph A {}", "#dot\tdigraph B {}"}
