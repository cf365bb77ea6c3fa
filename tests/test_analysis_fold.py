"""Live equals file: every view of a :class:`TraceAnalyzer` fed one event
at a time equals the same view of the analyzer built from the trace so
far, at every prefix of a random start/done stream."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import TraceAnalyzer
from repro.profiler.events import TraceEvent

MODULES = ("sql", "algebra", "aggr", "bat")


@st.composite
def streams(draw):
    size = draw(st.integers(min_value=0, max_value=24))
    events = []
    for seq in range(size):
        pc = draw(st.integers(min_value=0, max_value=6))  # pcs repeat
        module = draw(st.sampled_from(MODULES))
        function = draw(st.sampled_from(("f", "g")))
        events.append(TraceEvent(
            event=seq,
            clock_usec=draw(st.integers(min_value=0, max_value=5000)),
            status=draw(st.sampled_from(("start", "done"))),
            pc=pc,
            thread=draw(st.integers(min_value=0, max_value=3)),
            usec=draw(st.integers(min_value=0, max_value=2000)),
            rss_bytes=draw(st.integers(min_value=0, max_value=1 << 20)),
            stmt=f"X_{pc} := {module}.{function}(X_1);",
        ))
    return events


def views(fold, whole):
    """Every view of ``fold``, with default and non-default arguments."""
    half = fold.makespan_usec // 2
    return {
        "thread_utilization": fold.thread_utilization(),
        "per_operator": fold.per_operator(),
        "memory_by_operator": fold.memory_by_operator(),
        "per_instruction": fold.per_instruction(),
        "costly_instructions": fold.costly_instructions(),
        "costly_instructions(2)": fold.costly_instructions(top=2),
        "costly_clusters": fold.costly_clusters(),
        "costly_clusters(0.5)": fold.costly_clusters(fraction=0.5),
        "parallelism_profile": fold.parallelism_profile(),
        "sequential_anomaly": fold.sequential_anomaly(expected_threads=4),
        "rss_timeline": fold.rss_timeline(),
        "rss_timeline(7)": fold.rss_timeline(buckets=7),
        "rss_sparkline": fold.rss_sparkline(),
        "rss_sparkline(9)": fold.rss_sparkline(width=9),
        "compare": fold.compare(whole),
        "compared": whole.compare(fold),
        "percentile": [fold.percentile(q) for q in (0, 50, 90, 100)],
        "window": fold.window(0, half).summary(),
        "window(late)": fold.window(half, fold.makespan_usec).to_csv(),
        "summary": fold.summary(),
        "to_csv": fold.to_csv(),
        "segments": fold.segments(),
    }


@settings(max_examples=80, deadline=None)
@given(streams())
def test_pushed_views_equal_the_file_views_at_every_prefix(events):
    whole = TraceAnalyzer(events)
    live = TraceAnalyzer()
    assert views(live, whole) == views(TraceAnalyzer([]), whole)
    for k, event in enumerate(events, start=1):
        live.push(event)
        assert views(live, whole) == views(TraceAnalyzer(events[:k]), whole)


def test_a_view_read_mid_stream_is_not_changed_by_later_pushes():
    live = TraceAnalyzer()
    live.push(TraceEvent(0, 10, "done", 0, 0, 10, 5, "X_0 := sql.f();"))
    segments = live.segments()
    operators = live.per_operator()
    live.push(TraceEvent(1, 30, "done", 1, 0, 20, 9, "X_1 := sql.f();"))
    assert segments[0].count == 1 and operators[0].calls == 1
    assert live.segments()[0].count == 2
