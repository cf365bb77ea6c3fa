"""Chaos tests for the online monitor: out-of-order, duplicated and
lossy streams must converge to the in-order coloring, and the full
seeded sweep must satisfy the harness invariants."""

import random

import pytest

from repro.core.coloring import PairSequenceColorizer
from repro.core.online import (
    OnlineSession,
    analyze_stream,
    interpolate_pairs,
)
from repro.core.textual import TextualStethoscope
from repro.faults import FaultPlan, armed, disarm
from repro.profiler.events import TraceEvent
from repro.server import Database, MClient, Mserver
from repro.tpch import populate


@pytest.fixture(scope="module")
def database():
    db = Database(workers=2, mitosis_threshold=50)
    populate(db.catalog, scale_factor=0.02, seed=3)
    return db


@pytest.fixture()
def server(database):
    with Mserver(database) as srv:
        yield srv


@pytest.fixture(autouse=True)
def always_disarm():
    yield
    disarm()


def recorded_trace(database, sql="select count(*) from lineitem "
                                 "where l_quantity > 10"):
    """A real in-order trace, captured through the profiler."""
    from repro.profiler import Profiler

    profiler = Profiler()
    database.execute(sql, listener=profiler)
    return list(profiler.events)


def final_coloring(events):
    """Each pc's final colour after a full stream + finish."""
    colorizer = PairSequenceColorizer()
    for event in events:
        colorizer.push(event)
    colorizer.finish()
    final = {}
    for action in colorizer.actions:
        final[action.pc] = action.color.to_hex()
    return final


class TestShuffledStreamsConverge:
    """Property-style: any seeded shuffle/duplication of a recorded
    trace must normalise back to the in-order coloring."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_shuffle_recovers_in_order_coloring(self, database, seed):
        events = recorded_trace(database)
        reference = final_coloring(events)
        rng = random.Random(seed)
        jumbled = list(events)
        rng.shuffle(jumbled)
        ordered, health = analyze_stream(jumbled)
        assert ordered == events
        assert health.gaps == 0 and health.duplicates == 0
        assert health.out_of_order > 0  # the shuffle was real
        assert final_coloring(ordered) == reference

    @pytest.mark.parametrize("seed", [10, 11, 12, 13])
    def test_duplication_recovers_in_order_coloring(self, database, seed):
        events = recorded_trace(database)
        reference = final_coloring(events)
        rng = random.Random(seed)
        noisy = list(events)
        for event in rng.sample(events, k=len(events) // 3):
            noisy.insert(rng.randrange(len(noisy) + 1), event)
        rng.shuffle(noisy)
        ordered, health = analyze_stream(noisy)
        assert ordered == events
        assert health.duplicates == len(events) // 3
        assert final_coloring(ordered) == reference

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_lost_starts_interpolated(self, database, seed):
        events = recorded_trace(database)
        reference = final_coloring(events)
        rng = random.Random(seed)
        victims = {e.event for e in rng.sample(
            [e for e in events if e.status == "start"], k=3)}
        damaged = [e for e in events if e.event not in victims]
        ordered, health = analyze_stream(damaged)
        assert health.gaps == 3
        clean, added = interpolate_pairs(ordered)
        assert added == 3
        statuses = {}
        for event in clean:
            statuses.setdefault(event.pc, []).append(event.status)
        assert all("start" in s and "done" in s
                   for s in statuses.values())
        # interpolated starts sit at (or before) their done event
        for pc, seq in statuses.items():
            assert seq.index("start") < seq.index("done")
        # the repaired coloring matches the undamaged one
        assert final_coloring(clean) == reference

    def test_completeness_score_matches_loss(self):
        events = [TraceEvent(event=i, clock_usec=i * 10,
                             status="start" if i % 2 == 0 else "done",
                             pc=i // 2, thread=0, usec=5, rss_bytes=0,
                             stmt="algebra.select(X_1,1)")
                  for i in range(100)]
        kept = [e for e in events if e.event % 10 != 3]  # lose 10%
        _ordered, health = analyze_stream(kept)
        assert health.distinct == 90
        assert health.gaps == 10
        assert health.completeness == pytest.approx(0.9)
        assert health.degraded


class TestDegradedSession:
    def _run(self, server, tmp_path, timeout_s=15.0):
        textual = TextualStethoscope()
        connection = textual.connect("chaos")

        def run_query():
            with MClient(port=server.port, retries=2,
                         backoff_base_s=0.01, retry_seed=1) as client:
                client.set_profiler(port=connection.port)
                return client.query("select count(*) from lineitem "
                                    "where l_quantity > 10").rows

        session = OnlineSession(connection, run_query, str(tmp_path))
        try:
            return session.run(timeout_s=timeout_s, settle_s=0.3)
        finally:
            textual.close()

    def test_lost_end_marker_does_not_hang(self, server, tmp_path):
        import time

        from repro.metrics.families import ONLINE_DEGRADED

        before = ONLINE_DEGRADED.value()
        # drop only the end-of-stream marker: limit the drop rule to
        # fire exactly once, on the last datagram (the END), by giving
        # it probability 1 after a "latency" no-op... simplest reliable
        # recipe: drop everything after the trace, i.e. arm drop with
        # a generous rule limited to kind "end" is not expressible, so
        # drop @1.0 with limit=1 only kills the first line — instead
        # run with heavy drop so END statistically dies, and accept
        # either a clean or degraded finish, asserting only "no hang".
        plan = FaultPlan(seed=4).on("udp.emit", "drop", probability=0.35)
        began = time.monotonic()
        with armed(plan):
            result = self._run(server, tmp_path, timeout_s=15.0)
        elapsed = time.monotonic() - began
        assert elapsed < 10.0  # never waits out the full timeout
        assert result.health is not None
        if not result.health.ended:
            assert result.degraded
            assert ONLINE_DEGRADED.value() > before
        assert 0.0 <= result.health.completeness <= 1.0

    def test_degraded_coloring_matches_clean_run(self, server, tmp_path):
        clean = self._run(server, tmp_path)
        assert clean.health is not None and not clean.degraded
        reference = final_coloring(clean.events)
        plan = FaultPlan(seed=8).on("udp.emit", "reorder",
                                    probability=0.3)
        with armed(plan):
            chaotic = self._run(server, tmp_path)
        assert plan.journal  # reordering actually happened
        assert chaotic.health is not None
        # reordered-only streams lose nothing: full completeness...
        assert chaotic.health.completeness == 1.0
        # ...and the normalised stream converges to the clean coloring
        assert final_coloring(chaotic.clean_events) == reference
        if chaotic.painter is not None and clean.painter is not None:
            # when the dot shipment survived too, the repainted nodes
            # agree with the clean run's
            assert {n: c.to_hex()
                    for n, c in chaotic.painter.rendered.items()} == \
                {n: c.to_hex()
                 for n, c in clean.painter.rendered.items()}

    @pytest.mark.parametrize("order", (("s1", "d1", "s2", "d2"),
                                       ("s1", "s2", "d1", "d2")))
    def test_degraded_repaint_leaves_no_stale_colour(self, order, tmp_path):
        """The live painter colours n1 RED when start 2 overtakes it; the
        repaint from the in-order stream paints nothing, so the glyphs
        must all be white again, as after the in-order run."""

        def event(seq, status, pc):
            return TraceEvent(event=seq, clock_usec=seq * 100,
                              status=status, pc=pc, thread=0,
                              usec=10 if status == "done" else 0,
                              rss_bytes=1024, stmt=f"X_{pc} := algebra.op();")

        stream = {"s1": event(0, "start", 1), "d1": event(1, "done", 1),
                  "s2": event(2, "start", 2), "d2": event(3, "done", 2)}
        textual = TextualStethoscope()
        connection = textual.connect("finished")
        connection.dot_lines = ['digraph g { n1 [label="a"];',
                                'n2 [label="b"]; n1 -> n2 }']
        connection.events = [stream[name] for name in order]
        connection.ended = True
        session = OnlineSession(connection, lambda: None, str(tmp_path))
        result = session.run(timeout_s=5.0)
        textual.close()
        assert result.degraded == (order[1] == "s2")
        assert result.painter.rendered == {}
        assert {node: result.space.shape_of(node).fill.to_hex()
                for node in result.space.node_ids()} == \
            {"n1": "#ffffff", "n2": "#ffffff"}

    def test_degraded_true_swallows_silent_stream(self, tmp_path):
        textual = TextualStethoscope()
        connection = textual.connect("silent")
        session = OnlineSession(connection, lambda: None, str(tmp_path))
        result = session.run(timeout_s=5.0, settle_s=0.2)
        textual.close()
        assert result.health is not None
        assert not result.health.ended
        assert result.degraded
        assert result.events == []


class TestDurabilityChaosCase:
    """One durability-chaos case is self-contained: it builds its own
    WAL-backed database + server, crash-loops it, and needs no shared
    sweep server at all."""

    def test_single_case_crash_loops_and_recovers(self):
        from repro.faults.chaos import run_case

        case = run_case(None, seed=1, mix="durability-chaos")
        assert case.ok, case.violations
        assert case.fault_fires > 0
        assert 0.0 < case.completeness <= 1.0

    def test_replay_is_deterministic(self):
        from repro.faults.chaos import run_case

        first = run_case(None, seed=2, mix="durability-chaos")
        second = run_case(None, seed=2, mix="durability-chaos")
        assert first.ok and second.ok
        assert first.journal == second.journal


class TestAcceptanceSweep:
    """The acceptance criterion: >= 20 seeds x every mix (including the
    lifecycle mixes ``overload``/``slow-query``), zero hangs, typed
    errors only, replays byte-identical for the deterministic mixes."""

    def test_full_sweep(self, tmp_path):
        from repro.faults.chaos import MIXES, REPLAY_EXEMPT, run_sweep

        seeds = list(range(20))
        report = run_sweep(seeds, mixes=list(MIXES), scale=0.01,
                           workdir=str(tmp_path), wall_cap_s=20.0,
                           replay_sample=1)
        assert len(report.cases) == 20 * len(MIXES)
        assert report.ok, report.render()
        assert report.replay_checked == len(MIXES) - len(REPLAY_EXEMPT)
        assert report.replay_mismatches == 0
        for case in report.cases:
            assert case.wall_s < 20.0
            assert case.outcome in ("rows", "typed-error")
        # the harness genuinely interfered somewhere
        assert any(case.fault_fires for case in report.cases)
        assert any(case.completeness < 1.0 for case in report.cases
                   if case.mix == "drop10")
        # the lifecycle mixes exercised their invariants on every seed
        assert sum(1 for c in report.cases if c.mix == "overload") == 20
        assert all(c.outcome == "typed-error" for c in report.cases
                   if c.mix == "slow-query")
        # the durability mix crash-looped a private WAL-backed server on
        # every seed (byte-identity of recovery vs the acked prefix is a
        # violation, so report.ok above already enforces it); across the
        # sweep the persistence fault sites genuinely interfered
        durable_cases = [c for c in report.cases
                         if c.mix == "durability-chaos"]
        assert len(durable_cases) == 20
        assert any(site.startswith("persist.")
                   for c in durable_cases for site, _a, _d in c.journal)
        assert all(c.completeness > 0.0 for c in durable_cases)
