"""Property-based tests (hypothesis) over the core data structures and
invariants: BAT algebra laws, parser round-trips, layout invariants,
colouring-algorithm safety, and optimizer answer preservation."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.coloring import PairSequenceColorizer
from repro.dot import Digraph, graph_to_dot, parse_dot
from repro.layout import layout_graph
from repro.mal import Interpreter, format_program, parse_program
from repro.mal.optimizer import sequential_pipe
from repro.profiler.events import TraceEvent, format_event, parse_event
from repro.storage import BAT, INT, STR, Catalog, nil
from repro.storage.types import format_value, parse_value
from repro.viz.color import GREEN, RED, Color

from tests.boxes import boxes


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

ints_or_nil = st.one_of(st.integers(-1000, 1000), st.none())
int_lists = st.lists(st.integers(-1000, 1000), max_size=60)
nilable_lists = st.lists(ints_or_nil, max_size=60)


def bats(values=int_lists):
    return values.map(lambda vs: BAT(INT, vs))


# ---------------------------------------------------------------------------
# BAT invariants
# ---------------------------------------------------------------------------


class TestBatProperties:
    @given(nilable_lists, st.integers(-500, 500), st.integers(-500, 500))
    def test_select_returns_subset_within_bounds(self, values, a, b):
        low, high = min(a, b), max(a, b)
        bat = BAT(INT, values)
        out = bat.select(low, high)
        assert all(low <= v <= high for v in out.tail)
        assert out.count() <= bat.count()

    @given(nilable_lists)
    def test_select_unbounded_drops_only_nils(self, values):
        bat = BAT(INT, values)
        out = bat.select(nil, nil)
        assert out.count() == sum(1 for v in values if v is not None)

    @given(int_lists)
    def test_sort_is_permutation_and_ordered(self, values):
        bat = BAT(INT, values)
        out = bat.sort()
        assert sorted(values) == out.tail
        assert sorted(out.heads()) == list(range(len(values)))

    @given(int_lists)
    def test_reverse_is_involution_on_heads(self, values):
        bat = BAT(INT, [abs(v) for v in values])
        back = bat.reverse().reverse()
        assert list(back.heads()) == list(bat.heads())
        assert back.tail == bat.tail

    @given(int_lists)
    def test_group_histogram_sums_to_count(self, values):
        bat = BAT(INT, values)
        groups, extents, hist = bat.group()
        assert sum(hist.tail) == bat.count()
        assert len(extents) == len(hist)
        assert all(0 <= g < len(extents) for g in groups.tail)

    @given(int_lists)
    def test_grouped_sum_equals_scalar_sum(self, values):
        bat = BAT(INT, values)
        groups, extents, _hist = bat.group()
        sums = bat.grouped_aggregate(groups, len(extents), "sum")
        if values:
            assert sum(sums.tail) == sum(values)

    @given(nilable_lists)
    def test_mirror_heads_equal_tails(self, values):
        bat = BAT(INT, values)
        mirror = bat.mirror()
        assert list(mirror.heads()) == list(mirror.tail)

    @given(int_lists, st.integers(0, 50), st.integers(0, 50))
    def test_slice_matches_python_slice(self, values, first, length):
        bat = BAT(INT, values)
        out = bat.slice_(first, first + length - 1)
        assert out.tail == values[first:first + length]

    @given(int_lists)
    def test_calc_add_zero_is_identity(self, values):
        bat = BAT(INT, values)
        assert bat.calc_const(0, "+").tail == values

    @given(nilable_lists)
    def test_calc_preserves_length_and_nils(self, values):
        bat = BAT(INT, values)
        out = bat.calc_const(3, "*")
        assert len(out) == len(bat)
        for original, result in zip(values, out.tail):
            assert (original is None) == (result is None)


# ---------------------------------------------------------------------------
# literal / event / dot round-trips
# ---------------------------------------------------------------------------


class TestRoundTripProperties:
    @given(st.one_of(
        st.integers(-10**9, 10**9),
        st.text(max_size=40),
        st.booleans(),
        st.none(),
    ))
    def test_mal_literal_roundtrip(self, value):
        assert parse_value(format_value(value)) == value

    @given(
        st.integers(0, 10**6), st.integers(0, 10**9),
        st.sampled_from(["start", "done"]), st.integers(0, 10**4),
        st.integers(0, 64), st.integers(0, 10**7), st.integers(0, 10**9),
        st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
                max_size=60),
    )
    def test_trace_event_roundtrip(self, seq, clock, status, pc, thread,
                                   usec, rss, stmt):
        event = TraceEvent(seq, clock, status, pc, thread, usec, rss, stmt)
        assert parse_event(format_event(event)) == event

    @given(st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40,
    ))
    def test_dot_roundtrip_arbitrary_graph(self, edge_list):
        graph = Digraph("p")
        for src, dst in edge_list:
            graph.add_edge(f"n{src}", f"n{dst}")
        parsed = parse_dot(graph_to_dot(graph))
        assert set(parsed.nodes) == set(graph.nodes)
        assert parsed.edge_count() == graph.edge_count()

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_color_hex_roundtrip(self, r, g, b):
        color = Color(r, g, b)
        assert Color.from_hex(color.to_hex()) == color


# ---------------------------------------------------------------------------
# layout invariants
# ---------------------------------------------------------------------------


class TestLayoutProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        min_size=1, max_size=30,
    ))
    def test_layout_total_and_nonoverlapping(self, edge_list):
        graph = Digraph()
        for src, dst in edge_list:
            if src != dst:
                graph.add_edge(f"n{src}", f"n{dst}")
        if not graph.nodes:
            return
        layout = layout_graph(graph)
        # every node placed
        assert set(layout.node_ids) == set(graph.nodes)
        # no same-rank overlap
        by_rank = {}
        for node in boxes(layout).values():
            by_rank.setdefault(node.rank, []).append(node)
        for nodes in by_rank.values():
            nodes.sort(key=lambda n: n.x)
            for left, right in zip(nodes, nodes[1:]):
                assert left.right <= right.left + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 10)),
        min_size=1, max_size=25,
    ))
    def test_layout_every_edge_drawn(self, edge_list):
        graph = Digraph()
        for src, dst in edge_list:
            graph.add_edge(f"a{src}", f"b{dst}")
        layout = layout_graph(graph)
        assert len(layout.polylines) == graph.edge_count()
        assert all(len(points) >= 2 for points in layout.polylines)


# ---------------------------------------------------------------------------
# colouring algorithm safety
# ---------------------------------------------------------------------------


def event_stream(pairs):
    return [
        TraceEvent(event=i, clock_usec=i * 10, status=status, pc=pc,
                   thread=0, usec=5 if status == "done" else 0,
                   rss_bytes=0, stmt="x := a.b();")
        for i, (status, pc) in enumerate(pairs)
    ]


class TestColoringProperties:
    @given(st.lists(st.integers(0, 30), max_size=60))
    def test_well_nested_trace_invariants(self, pcs):
        """For any sequence built of adjacent (start,done) pairs, nothing
        is ever coloured."""
        pairs = [p for pc in pcs for p in (("start", pc), ("done", pc))]
        colorizer = PairSequenceColorizer()
        actions = []
        for event in event_stream(pairs):
            actions.extend(colorizer.push(event))
        assert actions == []

    @settings(max_examples=60)
    @given(st.lists(
        st.tuples(st.sampled_from(["start", "done"]), st.integers(0, 8)),
        max_size=60,
    ))
    def test_arbitrary_stream_safety(self, pairs):
        """On any stream: RED precedes GREEN per pc, no double-RED
        without an intervening GREEN, and actions reference seen pcs."""
        colorizer = PairSequenceColorizer()
        actions = []
        for event in event_stream(pairs):
            actions.extend(colorizer.push(event))
        actions.extend(colorizer.finish())
        seen_pcs = {pc for _s, pc in pairs}
        state = {}
        for action in actions:
            assert action.pc in seen_pcs
            if action.color == RED:
                assert state.get(action.pc) != "red"
                state[action.pc] = "red"
            elif action.color == GREEN:
                assert state.get(action.pc) == "red"
                state[action.pc] = "green"


# ---------------------------------------------------------------------------
# MAL parser / optimizer properties
# ---------------------------------------------------------------------------


class TestMalProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=30),
           st.integers(-100, 100))
    def test_optimized_plan_preserves_answer(self, values, threshold):
        catalog = Catalog()
        table = catalog.schema().create_table("t", [("x", INT)])
        table.insert_many([[v] for v in values])
        text = f"""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","t","x",0);
            X_3 := algebra.thetaselect(X_2,{threshold},">");
            X_4 := aggr.count(X_3);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.t","n","lng",X_4);
            sql.exportResult(X_10);
        """
        from repro.mal.parser import parse_instruction_text

        program = parse_instruction_text(text)
        plain = Interpreter(catalog).run(program).rows()
        optimized = sequential_pipe().apply(
            parse_instruction_text(text)
        )
        assert Interpreter(catalog).run(optimized).rows() == plain
        assert plain == [(sum(1 for v in values if v > threshold),)]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=2, max_size=40),
        st.integers(-50, 50),
        st.sampled_from(["sum", "count", "min", "max"]),
        st.integers(2, 5),
    )
    def test_mitosis_preserves_random_aggregates(self, values, threshold,
                                                 aggregate, nparts):
        """For any data, filter threshold, aggregate and partition count,
        the mitosis-partitioned parallel plan computes the same answer as
        the sequential interpreter."""
        from repro.mal.dataflow import SimulatedScheduler
        from repro.mal.optimizer import default_pipe
        from repro.mal.parser import parse_instruction_text

        catalog = Catalog()
        table = catalog.schema().create_table("t", [("x", INT)])
        table.insert_many([[v] for v in values])
        text = f"""
            X_1 := sql.mvc();
            X_2:bat[:oid,:int] := sql.bind(X_1,"sys","t","x",0);
            X_3:bat[:oid,:int] := algebra.thetaselect(X_2,{threshold},">");
            X_4 := aggr.{aggregate}(X_3);
            X_9 := sql.resultSet(1,1);
            X_10 := sql.rsColumn(X_9,"sys.t","v","lng",X_4);
            sql.exportResult(X_10);
        """
        plain = Interpreter(catalog).run(
            parse_instruction_text(text)
        ).rows()
        pipeline = default_pipe(nparts=nparts, mitosis_threshold=1)
        parallel = pipeline.apply(parse_instruction_text(text))
        result = SimulatedScheduler(catalog, workers=nparts).run(parallel)
        assert result.rows() == plain

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(
        ["sql.mvc", "language.pass", "calc.add"]
    ), min_size=1, max_size=20))
    def test_format_parse_roundtrip_random_programs(self, ops):
        from repro.mal.ast import Const, MalProgram, Var

        program = MalProgram("user.rand")
        last = None
        for op in ops:
            module, function = op.split(".")
            if op == "sql.mvc":
                last = program.call(module, function)
            elif op == "language.pass":
                args = [last] if last is not None else [Const(1)]
                program.add(module, function, args)
            else:
                args = [last or Const(1), Const(2)]
                last = program.call(module, function, args)
        text = format_program(program)
        again = parse_program(text)
        assert [i.qualified_name for i in again] == \
            [i.qualified_name for i in program]


# ---------------------------------------------------------------------------
# partition-parallel invariants
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def adaptive_env():
    """Shared catalog, two databases: a ``static_pipe`` oracle and an
    adaptive database (plan cache off so warm executions recompile
    against the stats the cold run fed back)."""
    import repro.tpch as tpch
    from repro.server.database import Database

    catalog = Catalog()
    tpch.populate(catalog, scale_factor=0.05, seed=7)
    static = Database(catalog=catalog, workers=4, mitosis_threshold=50,
                      pipeline_name="static_pipe")
    adaptive = Database(catalog=catalog, workers=4, mitosis_threshold=50,
                        pipeline_name="default_pipe", plan_cache_size=0)
    yield static, adaptive
    adaptive.close()
    static.close()


def _trace_shape(execution):
    """The execution's trace shape: the multiset of executed kernels
    (order-insensitive — adaptive reordering permutes a select chain
    but never changes which kernels run)."""
    return sorted(f"{run.module}.{run.function}"
                  for run in execution.runs)


class TestAdaptiveOrderProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_queries_agree_adaptive_on_vs_off(self, adaptive_env,
                                                     seed):
        """For any generated query, cold and warm adaptive compiles
        return byte-identical rows and the same trace event shape as the
        static pipeline."""
        import random

        from repro.workloads import random_query

        static, adaptive = adaptive_env
        sql = random_query(random.Random(seed))
        expected = static.execute(sql)
        shape = _trace_shape(expected.execution)
        for _warmth in ("cold", "warm"):
            outcome = adaptive.execute(sql)
            assert outcome.rows == expected.rows
            assert _trace_shape(outcome.execution) == shape


class TestParallelProperties:
    @settings(max_examples=50, deadline=None)
    @given(int_lists, st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_pack_of_any_partition_permutation_preserves_heads(
            self, values, nparts, seed):
        import random

        from repro.mal.modules.mat import pack

        rng = random.Random(seed)
        # split into nparts contiguous partitions with global head oids
        bounds = sorted(rng.randint(0, len(values))
                        for _ in range(nparts - 1))
        parts, start = [], 0
        for end in bounds + [len(values)]:
            parts.append(BAT(INT, values[start:end], hseqbase=start))
            start = end
        rng.shuffle(parts)
        packed = pack(None, None, parts)
        # head oid -> value survives any pack order of the partitions
        assert dict(zip(packed.heads(), packed.tail)) == \
            dict(enumerate(values))
        assert len(packed) == len(values)
