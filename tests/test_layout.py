"""Tests for the Sugiyama layout engine."""

import bisect
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dot import Digraph, parse_dot, plan_to_graph
from repro.layout import LayeredLayout, layout_graph
from repro.layout.acyclic import acyclic_orientation
from repro.layout.geometry import node_size_for_label
from repro.layout.ordering import (
    count_crossings,
    insert_virtual_nodes,
    minimize_crossings,
)
from repro.layout.rank import assign_ranks, layers_from_ranks
from repro.mal.parser import parse_instruction_text
from repro.workloads import synthetic_plan

from tests.boxes import boxes, lines
from tests.test_layout_golden import dense_random_dag, dot_inputs


def diamond():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    g.add_edge("b", "d")
    g.add_edge("c", "d")
    return g


def numbered(graph):
    """The integer input ``LayeredLayout.layout`` hands the ordering
    phases: real nodes numbered ``0 .. n-1`` in graph order."""
    node_ids = list(graph.nodes)
    number = {node_id: index for index, node_id in enumerate(node_ids)}
    oriented, _ = acyclic_orientation(graph)
    ranks = assign_ranks(node_ids, oriented)
    return (
        [ranks[node_id] for node_id in node_ids],
        [[number[node_id] for node_id in layer]
         for layer in layers_from_ranks(ranks)],
        [(number[src], number[dst]) for src, dst in oriented],
    )


def pairwise_crossings(layers, segments):
    """The definition ``count_crossings`` must agree with: in each gap
    between adjacent layers, the pairs of segments whose source and
    destination positions are strictly in opposite order (so segments
    sharing an endpoint never cross).  Quadratic; the test oracle."""
    position = {}
    layer_of = {}
    for index, layer in enumerate(layers):
        for pos, node in enumerate(layer):
            position[node] = pos
            layer_of[node] = index
    by_gap = {}
    for src, dst in segments:
        by_gap.setdefault(layer_of[src], []).append(
            (position[src], position[dst]))
    total = 0
    for pairs in by_gap.values():
        pairs.sort()
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                if pairs[i][0] != pairs[j][0] and pairs[i][1] > pairs[j][1]:
                    total += 1
    return total


class TestAcyclic:
    def test_dag_untouched(self):
        oriented, reversed_indices = acyclic_orientation(diamond())
        assert reversed_indices == set()
        assert len(oriented) == 4

    def test_cycle_broken(self):
        g = Digraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "a")
        oriented, reversed_indices = acyclic_orientation(g)
        assert len(reversed_indices) == 1
        ranks = assign_ranks(list(g.nodes), oriented)
        for src, dst in oriented:
            assert ranks[src] < ranks[dst]

    def test_self_loop_dropped_from_orientation(self):
        g = Digraph()
        g.add_edge("a", "a")
        g.add_edge("a", "b")
        oriented, _ = acyclic_orientation(g)
        assert ("a", "a") not in oriented


class TestRanking:
    def test_diamond_ranks(self):
        g = diamond()
        oriented, _ = acyclic_orientation(g)
        ranks = assign_ranks(list(g.nodes), oriented)
        assert ranks == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_edges_point_downward(self):
        program = parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","t","x",0);
            X_3 := algebra.select(X_2,1);
            sql.exportResult(X_3);
        """)
        g = plan_to_graph(program)
        oriented, _ = acyclic_orientation(g)
        ranks = assign_ranks(list(g.nodes), oriented)
        for src, dst in oriented:
            assert ranks[src] < ranks[dst]

    def test_source_pulled_toward_consumer(self):
        # a -> b -> c -> d ; e -> d : e should sit at rank 2, not 0
        g = Digraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "d")
        g.add_edge("e", "d")
        oriented, _ = acyclic_orientation(g)
        ranks = assign_ranks(list(g.nodes), oriented)
        assert ranks["e"] == ranks["d"] - 1

    def test_layers_dense(self):
        ranks = {"a": 0, "b": 2, "c": 1}
        layers = layers_from_ranks(ranks)
        assert layers == [["a"], ["c"], ["b"]]


class TestOrdering:
    def test_virtual_nodes_for_long_edges(self):
        g = Digraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")  # spans 2 ranks
        ranks, layers, edges = numbered(g)
        seg = insert_virtual_nodes(ranks, layers, edges)
        # a, b, c are 0, 1, 2; the one virtual node is numbered next
        assert seg.size == 4
        assert seg.edge_paths == [[0, 1], [1, 2], [0, 3, 2]]
        assert seg.segments == []
        layer_of = {node: index for index, layer in enumerate(seg.layers)
                    for node in layer}
        assert all(layer_of[d] - layer_of[s] == 1 for s, d in seg.edges)

    def test_segment_for_edges_spanning_three_ranks(self):
        """a -> b -> c -> d -> e plus a -> e: one p-vertex below a, one
        q-vertex above e, and the segment between passes rank 2 in a
        container."""
        g = Digraph()
        for src, dst in ("ab", "bc", "cd", "de", "ae"):
            g.add_edge(src, dst)
        ranks, layers, edges = numbered(g)
        seg = insert_virtual_nodes(ranks, layers, edges)
        assert seg.size == 7
        assert seg.edge_paths[-1] == [0, 5, 6, 4]
        assert seg.segments == [(5, 6)]
        assert seg.layers == [[0], [1, 5], [2, [5]], [3, 6], [4]]
        assert (0, 5) in seg.edges and (6, 4) in seg.edges

    def test_count_crossings_known_case(self):
        layers = [[0, 1], [2, 3]]
        crossing = [(0, 3), (1, 2)]
        straight = [(0, 2), (1, 3)]
        assert count_crossings(layers, crossing) == 1
        assert count_crossings(layers, straight) == 0

    def test_virtual_ids_avoid_real_node_ids(self):
        """A plan may name a node ``__v0``; it keeps its own box and its
        one place in its layer."""
        g = Digraph()
        g.add_edge("a", "__v0")
        g.add_edge("__v0", "c")
        g.add_edge("a", "c")  # long edge: needs one virtual node
        ranks, layers, edges = numbered(g)
        seg = insert_virtual_nodes(ranks, layers, edges)
        assert seg.size == 4
        assert sorted(seg.layers[1]) == [1, 3]  # the plan's __v0, then ours
        layout = layout_graph(g)
        box = boxes(layout)["__v0"]
        assert box.width >= 40.0
        assert box.height >= 30.0
        bend_x, bend_y = layout.polylines[2][1]
        assert not box.contains(bend_x, bend_y)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_count_crossings_matches_pairwise_definition(self, data):
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=5))
        starts = [sum(sizes[:depth]) for depth in range(len(sizes))]
        layers = [list(range(start, start + size))
                  for start, size in zip(starts, sizes)]
        # small layers and many draws: shared sources, shared
        # destinations and duplicate segments all occur
        segments = [
            (data.draw(st.sampled_from(upper)), data.draw(st.sampled_from(lower)))
            for upper, lower in zip(layers, layers[1:])
            for _ in range(data.draw(st.integers(0, 12)))
        ]
        data.draw(st.randoms(use_true_random=False)).shuffle(segments)
        assert count_crossings(layers, segments) == \
            pairwise_crossings(layers, segments)

    def test_count_crossings_is_not_quadratic(self):
        """One gap, 20 000 segments: the pairwise loop needs ~2e8 steps."""
        upper = list(range(5000))
        lower = list(range(5000, 10000))
        # 4 segments per source, destinations scattered by a stride
        segments = [(upper[i % 5000], lower[(i * 7919) % 5000])
                    for i in range(20000)]
        began = time.perf_counter()
        crossings = count_crossings([upper, lower], segments)
        assert time.perf_counter() - began < 2.0
        assert crossings > 10 ** 7

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_renaming_nodes_moves_nothing(self, data):
        """The layout depends on graph order, never on node names: a
        rename, also to names like ``__v3``, keeps every box, every
        polyline and the crossing count."""
        count = data.draw(st.integers(1, 12))
        order = data.draw(st.permutations(range(count)))
        # edges point from the lower index to the higher (a DAG; equal
        # indices make self-loops), while nodes join in a drawn order
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, count - 1), st.integers(0, count - 1))
            .map(sorted), max_size=3 * count))
        names = data.draw(st.lists(
            st.one_of(st.integers(0, 40).map(lambda k: f"__v{k}"),
                      st.text("abn_v0123456789", min_size=1, max_size=4)),
            min_size=count, max_size=count, unique=True))

        def build(name_of):
            graph = Digraph()
            for index in order:
                graph.add_node(name_of[index], {"label": "x" * (index + 1)})
            for src, dst in pairs:
                graph.add_edge(name_of[src], name_of[dst])
            return graph

        original = [f"n{index}" for index in range(count)]
        engines = LayeredLayout(), LayeredLayout()
        before = engines[0].layout(build(original))
        after = engines[1].layout(build(names))
        assert engines[0].last_crossings == engines[1].last_crossings
        for old, new in zip(original, names):
            moved, kept = boxes(before)[old], boxes(after)[new]
            assert (moved.x, moved.y, moved.width, moved.height,
                    moved.label, moved.rank) == \
                (kept.x, kept.y, kept.width, kept.height, kept.label,
                 kept.rank)
        rename = dict(zip(original, names))
        assert [(rename[e.src], rename[e.dst], e.points)
                for e in lines(before)] == \
            [(e.src, e.dst, e.points) for e in lines(after)]

    def test_sweeps_remove_trivial_crossing(self):
        g = Digraph()
        g.add_edge("a", "y")
        g.add_edge("b", "x")
        g.add_node("dummy")  # irrelevant isolated node
        layout_engine = LayeredLayout()
        layout_engine.layout(g)
        assert layout_engine.last_crossings == 0


class TestEngine:
    def test_every_node_positioned(self):
        layout = layout_graph(diamond())
        assert set(layout.node_ids) == {"a", "b", "c", "d"}

    def test_no_overlap_within_layer(self):
        program = parse_instruction_text("""
            X_0 := sql.mvc();
            X_1 := sql.bind(X_0,"sys","t","a",0);
            X_2 := sql.bind(X_0,"sys","t","b",0);
            X_3 := sql.bind(X_0,"sys","t","c",0);
            X_4 := algebra.leftjoin(X_1,X_2);
            X_5 := algebra.leftjoin(X_4,X_3);
            sql.exportResult(X_5);
        """)
        layout = layout_graph(plan_to_graph(program))
        by_rank = {}
        for node in boxes(layout).values():
            by_rank.setdefault(node.rank, []).append(node)
        for nodes in by_rank.values():
            nodes.sort(key=lambda n: n.x)
            for left, right in zip(nodes, nodes[1:]):
                assert left.right < right.left, (
                    f"{left.node_id} overlaps {right.node_id}"
                )

    def test_edges_have_polylines(self):
        layout = layout_graph(diamond())
        assert len(layout.polylines) == 4
        assert all(len(points) >= 2 for points in layout.polylines)

    def test_dependency_flows_downward(self):
        layout = layout_graph(diamond())
        y = dict(zip(layout.node_ids, layout.ys))
        assert y["a"] < y["b"] < y["d"]

    def test_bounds_positive(self):
        layout = layout_graph(diamond())
        assert layout.width > 0 and layout.height > 0
        for node in boxes(layout).values():
            assert node.left >= 0 and node.top >= 0

    def test_empty_graph(self):
        layout = layout_graph(Digraph())
        assert layout.node_ids == [] and layout.polylines == []

    def test_single_node(self):
        g = Digraph()
        g.add_node("only", {"label": "hello"})
        layout = layout_graph(g)
        assert layout.labels == ["hello"]

    def test_self_loop_rendered(self):
        g = Digraph()
        g.add_edge("a", "a")
        layout = layout_graph(g)
        assert len(layout.polylines) == 1
        assert len(layout.polylines[0]) == 3

    def test_ring_laid_out(self):
        g = Digraph()
        for i in range(8):
            g.add_edge(f"n{i}", f"n{(i + 1) % 8}")
        layout = layout_graph(g)
        assert len(layout.node_ids) == 8 and len(layout.polylines) == 8
        assert layout.width > 0 and layout.height > 0
        assert min(layout.xs) >= 0 and min(layout.ys) >= 0

    def test_label_size_model(self):
        small_w, _ = node_size_for_label("ab")
        large_w, _ = node_size_for_label("a" * 60)
        assert large_w > small_w
        _, one_line = node_size_for_label("x")
        _, two_lines = node_size_for_label("x\ny")
        assert two_lines > one_line

    def test_thousand_node_plan(self):
        g = Digraph()
        for i in range(1, 1200):
            g.add_edge(f"n{(i - 1) // 3}", f"n{i}")
        layout = layout_graph(g)
        assert len(layout.node_ids) == 1200


def reference_order(layers, segments, max_sweeps=8):
    """The barycenter sweeps as recorded before long edges became
    segments, on dicts: ``(layer orders, crossings)``.  On a graph whose
    edges all join adjacent ranks no segment exists, so
    ``LayeredLayout`` must reproduce this exactly."""
    layers = [list(layer) for layer in layers]
    position = {node: pos for layer in layers for pos, node in enumerate(layer)}
    best_crossings = pairwise_crossings(layers, segments)
    best = [list(layer) for layer in layers]
    if best_crossings == 0:
        return best, 0
    down = {node: [] for node in position}
    up = {node: [] for node in position}
    for src, dst in segments:
        down[src].append(dst)
        up[dst].append(src)
    for sweep in range(max_sweeps):
        if sweep % 2 == 0:
            indices, neighbours = range(1, len(layers)), up
        else:
            indices, neighbours = range(len(layers) - 2, -1, -1), down
        for index in indices:
            layer = layers[index]
            barycenter = {
                node: (sum(position[n] for n in neighbours[node])
                       / len(neighbours[node]) if neighbours[node]
                       else float(pos))
                for pos, node in enumerate(layer)}
            layer.sort(key=barycenter.__getitem__)
            position.update((node, pos) for pos, node in enumerate(layer))
        crossings = pairwise_crossings(layers, segments)
        if crossings < best_crossings:
            best_crossings = crossings
            best = [list(layer) for layer in layers]
        if crossings == 0:
            break
    return best, best_crossings


def layer_orders(layout):
    """Each rank's real nodes, left to right."""
    by_rank = {}
    for node in boxes(layout).values():
        by_rank.setdefault(node.rank, []).append(node)
    return {rank: [node.node_id for node in sorted(nodes, key=lambda n: n.x)]
            for rank, nodes in by_rank.items()}


def check_drawing(graph, layout):
    """What every drawing keeps, however it places things: boxes of a
    rank never overlap, a polyline runs one way in y, and no bend sits
    inside a box its edge does not end at."""
    rows = {}
    for node in boxes(layout).values():
        rows.setdefault(node.rank, []).append(node)
    bands = []  # (top, bottom, lefts, nodes) per rank, sorted by top
    for nodes in rows.values():
        nodes.sort(key=lambda n: n.x)
        for left, right in zip(nodes, nodes[1:]):
            assert left.right < right.left, (left.node_id, right.node_id)
        bands.append((min(n.top for n in nodes), max(n.bottom for n in nodes),
                      [n.left for n in nodes], nodes))
    bands.sort(key=lambda band: band[0])
    tops = [band[0] for band in bands]
    assert len(layout.polylines) == graph.edge_count()
    for edge in lines(layout):
        ys = [y for _x, y in edge.points]
        assert ys == sorted(ys) or ys == sorted(ys, reverse=True), edge
        for x, y in edge.points[1:-1]:
            band = bisect.bisect_right(tops, y) - 1
            if band < 0 or y > bands[band][1]:
                continue
            _top, _bottom, lefts, nodes = bands[band]
            at = bisect.bisect_left(lefts, x) - 1
            for node in nodes[max(at, 0):at + 2]:
                if node.node_id in (edge.src, edge.dst):
                    continue
                assert not (node.left < x < node.right
                            and node.top < y < node.bottom), \
                    (edge.src, edge.dst, (x, y), node.node_id)


@st.composite
def random_graphs(draw):
    """Small digraphs: mostly forward edges (long ones included), some
    backward ones that close cycles, self-loops, isolated nodes and
    labels of varied width."""
    count = draw(st.integers(1, 14))
    graph = Digraph()
    for index in range(count):
        graph.add_node(f"n{index}", {"label": "x" * draw(st.integers(1, 30))})
    pairs = draw(st.lists(st.tuples(st.integers(0, count - 1),
                                    st.integers(0, count - 1)),
                          max_size=3 * count))
    backward = draw(st.integers(0, 3))
    for number, (src, dst) in enumerate(pairs):
        if number >= backward:
            src, dst = min(src, dst), max(src, dst)
        graph.add_edge(f"n{src}", f"n{dst}")
    return graph


@st.composite
def adjacent_rank_graphs(draw):
    """Layered DAGs whose every edge joins adjacent ranks: each node
    below the top layer has a parent in the layer above it."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    graph = Digraph()
    layers = [[f"r{depth}_{i}" for i in range(size)]
              for depth, size in enumerate(sizes)]
    for layer in layers:
        for node in draw(st.permutations(layer)):
            graph.add_node(node)
    for upper, lower in zip(layers, layers[1:]):
        edges = [(draw(st.sampled_from(upper)), node) for node in lower]
        edges += draw(st.lists(st.tuples(st.sampled_from(upper),
                                         st.sampled_from(lower)),
                               max_size=3 * len(lower)))
        for src, dst in draw(st.permutations(edges)):
            graph.add_edge(src, dst)
    return graph


def check_adjacent_rank_order(graph):
    """``graph``'s edges all join adjacent ranks: its layer orders and
    crossings are the reference sweeps', node for node."""
    ranks, layers, edges = numbered(graph)
    assert all(ranks[dst] - ranks[src] == 1 for src, dst in edges)
    expected, crossings = reference_order(layers, edges)
    engine = LayeredLayout()
    orders = layer_orders(engine.layout(graph))
    node_ids = list(graph.nodes)
    assert [orders[rank] for rank in range(len(expected))] == \
        [[node_ids[node] for node in layer] for layer in expected]
    assert engine.last_crossings == crossings


class TestDrawingProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_graphs())
    def test_random_graph_drawings(self, graph):
        check_drawing(graph, layout_graph(graph))

    @settings(max_examples=150, deadline=None)
    @given(adjacent_rank_graphs())
    def test_adjacent_rank_orders_match_reference(self, graph):
        check_adjacent_rank_order(graph)

    def test_dense_random_dag_matches_reference(self):
        """Span 1 everywhere and 1041 crossings: every sweep has work."""
        graph = dense_random_dag()
        check_adjacent_rank_order(graph)
        engine = LayeredLayout()
        engine.layout(graph)
        assert engine.last_crossings == 1041

    def test_large_plan_draws_without_crossings(self):
        engine = LayeredLayout()
        engine.layout(plan_to_graph(synthetic_plan(chains=143)))
        assert engine.last_crossings == 0


@pytest.fixture(scope="module")
def golden_inputs():
    return dot_inputs()


@pytest.mark.parametrize("name", [
    f"{q}_w{w}" for w in (2, 8) for q in ("q6", "q1", "q3", "q5", "q18")]
    + ["synthetic_13", "synthetic_40", "synthetic_143", "dense_random_dag"])
def test_golden_input_drawings(golden_inputs, name):
    graph = parse_dot(golden_inputs[name])
    check_drawing(graph, layout_graph(graph))


def expanded(layers, edges, segments):
    """The same arrangement with one virtual node per segment and rank
    it passes, named ``(p, rank)``: the graph the containers stand for."""
    layer_of = {item: index for index, layer in enumerate(layers)
                for item in layer if isinstance(item, int)}
    plain = [[node for item in layer
              for node in ([item] if isinstance(item, int)
                           else [(p, index) for p in item])]
             for index, layer in enumerate(layers)]
    chains = list(edges)
    for p, q in segments:
        chain = [p] + [(p, rank) for rank in range(layer_of[p] + 1,
                                                   layer_of[q])] + [q]
        chains += zip(chain, chain[1:])
    return plain, chains


class TestSegments:
    @settings(max_examples=150, deadline=None)
    @given(random_graphs())
    def test_count_matches_the_expanded_graph(self, graph):
        """Counting over containers gives the crossings of the graph
        with a virtual node per segment and rank, before and after the
        sweeps: segments keep one order in every rank they share."""
        ranks, layers, edges = numbered(graph)
        seg = insert_virtual_nodes(ranks, layers, edges)
        for arrangement in (seg.layers, minimize_crossings(seg)):
            plain, chains = expanded(arrangement, seg.edges, seg.segments)
            assert count_crossings(arrangement, seg.edges + seg.segments) \
                == pairwise_crossings(plain, chains)
            # a pair of segments is in one order in every rank they share
            before = {(a[0], b[0]) for layer in plain
                      for index, a in enumerate(layer) if isinstance(a, tuple)
                      for b in layer[index + 1:] if isinstance(b, tuple)}
            assert not any((b, a) in before for a, b in before)


def check_long_edges(graph, layout):
    """An edge spanning three ranks or more is drawn with four points,
    its p -> q run is vertical, and the run passes no box of the ranks
    between (except boxes it ends at)."""
    box_of = boxes(layout)
    long_edges = 0
    for edge in lines(layout):
        src, dst = box_of[edge.src], box_of[edge.dst]
        if edge.src == edge.dst or abs(dst.rank - src.rank) < 3:
            continue
        long_edges += 1
        assert len(edge.points) == 4, edge
        _start, (px, py), (qx, qy), _end = edge.points
        assert px == qx, edge
        low, high = min(py, qy), max(py, qy)
        for box in box_of.values():
            if box.node_id in (edge.src, edge.dst):
                continue
            if box.bottom > low and box.top < high:
                assert not box.left <= px <= box.right, (edge, box.node_id)
    return long_edges


class TestLongEdges:
    @settings(max_examples=150, deadline=None)
    @given(random_graphs())
    def test_random_graph_long_edges(self, graph):
        check_long_edges(graph, layout_graph(graph))

    def test_large_plan_long_edges(self):
        graph = plan_to_graph(synthetic_plan(chains=143))
        assert check_long_edges(graph, layout_graph(graph)) == 140


@pytest.mark.parametrize("name", [
    f"{q}_w{w}" for w in (2, 8) for q in ("q6", "q1", "q3", "q5", "q18")]
    + ["synthetic_13", "synthetic_40", "synthetic_143", "dense_random_dag"])
def test_golden_input_long_edges(golden_inputs, name):
    graph = parse_dot(golden_inputs[name])
    check_long_edges(graph, layout_graph(graph))


class TestBounds:
    """``Layout.width`` / ``height`` hold every polyline point, so an SVG
    drawn at that size clips no edge."""

    def check(self, graph):
        layout = layout_graph(graph)
        for points in layout.polylines:
            for x, y in points:
                assert 0 <= x <= layout.width, (points, layout.width)
                assert 0 <= y <= layout.height, (points, layout.height)

    def test_self_loop(self):
        g = Digraph()
        g.add_edge("a", "a")
        self.check(g)

    def test_bend_beside_the_boxes(self):
        g = Digraph()
        for src, dst in ("ab", "bc", "ac", "ad", "dc"):
            g.add_edge(src, dst)
        self.check(g)

    @settings(max_examples=100, deadline=None)
    @given(random_graphs())
    def test_random_graphs(self, graph):
        self.check(graph)
