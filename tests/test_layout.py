"""Tests for the Sugiyama layout engine."""

import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dot import Digraph, parse_dot, plan_to_graph
from repro.layout import LayeredLayout, layout_graph
from repro.layout.acyclic import acyclic_orientation
from repro.layout.geometry import node_size_for_label
from repro.layout.ordering import count_crossings, insert_virtual_nodes
from repro.layout.rank import assign_ranks, layers_from_ranks
from repro.mal.parser import parse_instruction_text


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
        layer_of = {node: index for index, layer in enumerate(seg.layers)
                    for node in layer}
        assert all(layer_of[d] - layer_of[s] == 1 for s, d in seg.segments)

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
        assert layout.nodes["__v0"].width >= 40.0
        assert layout.nodes["__v0"].height >= 30.0
        bend = layout.edges[2].points[1]
        assert not layout.nodes["__v0"].contains(bend.x, bend.y)

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
            moved, kept = before.nodes[old], after.nodes[new]
            assert (moved.x, moved.y, moved.width, moved.height,
                    moved.label, moved.rank) == \
                (kept.x, kept.y, kept.width, kept.height, kept.label,
                 kept.rank)
        rename = dict(zip(original, names))
        assert [(rename[e.src], rename[e.dst], e.points)
                for e in before.edges] == \
            [(e.src, e.dst, e.points) for e in after.edges]

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
        assert set(layout.nodes) == {"a", "b", "c", "d"}

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
        for node in layout.nodes.values():
            by_rank.setdefault(node.rank, []).append(node)
        for nodes in by_rank.values():
            nodes.sort(key=lambda n: n.x)
            for left, right in zip(nodes, nodes[1:]):
                assert left.right < right.left, (
                    f"{left.node_id} overlaps {right.node_id}"
                )

    def test_edges_have_polylines(self):
        layout = layout_graph(diamond())
        assert len(layout.edges) == 4
        assert all(len(e.points) >= 2 for e in layout.edges)

    def test_dependency_flows_downward(self):
        layout = layout_graph(diamond())
        assert layout.nodes["a"].y < layout.nodes["b"].y < layout.nodes["d"].y

    def test_bounds_positive(self):
        layout = layout_graph(diamond())
        assert layout.width > 0 and layout.height > 0
        for node in layout.nodes.values():
            assert node.left >= 0 and node.top >= 0

    def test_node_at_hit_test(self):
        layout = layout_graph(diamond())
        node = layout.nodes["a"]
        assert layout.node_at(node.x, node.y).node_id == "a"
        assert layout.node_at(-1000.0, -1000.0) is None

    def test_empty_graph(self):
        layout = layout_graph(Digraph())
        assert layout.nodes == {} and layout.edges == []

    def test_single_node(self):
        g = Digraph()
        g.add_node("only", {"label": "hello"})
        layout = layout_graph(g)
        assert layout.nodes["only"].label == "hello"

    def test_self_loop_rendered(self):
        g = Digraph()
        g.add_edge("a", "a")
        layout = layout_graph(g)
        assert len(layout.edges) == 1
        assert len(layout.edges[0].points) == 3

    def test_ring_laid_out(self):
        g = Digraph()
        for i in range(8):
            g.add_edge(f"n{i}", f"n{(i + 1) % 8}")
        layout = layout_graph(g)
        assert len(layout.nodes) == 8 and len(layout.edges) == 8
        assert layout.width > 0 and layout.height > 0
        for node in layout.nodes.values():
            assert node.x >= 0 and node.y >= 0

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
        assert len(layout.nodes) == 1200

    def test_bounds_of_selection(self):
        layout = layout_graph(diamond())
        left, top, right, bottom = layout.bounds_of(["a", "d"])
        assert right > left and bottom > top
