"""Tests for the SVG writer/parser and the dot→svg→graph workflow."""

import pytest

from repro.dot import Digraph, plan_to_graph
from repro.errors import SvgError
from repro.layout import layout_graph
from repro.mal.parser import parse_instruction_text
from repro.svg import layout_to_svg, parse_svg, svg_to_graph
from repro.svg.writer import MARGIN

from tests.boxes import boxes

PLAN_TEXT = """
    X_1 := sql.mvc();
    X_2 := sql.bind(X_1,"sys","t","x",0);
    X_3 := algebra.select(X_2,1);
    sql.exportResult(X_3);
"""


@pytest.fixture
def plan_layout():
    return layout_graph(plan_to_graph(parse_instruction_text(PLAN_TEXT)))


class TestWriter:
    def test_svg_is_well_formed(self, plan_layout):
        text = layout_to_svg(plan_layout)
        assert text.startswith('<?xml version="1.0"')
        parse_svg(text)  # no exception

    def test_node_ids_present(self, plan_layout):
        text = layout_to_svg(plan_layout)
        for pc in range(4):
            assert f'id="n{pc}"' in text

    def test_labels_escaped(self):
        g = Digraph()
        g.add_node("a", {"label": "x < y & z"})
        text = layout_to_svg(layout_graph(g))
        assert "x &lt; y &amp; z" in text
        assert parse_svg(text).labels == ["x < y & z"]

    def test_characters_xml_forbids_are_replaced(self):
        g = Digraph()
        g.add_node("a\x02", {"label": "x\x01y\ufffe"})
        g.add_edge("a\x02", "b")
        layout = parse_svg(layout_to_svg(layout_graph(g)))
        assert layout.node_ids[0] == "a\ufffd"
        assert layout.labels[0] == "x\ufffdy\ufffd"
        assert layout.edges == [("a\ufffd", "b")]

    def test_scene_counts(self, plan_layout):
        layout = parse_svg(layout_to_svg(plan_layout))
        assert len(layout.node_ids) == 4
        assert len(layout.edges) == 3


class TestParser:
    def test_roundtrip_geometry(self, plan_layout):
        layout = parse_svg(layout_to_svg(plan_layout))
        parsed_boxes = boxes(layout)
        for node_id, node in boxes(plan_layout).items():
            parsed = parsed_boxes[node_id]
            assert parsed.x == pytest.approx(node.x + MARGIN, abs=0.1)
            assert parsed.y == pytest.approx(node.y + MARGIN, abs=0.1)
            assert parsed.width == pytest.approx(node.width, abs=0.1)

    def test_roundtrip_labels(self, plan_layout):
        layout = parse_svg(layout_to_svg(plan_layout))
        assert boxes(layout)["n0"].label.startswith("X_1 := sql.mvc()")

    def test_roundtrip_edges(self, plan_layout):
        layout = parse_svg(layout_to_svg(plan_layout))
        pairs = set(layout.edges)
        assert ("n1", "n2") in pairs

    def test_svg_to_graph_structure(self, plan_layout):
        graph = svg_to_graph(layout_to_svg(plan_layout))
        assert set(graph.nodes) == {"n0", "n1", "n2", "n3"}
        assert "n2" in graph.successors("n1")
        assert graph.node("n0").attrs["x"]  # geometry recovered

    def test_bad_xml_raises(self):
        with pytest.raises(SvgError):
            parse_svg("<svg><unclosed></svg")

    def test_missing_edge_endpoints_raise(self):
        text = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10">'
            '<polyline class="edge" points="0,0 1,1"/></svg>'
        )
        with pytest.raises(SvgError):
            parse_svg(text)

    @pytest.mark.parametrize("points", ["0,0 1", "inf,1 2,2"])
    def test_bad_points_raise(self, points):
        text = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10">'
            '<polyline class="edge" data-src="a" data-dst="b" '
            f'points="{points}"/></svg>'
        )
        with pytest.raises(SvgError):
            parse_svg(text)

    @pytest.mark.parametrize("rect", [
        'x="oops" y="0" width="5" height="5"',
        'x="0" y="0" width="nan" height="5"',
    ])
    def test_bad_rect_numbers_raise(self, rect):
        text = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10">'
            f'<g class="node" id="a"><rect {rect}/></g></svg>'
        )
        with pytest.raises(SvgError):
            parse_svg(text)

    def test_repeated_node_id_raises(self):
        group = ('<g class="node" id="a">'
                 '<rect x="0" y="0" width="5" height="5"/></g>')
        text = ('<svg xmlns="http://www.w3.org/2000/svg" width="10" '
                f'height="10">{group}{group}</svg>')
        with pytest.raises(SvgError):
            parse_svg(text)

    def test_non_node_groups_ignored(self):
        text = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10">'
            '<g class="decoration"><rect x="0" y="0" width="5" height="5"/>'
            "</g></svg>"
        )
        assert parse_svg(text).node_ids == []


class TestWorkflowChain:
    def test_full_dot_svg_graph_chain(self):
        """The paper's exact pipeline: dot text → graph → layout → svg →
        in-memory graph, ending with the same structure it started from."""
        from repro.dot import graph_to_dot, parse_dot

        program = parse_instruction_text(PLAN_TEXT)
        dot_text = graph_to_dot(plan_to_graph(program))
        graph = parse_dot(dot_text)
        layout = layout_graph(graph)
        svg_text = layout_to_svg(layout)
        recovered = svg_to_graph(svg_text)
        assert set(recovered.nodes) == set(graph.nodes)
        assert recovered.edge_count() == graph.edge_count()
        for node_id in graph.nodes:
            assert recovered.node(node_id).label == graph.node(node_id).label
