"""Tests for the dot graph model, writer and parser."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.dot import Digraph, graph_to_dot, parse_dot, plan_to_dot, plan_to_graph
from repro.errors import DotError, DotParseError
from repro.mal.parser import parse_instruction_text

PLAN_TEXT = """
    X_1 := sql.mvc();
    X_2 := sql.bind(X_1,"sys","t","x",0);
    X_3 := algebra.select(X_2,1);
    X_4 := bat.mirror(X_3);
    X_5 := algebra.leftjoin(X_4,X_2);
    sql.exportResult(X_5);
"""


class TestDigraph:
    def make(self):
        g = Digraph("G")
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        g.add_edge("b", "d")
        g.add_edge("c", "d")
        return g

    def test_nodes_created_by_edges(self):
        g = self.make()
        assert set(g.nodes) == {"a", "b", "c", "d"}

    def test_duplicate_node_raises(self):
        g = self.make()
        with pytest.raises(DotError):
            g.add_node("a")

    def test_degrees(self):
        g = self.make()
        assert g.out_degree("a") == 2
        assert g.in_degree("d") == 2

    def test_roots_and_leaves(self):
        g = self.make()
        assert g.roots() == ["a"]
        assert g.leaves() == ["d"]

    def test_successors_predecessors(self):
        g = self.make()
        assert g.successors("a") == ["b", "c"]
        assert g.predecessors("d") == ["b", "c"]

    def test_topological_order(self):
        g = self.make()
        order = g.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")

    def test_cycle_detected(self):
        g = Digraph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        assert not g.is_acyclic()
        with pytest.raises(DotError):
            g.topological_order()

    def test_reachable(self):
        g = self.make()
        assert g.reachable_from("b") == {"b", "d"}

    def test_bfs_layers(self):
        g = self.make()
        layers = g.bfs_layers()
        assert layers == [["a"], ["b", "c"], ["d"]]

    def test_subgraph(self):
        g = self.make()
        sub = g.subgraph({"a", "b", "d"})
        assert set(sub.nodes) == {"a", "b", "d"}
        assert sub.edge_count() == 2  # a->b, b->d

    def test_missing_node_lookup_raises(self):
        with pytest.raises(DotError):
            self.make().node("zzz")


class TestWriter:
    def test_plan_nodes_named_by_pc(self):
        program = parse_instruction_text(PLAN_TEXT)
        graph = plan_to_graph(program)
        assert set(graph.nodes) == {f"n{i}" for i in range(6)}

    def test_labels_carry_statements(self):
        program = parse_instruction_text(PLAN_TEXT)
        graph = plan_to_graph(program)
        assert "sql.mvc()" in graph.node("n0").label
        assert graph.node("n2").attrs["pc"] == "2"

    def test_edges_follow_dataflow(self):
        program = parse_instruction_text(PLAN_TEXT)
        graph = plan_to_graph(program)
        assert "n2" in graph.successors("n1")   # bind -> select
        assert "n5" in graph.successors("n4")   # leftjoin -> exportResult

    def test_graph_acyclic(self):
        program = parse_instruction_text(PLAN_TEXT)
        assert plan_to_graph(program).is_acyclic()

    def test_dot_text_shape(self):
        program = parse_instruction_text(PLAN_TEXT)
        text = plan_to_dot(program)
        assert text.startswith("digraph user_fragment {")
        assert "n1 -> n2;" in text
        assert text.rstrip().endswith("}")


class TestParser:
    def test_roundtrip_plan(self):
        program = parse_instruction_text(PLAN_TEXT)
        original = plan_to_graph(program)
        parsed = parse_dot(graph_to_dot(original))
        assert set(parsed.nodes) == set(original.nodes)
        assert parsed.edge_count() == original.edge_count()
        for node_id in original.nodes:
            assert parsed.node(node_id).label == original.node(node_id).label

    def test_edge_chain(self):
        g = parse_dot("digraph { a -> b -> c; }")
        assert g.edge_count() == 2
        assert g.successors("b") == ["c"]

    def test_node_defaults_applied(self):
        g = parse_dot('digraph { node [shape=circle]; a; b [shape=box]; }')
        assert g.node("a").attrs["shape"] == "circle"
        assert g.node("b").attrs["shape"] == "box"

    def test_edge_defaults_applied(self):
        g = parse_dot("digraph { edge [color=red]; a -> b; }")
        assert g.edges[0].attrs["color"] == "red"

    def test_graph_attributes(self):
        g = parse_dot('digraph G { rankdir=LR; label="my graph"; a; }')
        assert g.attrs["rankdir"] == "LR"
        assert g.attrs["label"] == "my graph"

    def test_quoted_labels_with_escapes(self):
        g = parse_dot('digraph { a [label="x := f(\\"s\\");"]; }')
        assert g.node("a").label == 'x := f("s");'

    def test_comments_ignored(self):
        g = parse_dot(
            "digraph { // line\n# hash\n/* block\nspanning */ a -> b; }"
        )
        assert g.edge_count() == 1

    def test_subgraph_flattened(self):
        g = parse_dot(
            "digraph { subgraph cluster_0 { a -> b; } b -> c; }"
        )
        assert set(g.nodes) == {"a", "b", "c"}
        assert g.edge_count() == 2

    def test_numeric_ids(self):
        g = parse_dot("digraph { 1 -> 2; }")
        assert set(g.nodes) == {"1", "2"}

    def test_strict_accepted(self):
        assert parse_dot("strict digraph { a; }").node_count() == 1

    def test_undirected_rejected(self):
        with pytest.raises(DotParseError):
            parse_dot("graph { a -- b; }")

    def test_missing_brace(self):
        with pytest.raises(DotParseError):
            parse_dot("digraph { a -> b;")

    def test_error_carries_line(self):
        with pytest.raises(DotParseError, match="line 2"):
            parse_dot("digraph {\n a = ; \n}")

    def test_bad_character_carries_line(self):
        # newlines inside a comment and a quoted id both count
        with pytest.raises(DotParseError,
                           match=r"line 5: unexpected character '@'"):
            parse_dot('digraph {\n/* a\nb */ "c\nd";\n @ }')
        with pytest.raises(DotParseError, match="unexpected character"):
            parse_dot('digraph { a [label="unterminated]; }')

    @pytest.mark.parametrize("text, message", [
        # every place the parser raises: the message and the line of the
        # token it stopped at, which is worked out only now
        ('"digraph" { }', "line 1: expected 'name', got '\"digraph\"'"),
        ("\n\ngraph { }", "line 3: only 'digraph' graphs are supported"),
        ("digraph G\n\n;", "line 3: expected '{', got ';'"),
        ("digraph {\n a;\n}\n\n b", "line 5: trailing input 'b'"),
        ("digraph { a;\n/* c\n */\n", "line 4: missing closing brace"),
        ('digraph {\n "x\ny" = ; }', "line 3: expected attribute value"),
        ("digraph {\n a ->\n ; }", "line 3: expected node id, got ';'"),
        ("digraph {\n\n a -> node; }",
         "line 3: keyword 'node' cannot be an id"),
        ("digraph { a [\n=1]; }",
         "line 2: expected name or string, got '='"),
        ("digraph { a [k\n\n]; }", "line 3: expected '=', got ']'"),
        ("digraph { a [k=\n// c\n]; }",
         "line 3: expected name or string, got ']'"),
        ("digraph { a; - }", "line 1: unexpected character '-'"),
        # a bad character wins over a syntax error before it
        ("digraph { = }\n\n\u00e9", "line 3: unexpected character '\u00e9'"),
    ])
    def test_every_error_names_its_line(self, text, message):
        with pytest.raises(DotParseError) as caught:
            parse_dot(text)
        assert str(caught.value) == message

    def test_keywords_are_case_independent(self):
        """DOT keywords match in any case: ``Node [...]`` sets node
        defaults (it is not a node named Node), ``DiGraph`` opens a
        graph, ``SubGraph`` is flattened."""
        graph = parse_dot('STRICT DiGraph G { GRAPH [rankdir=LR]; '
                          'Node [shape=box]; EDGE [color=red]; '
                          'SubGraph s { a; } a -> b; }')
        assert list(graph.nodes) == ["a", "b"]
        assert graph.attrs == {"rankdir": "LR"}
        assert graph.node("a").attrs == {"shape": "box"}
        assert graph.node("b").attrs == {"shape": "box"}
        assert [e.attrs for e in graph.edges] == [{"color": "red"}]
        assert parse_dot('digraph { "Node" [shape=box]; }').has_node("Node")

    @pytest.mark.parametrize("text, message", [
        ("digraph { a -> Node; }", "line 1: keyword 'Node' cannot be an id"),
        ("digraph { DIGRAPH; }", "line 1: keyword 'DIGRAPH' cannot be an id"),
        ("Graph { }", "line 1: only 'digraph' graphs are supported"),
    ])
    def test_keyword_in_any_case_is_not_an_id(self, text, message):
        with pytest.raises(DotParseError) as caught:
            parse_dot(text)
        assert str(caught.value) == message

    def test_large_generated_graph(self):
        lines = ["digraph big {"]
        for i in range(1500):
            lines.append(f'n{i} [label="node {i}"];')
        for i in range(1, 1500):
            lines.append(f"n{i - 1} -> n{i};")
        lines.append("}")
        g = parse_dot("\n".join(lines))
        assert g.node_count() == 1500
        assert g.edge_count() == 1499


#: any text the format can carry, an escaped backslash before an ``n``
#: (not a newline) included
_TEXT = st.one_of(
    st.sampled_from(["a-b", "0X", "1e", "n 1", "node", "strict", "007",
                     "Node", "EDGE", "SubGraph", "diGraph",
                     "", "-1", "1.5", 'say "hi"', "back\\slash", "a\nb",
                     "a\\nb", "a\\\\nb", '\\"n']),
    st.text(alphabet=st.sampled_from('ab_09 -.\\"{}[];,=#/*>\n\r\u00e9'),
            max_size=6),
    st.text(alphabet=st.sampled_from('\\"n\nab '), max_size=8),
    st.text(max_size=6),
)
_ATTRS = st.dictionaries(_TEXT, _TEXT, max_size=3)


class TestRoundTrip:
    """``parse_dot(graph_to_dot(g))`` is ``g``: every id, attribute name
    and value and the graph name is written as an ID the parser reads
    back as the same text.  An online run writes its session's graph
    for a later offline session through exactly this pair."""

    @given(name=_TEXT, graph_attrs=_ATTRS,
           nodes=st.dictionaries(_TEXT, _ATTRS, min_size=1, max_size=5),
           data=st.data())
    @example(name="G", graph_attrs={}, nodes={"a-b": {}}, data=None)
    @example(name="G", graph_attrs={}, nodes={"a": {"label": "0X"}},
             data=None)
    @example(name="G", graph_attrs={}, nodes={"n 1": {}}, data=None)
    @example(name="Graph", graph_attrs={"Edge": "NODE"}, data=None,
             nodes={"Node": {"Strict": "x"}})
    @example(name="G", graph_attrs={}, data=None,
             nodes={"n0": {"label": 'X_1 := algebra.likeselect(X_0,"a\\nb");'}})
    @settings(max_examples=300, deadline=None)
    def test_same_ids_labels_and_edges(self, name, graph_attrs, nodes, data):
        graph = Digraph(name, graph_attrs)
        for node_id, attrs in nodes.items():
            graph.add_node(node_id, attrs)
        if data is not None:
            ends = st.sampled_from(sorted(nodes))
            for src, dst, attrs in data.draw(
                    st.lists(st.tuples(ends, ends, _ATTRS), max_size=6)):
                graph.add_edge(src, dst, attrs)

        parsed = parse_dot(graph_to_dot(graph))
        assert parsed.name == graph.name
        assert parsed.attrs == graph.attrs
        assert [(n.node_id, n.attrs, n.label) for n in parsed.nodes.values()] \
            == [(n.node_id, n.attrs, n.label) for n in graph.nodes.values()]
        assert [(e.src, e.dst, e.attrs) for e in parsed.edges] \
            == [(e.src, e.dst, e.attrs) for e in graph.edges]

    def test_plan_ids_and_numbers_stay_bare(self):
        """What ``plan_to_dot`` writes did not move: ``n<pc>`` ids, names
        and digit runs are bare, everything else is quoted."""
        graph = Digraph("user_s1_1", {"rankdir": "TB"})
        graph.add_node("n0", {"label": "X_1 := sql.mvc();", "shape": "box",
                              "pc": "0"})
        graph.add_edge("n0", "n1")
        assert graph_to_dot(graph) == (
            'digraph user_s1_1 {\n    rankdir=TB;\n'
            '    n0 [label="X_1 := sql.mvc();", shape=box, pc=0];\n'
            '    n1;\n    n0 -> n1;\n}')
