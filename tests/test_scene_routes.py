"""The paper's §4 two-step parse, as a checked property.

"The dot file gets parsed and an intermediate scalar vector graphics
(svg) representation gets created.  In the next step, the svg file gets
parsed and an in memory graph structure gets created."  A session no
longer takes that detour when it opens a plan — it keeps the graph
``parse_dot`` returned and the ``Layout`` — so this file holds the two
routes against each other: what ``svg_to_graph`` reads out of the
written drawing is the graph, and the geometry, the session works from,
and the polylines ``parse_svg`` reads are the layout's.

Inputs: the thirteen ``steth_replay`` plans of ``benchmarks/e2e``
(restated here, as ``tests/test_layout_golden.py`` does) and random DAGs
whose labels hold what an XML writer has to escape.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dot import parse_dot, plan_to_dot
from repro.layout import layout_graph
from repro.server.database import Database
from repro.svg import layout_to_svg, parse_svg, svg_to_graph
from repro.svg.writer import MARGIN
from repro.tpch import populate, query_sql
from repro.workloads import synthetic_plan

from tests.boxes import boxes

PROFILED_QUERIES = ("q6", "q1", "q3", "q5", "q18")
PROFILED_WORKERS = (2, 8)
SYNTHETIC_CHAINS = (13, 40, 143)
NAMES = [f"{q}_w{w}" for w in PROFILED_WORKERS for q in PROFILED_QUERIES] \
    + [f"synthetic_{c}" for c in SYNTHETIC_CHAINS]
#: a recovered centre went through three ``.1f`` roundings: the box's
#: left edge, half its width, and the centre ``svg_to_graph`` prints
CENTRE_TOLERANCE = 0.05 + 0.025 + 0.05 + 1e-9
#: a polyline point went through one ``.1f`` rounding
POINT_TOLERANCE = 0.05 + 1e-9


def assert_routes_agree(dot_text: str) -> None:
    graph = parse_dot(dot_text)
    layout = layout_graph(graph)
    text = layout_to_svg(layout)
    recovered = svg_to_graph(text)
    assert list(recovered.nodes) == list(graph.nodes)
    assert [recovered.node(n).label for n in graph.nodes] \
        == [graph.node(n).label for n in graph.nodes]
    assert [(e.src, e.dst) for e in recovered.edges] \
        == [(e.src, e.dst) for e in graph.edges]
    for node_id, box in boxes(layout).items():
        attrs = recovered.node(node_id).attrs
        assert attrs["width"] == f"{box.width:.1f}"
        assert attrs["height"] == f"{box.height:.1f}"
        assert abs(float(attrs["x"]) - MARGIN - box.x) <= CENTRE_TOLERANCE
        assert abs(float(attrs["y"]) - MARGIN - box.y) <= CENTRE_TOLERANCE
    parsed = parse_svg(text)
    assert parsed.edges == layout.edges
    for edge, points, read in zip(layout.edges, layout.polylines,
                                  parsed.polylines):
        assert len(read) == len(points), edge
        for (x, y), (read_x, read_y) in zip(points, read):
            assert abs(read_x - MARGIN - x) <= POINT_TOLERANCE, edge
            assert abs(read_y - MARGIN - y) <= POINT_TOLERANCE, edge


@pytest.fixture(scope="module")
def inputs():
    """name -> dot text of the thirteen ``steth_replay`` plans."""
    out = {}
    for workers in PROFILED_WORKERS:
        database = Database(workers=workers)
        populate(database.catalog, scale_factor=0.1, seed=3)
        for query in PROFILED_QUERIES:
            program = database.execute(query_sql(query)).program
            out[f"{query}_w{workers}"] = plan_to_dot(program)
        database.close()
    for chains in SYNTHETIC_CHAINS:
        out[f"synthetic_{chains}"] = plan_to_dot(
            synthetic_plan(chains=chains))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_replay_plan_survives_the_svg_route(inputs, name):
    assert_routes_agree(inputs[name])


# '\r' has to be written as &#13;: XML reads a bare one back as '\n'
_TEXT = st.text(
    alphabet=st.sampled_from(list("abXY_09 <>&\"'\n\r\t;=[]{}éß漢𝛑")),
    max_size=12)


@st.composite
def random_dag_dot(draw) -> str:
    """Dot text of a DAG whose labels need escaping; ids are plain
    names, as a plan's are."""
    count = draw(st.integers(min_value=1, max_value=8))
    ids = draw(st.lists(st.from_regex(r"[a-z][A-Za-z0-9_]{0,5}_",
                                      fullmatch=True),
                        min_size=count, max_size=count, unique=True))
    lines = ["digraph G {"]
    for node_id in ids:
        if draw(st.booleans()):
            label = draw(_TEXT).replace('"', '\\"')
            lines.append(f'    {node_id} [label="{label}"];')
        else:
            lines.append(f"    {node_id};")  # labelled with its id
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        src = draw(st.integers(min_value=0, max_value=count - 1))
        dst = draw(st.integers(min_value=0, max_value=count - 1))
        if src < dst:  # forward in id order: acyclic, duplicates allowed
            lines.append(f"    {ids[src]} -> {ids[dst]};")
    return "\n".join(lines + ["}"])


@settings(max_examples=150, deadline=None)
@given(random_dag_dot())
def test_random_dag_survives_the_svg_route(dot_text):
    assert_routes_agree(dot_text)
