"""Golden digests of the plan display: dot text -> graph -> layout -> svg.

``layout_golden.json`` was recorded when long edges became segments
(Eiglsperger et al.) and coordinates moved to Brandes & Köpf, by
running::

    PYTHONPATH=src python tests/test_layout_golden.py --regen

Those two changes moved every ``svg`` digest on purpose: the layout is a
different one (a long edge is drawn as four points with a vertical run,
blocks are aligned to median neighbours), while the code that writes it
out did not change, and every ``graph`` digest stayed byte-identical.

For each input it holds two sha256 digests: ``svg`` over
``layout_to_svg(layout_graph(parse_dot(dot_text)))`` — every coordinate
of every box and polyline, as printed — and ``graph`` over what
``parse_dot`` returned (name, attributes, nodes and edges in order).  A
change to ``repro.layout`` or ``repro.dot`` that is meant to be a pure
speed-up passes only if both stay byte-identical.

The inputs are the thirteen ``steth_replay`` plans of
``benchmarks/e2e`` (five profiled TPC-H queries at two worker counts,
three synthetic plans up to 1004 nodes; all lay out with few or no
crossings) and the dense random DAG of ``bench_fig2_large_plans.py``,
whose ~1000 crossings exercise the barycenter sweeps, their float ties
and the best-order bookkeeping.
"""

import hashlib
import json
import os
import random
import sys

import pytest

from repro.dot import Digraph, graph_to_dot, parse_dot, plan_to_dot
from repro.layout import LayeredLayout, layout_graph
from repro.server.database import Database
from repro.svg import layout_to_svg
from repro.tpch import populate, query_sql
from repro.workloads import synthetic_plan

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "layout_golden.json")
PROFILED_QUERIES = ("q6", "q1", "q3", "q5", "q18")
PROFILED_WORKERS = (2, 8)
SYNTHETIC_CHAINS = (13, 40, 143)


def dense_random_dag() -> Digraph:
    rng = random.Random(99)
    graph = Digraph()
    layers = [[f"l{layer}_{i}" for i in range(14)] for layer in range(6)]
    for upper, lower in zip(layers, layers[1:]):
        for node in upper:
            for target in rng.sample(lower, 3):
                graph.add_edge(node, target)
    return graph


def dot_inputs():
    """name -> dot text, in a fixed order."""
    inputs = {}
    for workers in PROFILED_WORKERS:
        database = Database(workers=workers)
        populate(database.catalog, scale_factor=0.1, seed=3)
        for query in PROFILED_QUERIES:
            program = database.execute(query_sql(query)).program
            inputs[f"{query}_w{workers}"] = plan_to_dot(program)
        database.close()
    for chains in SYNTHETIC_CHAINS:
        inputs[f"synthetic_{chains}"] = plan_to_dot(
            synthetic_plan(chains=chains))
    inputs["dense_random_dag"] = graph_to_dot(dense_random_dag())
    return inputs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def graph_digest(graph: Digraph) -> str:
    return _sha(json.dumps([
        graph.name, graph.attrs,
        [[node.node_id, node.attrs] for node in graph.nodes.values()],
        [[edge.src, edge.dst, edge.attrs] for edge in graph.edges],
    ]))


def digests_of(dot_text: str):
    graph = parse_dot(dot_text)
    return {"graph": graph_digest(graph),
            "svg": _sha(layout_to_svg(layout_graph(graph)))}


@pytest.fixture(scope="module")
def inputs():
    return dot_inputs()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_input(inputs, golden):
    assert list(golden) == list(inputs)
    assert len(golden) == 14


@pytest.mark.parametrize(
    "name",
    [f"{q}_w{w}" for w in PROFILED_WORKERS for q in PROFILED_QUERIES]
    + [f"synthetic_{c}" for c in SYNTHETIC_CHAINS] + ["dense_random_dag"])
def test_display_unchanged(inputs, golden, name):
    assert digests_of(inputs[name]) == golden[name]


def test_dense_dag_has_crossings():
    """The one golden input whose sweeps have work to do."""
    engine = LayeredLayout()
    engine.layout(dense_random_dag())
    assert engine.last_crossings > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_layout_golden.py --regen")
    with open(GOLDEN_PATH, "w") as out:
        json.dump({name: digests_of(text)
                   for name, text in dot_inputs().items()}, out, indent=1)
        out.write("\n")
