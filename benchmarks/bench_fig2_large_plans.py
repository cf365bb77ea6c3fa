"""Experiment F2 — Figure 2 and feature 5: large plans (>1000 nodes).

The paper's Figure 2 shows "a large graph for a complex SQL query" and
claims support for graphs of more than 1000 nodes.  This bench sweeps
plan size and measures the full display pipeline (layout, glyph scene,
SVG emission); the artefact records the size→time series.
"""

import os

import pytest

from repro.dot import plan_to_graph
from repro.layout import LayeredLayout
from repro.svg import layout_to_svg
from repro.viz import build_virtual_space
from repro.workloads import synthetic_plan

#: 1 + chains * (chain_length + 2) + (chains - 1) + 3 nodes: 59 to 2383,
#: chosen to bracket 1000
SWEEP = [(8, 4), (40, 4), (80, 4), (170, 4), (340, 4)]


def plan_of(chains, chain_length):
    return synthetic_plan(chains=chains, chain_length=chain_length)


@pytest.mark.parametrize("chains,chain_length", SWEEP,
                         ids=lambda v: str(v))
def test_fig2_layout_scaling(benchmark, chains, chain_length, artifacts):
    graph = plan_to_graph(plan_of(chains, chain_length))
    engine = LayeredLayout()
    layout = benchmark(engine.layout, graph)
    assert len(layout.node_ids) == graph.node_count()
    line = (f"nodes={graph.node_count():>5} edges={graph.edge_count():>5} "
            f"crossings={engine.last_crossings}\n")
    with open(os.path.join(artifacts, "fig2_layout_sweep.txt"), "a") as f:
        f.write(line)


def test_fig2_thousand_node_pipeline(benchmark, artifacts):
    """The headline claim: a >1000-node plan through the whole display
    pipeline (layout + glyphs + SVG)."""
    program = plan_of(170, 4)
    graph = plan_to_graph(program)
    assert graph.node_count() > 1000

    def pipeline():
        layout = LayeredLayout().layout(graph)
        space = build_virtual_space(layout)
        return layout, space

    layout, space = benchmark(pipeline)
    svg = layout_to_svg(layout)
    with open(os.path.join(artifacts, "fig2_large_plan.svg"), "w") as f:
        f.write(svg)
    assert len(space) >= 3 * 1000  # shape+text per node plus edges


def test_fig2_dot_parse_scaling(benchmark):
    """Parsing the dot file of a >1000-node plan (workflow stage 1)."""
    from repro.dot import graph_to_dot, parse_dot

    text = graph_to_dot(plan_to_graph(plan_of(170, 4)))
    graph = benchmark(parse_dot, text)
    assert graph.node_count() > 1000


def test_fig2_crossing_minimisation_ablation(benchmark, artifacts):
    """Design-choice ablation: the barycenter sweeps earn their time —
    on a dense random DAG they remove most crossings."""
    import random

    from repro.dot import Digraph

    rng = random.Random(99)
    graph = Digraph()
    layers = [[f"l{layer}_{i}" for i in range(14)] for layer in range(6)]
    for upper, lower in zip(layers, layers[1:]):
        for node in upper:
            for target in rng.sample(lower, 3):
                graph.add_edge(node, target)

    def with_sweeps():
        engine = LayeredLayout(max_sweeps=8)
        engine.layout(graph)
        return engine.last_crossings

    swept = benchmark(with_sweeps)
    no_sweeps_engine = LayeredLayout(max_sweeps=0)
    no_sweeps_engine.layout(graph)
    unswept = no_sweeps_engine.last_crossings
    with open(os.path.join(artifacts, "fig2_layout_sweep.txt"), "a") as f:
        f.write(f"crossing ablation: no_sweeps={unswept} "
                f"8_sweeps={swept}\n")
    assert swept < unswept
