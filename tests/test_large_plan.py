"""Counts on the large plan (paper Figure 2): exact, deterministic, no
clock, so they hold on a shared runner.

- An opened 1004-node plan is freed by reference counting: no render
  task holds the painter, so ``del session`` leaves no cyclic garbage,
  and the open leaves at most 14 681 tracked objects alive: 13 346
  since the layout is columns and the glyphs are made from them (15 487
  with a ``LayoutNode`` per node and a ``LayoutEdge`` per edge, 18 059
  while polyline points were 2 571 ``Point`` NamedTuples), plus 10 %.
- Opening, replaying, painting and saving it makes a bounded number of
  Python-level calls: 186 117 when the dot tokenizer, trace reader,
  painter and SVG writer each walked their input through a method call
  per item, 68 399 once they made one pass over flat data, 64 824 since
  polyline points are tuples (building a ``Point`` was a Python-level
  call), 58 098 since no ``LayoutNode``/``LayoutEdge`` is built and the
  space takes its bounds once; the bound is that count plus 10 %.
- The layout grows linearly with the staircase plan: doubling
  ``synthetic_plan`` from 143 to 286 chains at most 2.2x-es its layout
  entities and its polyline points.  Each long edge is one segment, so
  the layout no longer holds one virtual node per rank it crosses (40 470
  of them at 286 chains against 10 011 at 143, 4.0x).
- ``synthetic_plan``'s size formula.
"""

import gc
import os
import sys

import pytest

from repro import Stethoscope, plan_to_dot
from repro.dot import plan_to_graph
from repro.layout import layout_graph
from repro.layout.acyclic import acyclic_orientation
from repro.layout.ordering import insert_virtual_nodes
from repro.layout.rank import assign_ranks, layers_from_ranks
from repro.profiler import write_trace
from repro.workloads import synthetic_plan, trace_for_program


@pytest.fixture(scope="module")
def open_replay_paint_save(tmp_path_factory):
    """The ``steth_replay`` operation on the 1004-node plan's files."""
    program = synthetic_plan(chains=143)  # 1004 nodes
    directory = tmp_path_factory.mktemp("large_plan")
    dot, trace, svg = (os.path.join(directory, name)
                       for name in ("plan.dot", "plan.trace", "display.svg"))
    with open(dot, "w") as handle:
        handle.write(plan_to_dot(program))
    write_trace(trace_for_program(program, workers=4, seed=11), trace)

    def operation():
        session = Stethoscope.offline(dot, trace)
        session.replay.run_to_end()
        session.apply_gradient_coloring()
        session.save_svg(svg)
        return session

    operation()  # first use fills module-level caches
    return operation


def test_opened_plan_freed_by_reference_counting(open_replay_paint_save):
    gc.collect()
    gc.disable()  # an automatic collection would hide a cycle
    try:
        before = len(gc.get_objects())
        session = open_replay_paint_save()
        gc.collect()
        alive = len(gc.get_objects()) - before
        del session
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0, f"{garbage} objects were cyclic garbage after del"
    assert alive <= 14681, f"the open left {alive} tracked objects alive"


def test_open_makes_a_bounded_number_of_python_calls(open_replay_paint_save):
    """A count, not a clock: every Python frame entered (a generator's
    resumption included) while the operation runs, with the collector
    off so that no finaliser is counted."""
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        open_replay_paint_save()
    finally:
        sys.setprofile(None)
        gc.enable()
    assert calls <= 63908, f"the open made {calls} Python-level calls"


def layout_size(chains):
    """(entities, polyline points) of ``synthetic_plan(chains)``'s
    layout: real, virtual, p- and q-vertices plus segments, and the
    points of every drawn edge."""
    graph = plan_to_graph(synthetic_plan(chains=chains))
    node_ids = list(graph.nodes)
    number = {node_id: index for index, node_id in enumerate(node_ids)}
    oriented, _ = acyclic_orientation(graph)
    rank = assign_ranks(node_ids, oriented)
    segmented = insert_virtual_nodes(
        [rank[node_id] for node_id in node_ids],
        [[number[node_id] for node_id in layer]
         for layer in layers_from_ranks(rank)],
        [(number[src], number[dst]) for src, dst in oriented])
    points = sum(map(len, layout_graph(graph).polylines))
    return segmented.size + len(segmented.segments), points


def test_layout_grows_linearly_with_the_staircase():
    entities, points = layout_size(143)
    doubled_entities, doubled_points = layout_size(286)
    assert doubled_entities <= 2.2 * entities, (entities, doubled_entities)
    assert doubled_points <= 2.2 * points, (points, doubled_points)


@pytest.mark.parametrize("chains,chain_length", [
    (1, 1), (8, 4), (143, 4), (167, 4), (286, 4), (12, 7)])
def test_synthetic_plan_size_formula(chains, chain_length):
    program = synthetic_plan(chains=chains, chain_length=chain_length)
    assert len(program.instructions) == \
        1 + chains * (chain_length + 2) + (chains - 1) + 3
