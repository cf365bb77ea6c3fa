"""Experiment E3 — offline replay: step, fast-forward, rewind, and the
costly-instruction window analysis (paper §5, offline demo)."""

import os

from repro.core.painter import GraphPainter
from repro.core.replay import ReplayController
from repro.dot import plan_to_graph
from repro.layout import layout_graph
from repro.viz import build_virtual_space
from repro.workloads import synthetic_plan, trace_for_program

PLAN = synthetic_plan(chains=60, chain_length=4)
EVENTS = trace_for_program(PLAN, workers=4, long_fraction=0.05, seed=21)
SPACE_LAYOUT = layout_graph(plan_to_graph(PLAN))


def fresh_replay(threshold=None):
    space = build_virtual_space(SPACE_LAYOUT)
    painter = GraphPainter(space)
    return ReplayController(EVENTS, painter, threshold)


def test_e3_step_through_rate(benchmark, artifacts):
    def run_to_end():
        replay = fresh_replay()
        return replay.run_to_end()

    ran = benchmark(run_to_end)
    assert ran == len(EVENTS)
    with open(os.path.join(artifacts, "e3_replay.txt"), "a") as f:
        f.write(f"full replay: {ran} events\n")


def test_e3_fast_forward_until_clock(benchmark):
    midpoint = EVENTS[len(EVENTS) // 2].clock_usec

    def fast_forward():
        replay = fresh_replay()
        return replay.fast_forward_until(midpoint)

    ran = benchmark(fast_forward)
    assert 0 < ran < len(EVENTS)


def test_e3_rewind_cost(benchmark):
    """Rewind re-derives the display deterministically — measure the
    cost of jumping back near the start from the end."""
    replay = fresh_replay()
    replay.run_to_end()

    def rewind_and_return():
        replay.seek(10)
        replay.run_to_end()
        return replay.position

    position = benchmark(rewind_and_return)
    assert position == len(EVENTS)


def test_e3_costly_between_states(benchmark, artifacts):
    replay = fresh_replay()
    replay.run_to_end()

    def window():
        return replay.costly_between(0, len(EVENTS), top=10)

    costly = benchmark(window)
    assert len(costly) == 10
    assert costly[0].usec >= costly[-1].usec
    with open(os.path.join(artifacts, "e3_replay.txt"), "a") as f:
        f.write("top costly: "
                + ", ".join(f"pc={e.pc}:{e.usec}us" for e in costly[:5])
                + "\n")


def test_e3_threshold_replay(benchmark):
    def run():
        replay = fresh_replay(threshold=10_000)
        replay.run_to_end()
        return len(replay.painter.history)

    painted = benchmark(run)
    assert painted > 0
