"""Experiment E5 — the render-queue ceiling and trace sampling.

Paper §4.2.1: the Event-Dispatch-thread queuing "introduces a delay of
up-to 150ms between rendering of consecutive nodes".  This bench
quantifies the resulting render throughput ceiling (~6.7 nodes/s), shows
backlog growth when the event stream outruns it, and measures how the
online monitor's sampling (drop GREEN repaints under backlog) keeps the
RED signal timely.
"""

import os

from repro.core.coloring import ColorAction, PairSequenceColorizer
from repro.core.painter import GraphPainter
from repro.dot import plan_to_graph
from repro.layout import layout_graph
from repro.viz import build_virtual_space
from repro.viz.color import GREEN, RED
from repro.workloads import synthetic_plan, trace_for_program

PLAN = synthetic_plan(chains=40, chain_length=4)
EVENTS = trace_for_program(PLAN, workers=4, long_fraction=0.3, seed=31)
LAYOUT = layout_graph(plan_to_graph(PLAN))


def test_e5_throughput_ceiling(benchmark, artifacts):
    """With a 150 ms interval, 100 renders need ~15 s of queue time."""

    def drain_hundred():
        painter = GraphPainter(build_virtual_space(LAYOUT))
        for index in range(100):
            # a painter ignores nodes outside the view: use plan pcs
            painter.apply(ColorAction(index, RED, "ceiling"))
        painter.flush()
        return painter.clock_ms

    clock_ms = benchmark(drain_hundred)
    assert clock_ms >= 99 * 150
    with open(os.path.join(artifacts, "e5_render_queue.txt"), "a") as f:
        f.write(f"100 renders need {clock_ms:.0f} ms of EDT time "
                f"(~{100_000 / clock_ms:.1f} nodes/s)\n")


def test_e5_backlog_growth_under_stream(benchmark, artifacts):
    """Feed the full colour stream in 2 s of virtual time: the queue
    cannot keep up, the backlog explodes — why sampling exists."""

    def stream_all():
        space = build_virtual_space(LAYOUT)
        painter = GraphPainter(space)
        colorizer = PairSequenceColorizer()
        for index, event in enumerate(EVENTS):
            painter.apply_all(colorizer.push(event))
            painter.pump(2000.0 * index / len(EVENTS))
        return painter.backlog()

    backlog = benchmark(stream_all)
    with open(os.path.join(artifacts, "e5_render_queue.txt"), "a") as f:
        f.write(f"no sampling: backlog after 2s stream = {backlog}\n")
    assert backlog > 0


def test_e5_sampling_keeps_backlog_bounded(benchmark, artifacts):
    """Drop GREEN repaints once the backlog passes a threshold; the RED
    signal (the long-running instructions the user cares about) still
    renders."""
    threshold = 8

    def stream_sampled():
        space = build_virtual_space(LAYOUT)
        painter = GraphPainter(space)
        colorizer = PairSequenceColorizer()
        dropped = 0
        for index, event in enumerate(EVENTS):
            for action in colorizer.push(event):
                if painter.backlog() > threshold and action.color == GREEN:
                    dropped += 1
                    continue
                painter.apply(action)
            painter.pump(2000.0 * index / len(EVENTS))
        return painter.backlog(), dropped

    backlog, dropped = benchmark(stream_sampled)
    with open(os.path.join(artifacts, "e5_render_queue.txt"), "a") as f:
        f.write(f"sampling(threshold={threshold}): backlog={backlog} "
                f"dropped_greens={dropped}\n")
    assert dropped > 0


def test_e5_latency_of_red_signal(benchmark):
    """Queue latency of the first RED after a burst stays within a few
    render slots when sampling is on."""

    def red_latency():
        space = build_virtual_space(LAYOUT)
        painter = GraphPainter(space)
        colorizer = PairSequenceColorizer()
        for event in EVENTS[:200]:
            for action in colorizer.push(event):
                if action.color != GREEN or painter.backlog() < 4:
                    painter.apply(action)
        painter.flush()
        return painter.max_latency_ms()

    latency = benchmark(red_latency)
    assert latency >= 0
