"""Golden digests of what the painter shows, step by step.

For each case ``painter_golden.json`` holds sha256 digests over
canonical JSON (sorted keys, no spaces) of:

* ``fills``: every node glyph's fill after each replay step (one JSON
  line per step, in glyph order), so a colour that lands one step late,
  or that a rewind forgot to wipe, moves the digest;
* ``rendered``: the painted colour per node, and ``history``: every
  accepted action as (pc, colour hex, reason);
* ``pacing``: ``backlog()`` after each ``pump``, ``max_latency_ms()``
  and the deltas of the four ``repro_render_*`` families (the wait
  histogram's count and buckets; its float sum is left out, because
  its rounding depends on what earlier tests observed).

The offline cases open TPC-H q1 (``Database(workers=4)``) and a 40-chain
synthetic plan, replay to the end, ``seek(10)``, replay to the end
again and paint by execution time; the ``_t10000`` twins use the
threshold colouring.  The ``e5_*`` cases feed the colour stream of
``benchmarks/bench_e5_render_queue.py`` into a painter over 2 000 ms of
virtual time, with and without the online monitor's GREEN sampling.
The digests were recorded, before the render queue became part of the
painter, by running::

    PYTHONPATH=src python tests/test_painter_golden.py --regen

Regenerate only for a change that is *meant* to alter what is painted
or when, and say so in CHANGES.md.
"""

import hashlib
import json
import os
import sys

import pytest

from repro import Database, Profiler, Stethoscope, plan_to_dot, populate
from repro.core.coloring import PairSequenceColorizer
from repro.core.painter import GraphPainter
from repro.dot import plan_to_graph
from repro.layout import layout_graph
from repro.metrics import families
from repro.tpch import query_sql
from repro.viz import build_virtual_space
from repro.viz.color import GREEN
from repro.viz.glyph import RectangleGlyph
from repro.workloads import synthetic_plan, trace_for_program

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "painter_golden.json")
OFFLINE = ("q1_w4", "synthetic_40")
CASES = [f"{name}{suffix}" for suffix in ("", "_t10000")
         for name in OFFLINE] + ["e5_stream", "e5_sampled"]
E5_SAMPLING_THRESHOLD = 8


def offline_inputs():
    """name -> (dot text, trace events) for the offline cases."""
    database = Database(workers=4)
    populate(database.catalog, scale_factor=0.05, seed=3)
    profiler = Profiler()
    program = database.execute(query_sql("q1"), listener=profiler).program
    inputs = {"q1_w4": (plan_to_dot(program), profiler.events)}
    database.close()
    program = synthetic_plan(chains=40)
    inputs["synthetic_40"] = (plan_to_dot(program),
                              trace_for_program(program, workers=4, seed=11))
    return inputs


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def sha(value) -> str:
    return hashlib.sha256(canonical(value)).hexdigest()


class Recorder:
    """Folds what one painter shows into the digests of one case."""

    def __init__(self, painter: GraphPainter) -> None:
        self.painter = painter
        self.shapes = [glyph for glyph in painter.space
                       if isinstance(glyph, RectangleGlyph)]
        self.fills = hashlib.sha256()
        self.backlogs = []
        self.before = self.render_metrics()

    @staticmethod
    def render_metrics():
        return [families.RENDER_TASKS_POSTED.value(),
                families.RENDER_TASKS_EXECUTED.value(),
                families.RENDER_QUEUE_WAIT_MS.count(),
                [count for _, count in families.RENDER_QUEUE_WAIT_MS
                 .labels().cumulative_buckets()]]

    def step(self) -> None:
        self.fills.update(canonical([[glyph.glyph_id, glyph.fill.to_hex()]
                                     for glyph in self.shapes]))
        self.fills.update(b"\n")

    def pumped(self, clock_ms: float) -> None:
        self.painter.pump(clock_ms)
        self.backlogs.append(self.painter.backlog())
        self.step()

    def digests(self):
        painter = self.painter
        after = self.render_metrics()
        deltas = [a - b for a, b in zip(after[:3], self.before[:3])]
        deltas.append([a - b for a, b in zip(after[3], self.before[3])])
        deltas.append(families.RENDER_QUEUE_DEPTH.value())
        return {
            "fills": self.fills.hexdigest(),
            "rendered": sha({node: color.to_hex()
                             for node, color in painter.rendered.items()}),
            "history": sha([[action.pc, action.color.to_hex(),
                             action.reason] for action in painter.history]),
            "pacing": sha({"backlogs": self.backlogs,
                           "max_latency_ms": painter.max_latency_ms(),
                           "render_metrics": deltas}),
        }


def offline_digests(dot_text, events, threshold_usec=None):
    session = Stethoscope.offline_from_memory(dot_text, events,
                                              threshold_usec)
    replay = session.replay
    recorder = Recorder(session.painter)
    while replay.step() is not None:
        recorder.step()
    replay.seek(10)
    recorder.step()
    while replay.step() is not None:
        recorder.step()
    session.apply_gradient_coloring()
    recorder.step()
    return recorder.digests()


def e5_digests(sampled: bool):
    plan = synthetic_plan(chains=40, chain_length=4)
    events = trace_for_program(plan, workers=4, long_fraction=0.3, seed=31)
    painter = GraphPainter(build_virtual_space(
        layout_graph(plan_to_graph(plan))))
    recorder = Recorder(painter)
    colorizer = PairSequenceColorizer()
    for index, event in enumerate(events):
        for action in colorizer.push(event):
            if sampled and painter.backlog() > E5_SAMPLING_THRESHOLD \
                    and action.color == GREEN:
                continue
            painter.apply(action)
        recorder.pumped(2000.0 * index / len(events))
    painter.flush()
    recorder.step()
    return recorder.digests()


def all_digests():
    recorded = {}
    inputs = offline_inputs()
    for threshold, suffix in ((None, ""), (10_000, "_t10000")):
        for name in OFFLINE:
            recorded[name + suffix] = offline_digests(*inputs[name],
                                                      threshold)
    recorded["e5_stream"] = e5_digests(sampled=False)
    recorded["e5_sampled"] = e5_digests(sampled=True)
    return recorded


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def inputs():
    return offline_inputs()


def test_golden_covers_every_case(golden):
    assert list(golden) == CASES
    assert all(list(entry) == ["fills", "rendered", "history", "pacing"]
               for entry in golden.values())


@pytest.mark.parametrize("name", OFFLINE)
@pytest.mark.parametrize("threshold", (None, 10_000))
def test_offline_painting_unchanged(inputs, golden, name, threshold):
    case = name + ("" if threshold is None else f"_t{threshold}")
    assert offline_digests(*inputs[name], threshold) == golden[case]


@pytest.mark.parametrize("sampled", (False, True))
def test_paced_stream_unchanged(golden, sampled):
    case = "e5_sampled" if sampled else "e5_stream"
    assert e5_digests(sampled) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_painter_golden.py --regen")
    with open(GOLDEN_PATH, "w") as out:
        json.dump(all_digests(), out, indent=1)
        out.write("\n")
