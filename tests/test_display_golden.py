"""Golden digests of the painted display: dot + trace -> saved SVG, ASCII.

``display_golden.json`` was recorded when long edges became segments
and coordinates moved to Brandes & Köpf, by running::

    PYTHONPATH=src python tests/test_display_golden.py --regen

All 26 digests moved then because the layout they paint moved; the code
that opens, replays, paints and saves a session did not change.

For each of the thirteen ``steth_replay`` inputs of ``benchmarks/e2e``
(five profiled TPC-H queries at two worker counts, three synthetic
plans up to 1004 nodes) it opens the pair, replays the whole trace and
paints by execution time — the benchmark's operation — and holds two
sha256 digests: ``svg`` over the bytes ``save_svg`` wrote and ``ascii``
over ``render_ascii()``.  A change to how a session is opened or
painted that is meant to be a pure speed-up passes only if all 26 stay
byte-identical; ``tests/test_layout_golden.py`` pins the layout the
display is built from.
"""

import hashlib
import json
import os
import sys

import pytest

from repro import Database, Profiler, Stethoscope, plan_to_dot, populate
from repro.tpch import query_sql
from repro.workloads import synthetic_plan, trace_for_program

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "display_golden.json")
PROFILED_QUERIES = ("q6", "q1", "q3", "q5", "q18")
PROFILED_WORKERS = (2, 8)
SYNTHETIC_CHAINS = (13, 40, 143)
NAMES = [f"{q}_w{w}" for w in PROFILED_WORKERS for q in PROFILED_QUERIES] \
    + [f"synthetic_{c}" for c in SYNTHETIC_CHAINS]


def replay_inputs():
    """name -> (dot text, trace events), in a fixed order."""
    inputs = {}
    for workers in PROFILED_WORKERS:
        database = Database(workers=workers)
        populate(database.catalog, scale_factor=0.1, seed=3)
        for query in PROFILED_QUERIES:
            profiler = Profiler()
            program = database.execute(query_sql(query),
                                       listener=profiler).program
            inputs[f"{query}_w{workers}"] = (plan_to_dot(program),
                                             profiler.events)
        database.close()
    for chains in SYNTHETIC_CHAINS:
        program = synthetic_plan(chains=chains)
        inputs[f"synthetic_{chains}"] = (
            plan_to_dot(program),
            trace_for_program(program, workers=4, seed=11))
    return inputs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests_of(dot_text, events, svg_path):
    session = Stethoscope.offline_from_memory(dot_text, events)
    session.replay.run_to_end()
    session.apply_gradient_coloring()
    session.save_svg(svg_path)
    with open(svg_path, "rb") as handle:
        saved = handle.read()
    return {"svg": _sha(saved),
            "ascii": _sha(session.render_ascii().encode("utf-8"))}


@pytest.fixture(scope="module")
def inputs():
    return replay_inputs()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_input(inputs, golden):
    assert list(golden) == list(inputs) == NAMES
    assert sum(len(entry) for entry in golden.values()) == 26


@pytest.mark.parametrize("name", NAMES)
def test_painted_display_unchanged(inputs, golden, name, tmp_path):
    dot_text, events = inputs[name]
    assert digests_of(dot_text, events,
                      str(tmp_path / "display.svg")) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_display_golden.py --regen")
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        recorded = {name: digests_of(dot_text, events,
                                     os.path.join(scratch, "display.svg"))
                    for name, (dot_text, events) in replay_inputs().items()}
    with open(GOLDEN_PATH, "w") as out:
        json.dump(recorded, out, indent=1)
        out.write("\n")
