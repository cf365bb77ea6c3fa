"""Golden digests of what the MAL executor emits.

Every other parity suite compares the engine against itself at HEAD.
This one compares it against digests recorded at an *earlier* commit:
for each TPC-H query and each executor configuration below, a sha256
over the result rows, the run records ``(pc, thread, start_usec,
end_usec, usec, rss_bytes, rows, rows_in, stmt)`` and the listener
stream ``(phase, pc, clock, rss)``.  A refactor of the executor passes
only if all three stay byte-identical.

There are two digest files.  ``executor_golden_norss.json`` leaves
``rss_bytes`` out of the run tuples and ``rss`` out of the stream: it
pins rows, modelled ``usec``, thread assignment and listener order, and
was generated at commit d4f6f07 (PR 12) by copying this file into that
checkout and running::

    PYTHONPATH=src python tests/test_executor_golden.py --regen-norss

``executor_golden.json`` is the full digest.  It was first generated at
commit dcabd7f (PR 11, the last commit with three separate ``run()``
loops) and regenerated in PR 13, whose void heads on mitosis slices,
gather joins and packs are *meant* to lower the modelled RSS (a void
head costs 0 bytes) and change nothing else — which the rss-free
digests, passing unchanged, prove::

    PYTHONPATH=src python tests/test_executor_golden.py --regen

The ``interpreter_default`` and ``simulated_w8`` entries of both files
were recorded at commit e809439, the last commit with the partition
worker pool, by running both commands with this file copied into that
checkout; every other entry they rewrote came out unchanged.  The
``simulated_w4_contention`` entries left both files, unchanged
otherwise, when the list schedule's contention model was deleted; the
``simulated_w3`` entries (three workers for four mitosis slices, which
do not divide evenly among them) were recorded the same way at commit
d0ae1d2, the last commit with that model.

Regenerate either only for a change that is *meant* to alter what the
file pins, and say so in CHANGES.md.  ``q14`` is left out: it did not
run at every scale at the first recording commit.
"""

import contextlib
import hashlib
import json
import os
import sys

import pytest

from repro.faults import FaultPlan, armed
from repro.mal import Interpreter
from repro.mal.dataflow import SimulatedScheduler
from repro.server.database import Database
from repro.storage import Catalog
from repro.tpch import QUERIES, populate, query_sql

_HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(_HERE, "executor_golden.json")
GOLDEN_NORSS_PATH = os.path.join(_HERE, "executor_golden_norss.json")
QUERY_NAMES = sorted(name for name in QUERIES if name != "q14")
#: Low enough that the 0.05-scale lineitem (~300 rows) partitions.
MITOSIS_THRESHOLD = 50

#: name -> (pipeline, engine factory taking (catalog, listener),
#: fault spec armed with seed 5 for the run or None)
CONFIGS = {
    "interpreter_sequential": (
        "sequential_pipe",
        lambda cat, listener: Interpreter(cat, listener=listener),
        None),
    "simulated_w1": (
        "default_pipe",
        lambda cat, listener: SimulatedScheduler(
            cat, workers=1, listener=listener),
        None),
    "simulated_w4": (
        "default_pipe",
        lambda cat, listener: SimulatedScheduler(
            cat, workers=4, listener=listener),
        None),
    "simulated_w3": (
        "default_pipe",
        lambda cat, listener: SimulatedScheduler(
            cat, workers=3, listener=listener),
        None),
    "simulated_w2_stall": (
        "default_pipe",
        lambda cat, listener: SimulatedScheduler(
            cat, workers=2, listener=listener),
        "scheduler.worker:stall=700@0.3"),
    "interpreter_default": (
        "default_pipe",
        lambda cat, listener: Interpreter(cat, listener=listener),
        None),
    "simulated_w8": (
        "default_pipe",
        lambda cat, listener: SimulatedScheduler(
            cat, workers=8, listener=listener),
        None),
}


@contextlib.contextmanager
def engine_database():
    """The 0.05-scale TPC-H database every case compiles against."""
    catalog = Catalog()
    populate(catalog, scale_factor=0.05, seed=7)
    database = Database(catalog=catalog, workers=4,
                        mitosis_threshold=MITOSIS_THRESHOLD)
    try:
        yield database
    finally:
        database.close()


def digest(database: Database, query: str, config: str,
           rss: bool = True) -> str:
    """sha256 over rows, run records and listener stream of one case;
    ``rss=False`` leaves the modelled RSS out of both."""
    pipeline, factory, fault_spec = CONFIGS[config]
    program = database.compile(query_sql(query), pipeline_name=pipeline)
    stream = []

    def listener(phase, run):
        clock = run.start_usec if phase == "start" else run.end_usec
        stream.append((phase, run.pc, clock, run.rss_bytes) if rss
                      else (phase, run.pc, clock))

    engine = factory(database.catalog, listener)
    if fault_spec is None:
        result = engine.run(program)
    else:
        with armed(FaultPlan.from_spec(fault_spec, seed=5)):
            result = engine.run(program)
    runs = [(r.pc, r.thread, r.start_usec, r.end_usec, r.usec,
             *((r.rss_bytes,) if rss else ()),
             r.rows, r.rows_in, r.stmt) for r in result.runs]
    payload = repr((result.rows(), runs, stream))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


CASES = [(query, config) for query in QUERY_NAMES for config in CONFIGS]


@pytest.fixture(scope="module")
def database():
    with engine_database() as db:
        yield db


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden():
    return _load(GOLDEN_PATH)


@pytest.fixture(scope="module")
def golden_norss():
    return _load(GOLDEN_NORSS_PATH)


def test_golden_covers_every_case(golden, golden_norss):
    assert sorted(golden) == sorted(f"{q}/{c}" for q, c in CASES)
    assert sorted(golden_norss) == sorted(golden)


@pytest.mark.parametrize("query,config", CASES)
def test_digest_unchanged(query, config, database, golden):
    assert digest(database, query, config) == \
        golden[f"{query}/{config}"]


@pytest.mark.parametrize("query,config", CASES)
def test_digest_without_rss_unchanged(query, config, database,
                                      golden_norss):
    assert digest(database, query, config, rss=False) == \
        golden_norss[f"{query}/{config}"]


if __name__ == "__main__":
    targets = {"--regen": (GOLDEN_PATH, True),
               "--regen-norss": (GOLDEN_NORSS_PATH, False)}
    if len(sys.argv) != 2 or sys.argv[1] not in targets:
        sys.exit("usage: python tests/test_executor_golden.py "
                 "--regen | --regen-norss")
    path, with_rss = targets[sys.argv[1]]
    with engine_database() as db:
        digests = {f"{q}/{c}": digest(db, q, c, rss=with_rss)
                   for q, c in CASES}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
