"""The ``steth_replay`` workload's inputs and operation: dot+trace file
pairs, and "open to painted" on one pair (paper §4, offline mode)."""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional

from repro import Database, Profiler, Stethoscope, plan_to_dot, populate
from repro.core.mapping import node_for_pc
from repro.core.session import OfflineSession
from repro.profiler import write_trace
from repro.svg import parse_svg
from repro.tpch import query_sql
from repro.workloads import synthetic_plan, trace_for_program

PROFILED_QUERIES = ("q6", "q1", "q3", "q5", "q18")
PROFILED_WORKERS = (2, 8)
#: 94 nodes, 283, and 1004 — the paper's ">1000 nodes" Figure 2 case.
#: With the ten profiled plans that is an odd number of files, so the
#: median operation is the middle of one file's latencies, not the gap
#: between two files' (26 % wide with twelve files).
SYNTHETIC_CHAINS = (13, 40, 143)
LARGE_CHAINS = SYNTHETIC_CHAINS[-1]
FILE_COUNT = len(PROFILED_QUERIES) * len(PROFILED_WORKERS) \
    + len(SYNTHETIC_CHAINS)
PROFILE_SCALE = 0.1
DATA_SEED = 3


def generate_files(directory: str) -> List[Dict[str, object]]:
    """Profile the TPC-H queries and synthesise the two large plans;
    writes one dot and one trace file per plan, in a fixed order."""
    os.makedirs(directory, exist_ok=True)
    files: List[Dict[str, object]] = []

    def emit(name: str, program, events) -> None:
        dot_path = os.path.join(directory, f"{name}.dot")
        trace_path = os.path.join(directory, f"{name}.trace")
        with open(dot_path, "w") as handle:
            handle.write(plan_to_dot(program))
        write_trace(events, trace_path)
        files.append({"name": name, "dot": dot_path, "trace": trace_path,
                      "nodes": len(program.instructions)})

    for workers in PROFILED_WORKERS:
        database = Database(workers=workers)
        populate(database.catalog, scale_factor=PROFILE_SCALE,
                 seed=DATA_SEED)
        for query in PROFILED_QUERIES:
            profiler = Profiler()
            outcome = database.execute(query_sql(query), listener=profiler)
            emit(f"{query}_w{workers}", outcome.program, profiler.events)
    for chains in SYNTHETIC_CHAINS:
        program = synthetic_plan(chains=chains)
        emit(f"synthetic_{chains}", program,
             trace_for_program(program, workers=4, seed=11))
    return files


def round_order(rng: random.Random, count: int) -> List[int]:
    """One round opens every file once, in seeded order."""
    order = list(range(count))
    rng.shuffle(order)
    return order


def replay_op(dot_path: str, trace_path: str, svg_path: str
              ) -> OfflineSession:
    """One user-visible operation: open the pair, replay the whole
    trace, paint by execution time, save the display."""
    session = Stethoscope.offline(dot_path, trace_path)
    session.replay.run_to_end()
    session.apply_gradient_coloring()
    session.save_svg(svg_path)
    return session


def verify_replay(session: OfflineSession, svg_path: str, nodes: int,
                  strict: bool) -> Optional[str]:
    """None when the painted display is right, else what is wrong.

    Every trace pc must own a glyph, and the saved display must hold one
    ``rect`` per plan node and one edge polyline per plan edge.  The
    display dialect draws nodes as bare rects, which ``parse_svg`` does
    not read back as nodes, so nodes are counted in the text; ``strict``
    (the warm-up round of every set-up) re-parses the file through
    ``parse_svg`` for the edges, timed rounds count them in the text —
    the same file yields the same display every time.
    """
    for event in session.events:
        if f"shape:{node_for_pc(event.pc)}" not in session.space:
            return f"pc {event.pc} has no glyph"
    with open(svg_path) as handle:
        text = handle.read()
    rects = text.count("<rect ")
    if rects != nodes:
        return f"saved svg has {rects} rects for {nodes} nodes"
    edges = len(parse_svg(text).edges) if strict \
        else text.count('<polyline class="edge"')
    if edges != len(session.graph.edges):
        return (f"saved svg has {edges} edges for "
                f"{len(session.graph.edges)}")
    return None
