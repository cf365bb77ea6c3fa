"""Offline analysis of long-running TPC-H queries (paper §5, offline demo).

Executes TPC-H Q1 and Q3 with profiling, writes the dot and trace files
to disk, then reopens them in offline Stethoscope sessions and exercises
the demo features: trace replay with fast-forward/rewind/pause, thread
utilisation distribution, memory usage by operator, costly-instruction
clustering, the threshold colouring algorithm, administrative-instruction
pruning and the micro-analysis interface.

Run:  python examples/offline_tpch_analysis.py
"""

import os
import tempfile

from repro import Database, Profiler, Stethoscope, plan_to_dot, populate, query_sql
from repro.profiler import write_trace


def analyse(db: Database, name: str, workdir: str) -> None:
    sql = query_sql(name)
    profiler = Profiler()
    outcome = db.execute(sql, listener=profiler)
    print(f"\n=== {name}: {len(outcome.rows)} result rows, "
          f"{len(profiler.events) // 2} instructions ===")

    # persist the offline artefacts (paper §4.1: offline mode needs a
    # preexisting dot file and trace file)
    dot_path = os.path.join(workdir, f"{name}.dot")
    trace_path = os.path.join(workdir, f"{name}.trace")
    with open(dot_path, "w") as handle:
        handle.write(plan_to_dot(outcome.program))
    write_trace(profiler.events, trace_path)

    session = Stethoscope.offline(dot_path, trace_path)

    # --- replay: step / fast-forward / pause / rewind -------------------
    session.replay.step()
    session.replay.fast_forward(20)
    session.replay.pause()
    assert session.replay.step() is None  # paused
    session.replay.resume()
    session.replay.rewind(5)
    mid_position = session.replay.position
    session.replay.run_to_end()
    print(f"replay: stepped to {mid_position}, then to end "
          f"({session.replay.position} events)")

    # --- costly instructions between two replay states ------------------
    costly = session.replay.costly_between(0, session.replay.position, top=3)
    print("top instructions by time:")
    for event in costly:
        print(f"  pc={event.pc:<4} {event.usec:>8} usec  "
              f"{event.stmt[:60]}")

    # --- thread utilisation ---------------------------------------------
    print("thread utilisation:")
    for row in session.thread_utilization():
        bar = "#" * int(row.utilization * 40)
        print(f"  thread {row.thread}: {row.busy_usec:>8} usec "
              f"({row.utilization:5.1%}) {bar}")

    # --- memory usage by operator ----------------------------------------
    print("memory by operator (top 3 by peak rss):")
    for row in session.analysis.memory_by_operator()[:3]:
        print(f"  {row.operator:<24} calls={row.calls:<4} "
              f"peak_rss={row.peak_rss_bytes}")

    # --- costly instruction clustering ------------------------------------
    clusters = session.costly_clusters(fraction=0.8)
    print(f"costly clusters covering 80% of time: "
          f"{[c.span for c in clusters[:5]]}")

    # --- pruning (future-work feature) ------------------------------------
    pruned = session.pruned_view()
    print(f"pruned view: {session.graph.node_count()} -> "
          f"{pruned.node_count()} nodes")

    # --- micro-analysis interface ------------------------------------------
    summary = session.analysis.summary()
    print(f"micro-analysis: makespan={summary['makespan_usec']} usec, "
          f"p95={summary['p95_usec']} usec, p99={summary['p99_usec']} usec")

    # --- memory timeline and overview --------------------------------------
    print(f"rss timeline: {session.analysis.rss_sparkline(width=50)}")
    print("minimap (viewport marked):")
    session.view.camera.zoom_in(2)
    print(session.minimap(columns=50, rows=10))


def main() -> None:
    db = Database(workers=4, mitosis_threshold=400)
    populate(db.catalog, scale_factor=0.2, seed=7)
    workdir = tempfile.mkdtemp(prefix="stethoscope_offline_")
    print(f"artefacts in {workdir}")
    for name in ("q1", "q3", "q6"):
        analyse(db, name, workdir)

    # threshold colouring variant on q6
    sql = query_sql("q6")
    profiler = Profiler()
    outcome = db.execute(sql, listener=profiler)
    session = Stethoscope.offline_from_memory(
        plan_to_dot(outcome.program), profiler.events, threshold_usec=50
    )
    session.replay.run_to_end()
    reds = [n for n, c in session.painter.rendered.items()
            if c.to_hex() == "#dc2828"]
    print(f"\nq6 with threshold=50usec: {len(reds)} instruction(s) over "
          f"threshold: {sorted(reds)[:10]}")


if __name__ == "__main__":
    main()
