"""Quickstart: the paper's Figure 1 query, analysed offline.

Runs ``select l_tax from lineitem where l_partkey = 1`` (the exact query
from the paper) on the embedded engine, captures its MAL plan and
execution trace, and walks the Stethoscope's offline workflow: dot file →
in-memory graph → layout → display, trace replay with the §4.2.1
colouring algorithm, tool-tips, and the bird's-eye view.

Run:  python examples/quickstart.py
"""

from repro import Database, Profiler, Stethoscope, plan_to_dot, populate
from repro.mal.printer import format_program


def main() -> None:
    # 1. a server-side execution environment with TPC-H data
    db = Database(workers=4, mitosis_threshold=500)
    counts = populate(db.catalog, scale_factor=0.1, seed=42)
    print(f"populated TPC-H: {counts['lineitem']} lineitems, "
          f"{counts['orders']} orders")

    # 2. run the paper's query with the profiler attached
    sql = "select l_tax from lineitem where l_partkey = 1"
    profiler = Profiler()
    outcome = db.execute(sql, listener=profiler)
    print(f"\nquery: {sql}")
    print(f"rows: {outcome.rows[:5]}{' ...' if len(outcome.rows) > 5 else ''}")

    # 3. the MAL plan (paper Figure 1) and its execution trace (Figure 3)
    print("\n--- MAL plan (Figure 1) ---")
    print(format_program(outcome.program))
    print("\n--- first trace lines (Figure 3) ---")
    from repro.profiler import format_event

    for event in profiler.events[:6]:
        print(format_event(event))

    # 4. offline Stethoscope session: dot -> layout -> svg -> graph
    session = Stethoscope.offline_from_memory(
        plan_to_dot(outcome.program), profiler.events
    )
    print(f"\nplan graph: {session.graph.node_count()} nodes, "
          f"{session.graph.edge_count()} edges; "
          f"trace coverage {session.trace_map.coverage():.0%}")

    # 5. replay the trace; long-running instructions turn RED then GREEN
    session.replay.run_to_end()
    colored = {n: c.to_hex() for n, c in session.painter.rendered.items()}
    print(f"coloured nodes after replay: {colored or 'none (all fast)'}")

    # 6. inspect the most expensive instruction
    costly = session.replay.costly_between(0, len(session.events), top=1)[0]
    print(f"\nmost expensive instruction (pc={costly.pc}):")
    print(session.tooltip(f"n{costly.pc}"))

    # 7. bird's-eye view of the whole trace
    print("\n--- bird's-eye trace clustering ---")
    print(session.birdseye())

    # 8. the display window (paper Figure 4), as text and as SVG
    print("\n--- display window (ASCII) ---")
    print(session.render_ascii(columns=100, rows=30))
    session.save_svg("quickstart_display.svg")
    print("\nwrote quickstart_display.svg")

    # 9. everything above left a trail in the engine metrics
    #    (`python -m repro metrics`; see docs/metrics_reference.md)
    import repro.metrics as metrics

    snap = metrics.snapshot()
    executed = sum(
        s["value"] for s in snap["repro_mal_instructions_total"]["samples"]
    )
    print(f"\nengine metrics: {executed:.0f} MAL instructions executed, "
          f"{len(snap)} metric families registered")


if __name__ == "__main__":
    main()
