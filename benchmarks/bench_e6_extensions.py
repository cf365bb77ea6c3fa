"""Experiment E6 — the paper's future-work features as ablations.

Gradient colouring (vs binary RED/GREEN), selective pruning of
administrative instructions (how much smaller the displayed plan gets),
and the analytic micro-analysis interface (cost of computing the full
statistics table)."""

import os

from repro.core.analysis import TraceAnalyzer
from repro.core.pruning import prune_administrative
from repro.core.session import Stethoscope
from repro.dot.writer import plan_to_dot
from repro.profiler import Profiler
from repro.tpch import query_sql


def capture(db, name):
    profiler = Profiler()
    outcome = db.execute(query_sql(name), listener=profiler)
    return plan_to_dot(outcome.program), profiler.events


def test_e6_gradient_coloring(benchmark, tpch_db, artifacts):
    dot_text, events = capture(tpch_db, "q1")
    session = Stethoscope.offline_from_memory(dot_text, events)
    painted = benchmark(session.apply_gradient_coloring)
    fills = {
        session.space.shape_of(node).fill.to_hex()
        for node in session.painter.rendered
    }
    with open(os.path.join(artifacts, "e6_extensions.txt"), "a") as f:
        f.write(f"gradient: painted={painted} distinct_colors={len(fills)}\n")
    assert len(fills) > 2  # a gradient, not binary RED/GREEN


def test_e6_pruning_reduction(benchmark, tpch_db, artifacts):
    dot_text, events = capture(tpch_db, "q5")
    session = Stethoscope.offline_from_memory(dot_text, events)
    pruned = benchmark(
        prune_administrative, session.graph, None, True
    )
    before = session.graph.node_count()
    after = pruned.node_count()
    with open(os.path.join(artifacts, "e6_extensions.txt"), "a") as f:
        f.write(f"pruning q5: {before} -> {after} nodes "
                f"({100 * (before - after) / before:.0f}% removed)\n")
    assert after < before


def test_e6_microanalysis_table(benchmark, tpch_db, artifacts):
    _dot, events = capture(tpch_db, "q1")

    def analyse():
        analyzer = TraceAnalyzer(events)
        return (analyzer.per_instruction(), analyzer.per_operator(),
                analyzer.summary())

    per_instruction, per_operator, summary = benchmark(analyse)
    with open(os.path.join(artifacts, "e6_extensions.txt"), "a") as f:
        f.write(f"microanalysis q1: {len(per_instruction)} instructions, "
                f"{len(per_operator)} operators, "
                f"p99={summary['p99_usec']}usec\n")
    assert per_instruction and per_operator


def test_e6_microanalysis_csv_export(benchmark, tpch_db, artifacts):
    _dot, events = capture(tpch_db, "q3")
    analyzer = TraceAnalyzer(events)
    csv = benchmark(analyzer.to_csv)
    path = os.path.join(artifacts, "e6_q3_microanalysis.csv")
    with open(path, "w") as f:
        f.write(csv + "\n")
    assert csv.splitlines()[0].startswith("pc,")


def test_e6_optimizer_pass_ablation(benchmark, tpch_db, artifacts):
    """Per-pass plan-size deltas (what each optimizer stage does to the
    graph the Stethoscope displays)."""
    from repro.mal.optimizer import default_pipe
    from repro.sqlfe import compile_sql

    sql = query_sql("q1")

    def apply_pipeline():
        pipeline = default_pipe(nparts=4, mitosis_threshold=400)
        for opt_pass in pipeline.passes:
            if hasattr(opt_pass, "catalog"):
                opt_pass.catalog = tpch_db.catalog
        pipeline.apply(compile_sql(tpch_db.catalog, sql))
        return pipeline.reports

    reports = benchmark(apply_pipeline)
    with open(os.path.join(artifacts, "e6_extensions.txt"), "a") as f:
        for report in reports:
            f.write(f"pass {report.name}: {report.instructions_before} -> "
                    f"{report.instructions_after}\n")
    assert any(r.delta != 0 for r in reports)
