"""The benchmark's vocabulary: workload and metric names, units, bounds.

``BENCHMARK.json`` at the repository root carries the same names; the
self-tests assert the two agree, so a metric cannot be renamed in one
place only.  Later issues cite these names — treat them as fixed.
"""

#: (name, why) — the reason is the layer the workload is sized to load.
WORKLOADS = (
    ("tpch_scan",
     "11 TPC-H queries, warm plan cache: executor and BAT kernels do the "
     "work, the front-end almost none"),
    ("adhoc_small",
     "~1000 distinct small statements against a 64-entry plan cache: "
     "parse/compile/optimise and executor scaffolding, few rows"),
    ("wide_result",
     "1k-11k-row projections: result encoding, framing and client "
     "decoding, which no other workload loads"),
    ("ingest_mixed",
     "fsynced 8-row INSERTs beside reads whose plans every insert "
     "invalidates: WAL, group commit, checkpoints, compile path"),
    ("steth_replay",
     "the paper's tool offline: dot+trace file to painted SVG, everyday "
     "plans at p50 and a 1004-node plan at p95; the engine is idle"),
)

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: Times and rates are at reference speed (measure.py).  Over three sets
#: of ten runs of one commit, each run with another seed, a metric spread
#: (interquartile, over the median) by 2-11 % for p50, 2-12 % for p95,
#: 2-11 % for the rate, up to 6 % for memory and 4-13 % for set-up, the
#: high ends on ``ingest_mixed`` in the noisiest half hour seen
#: (README.md, "Steadiness"); each bound is at least 1.6 times the worst
#: spread seen.
END_TO_END = (
    ("op_p50_ms", "ms", "lower", 0.20),
    ("op_p95_ms", "ms", "lower", 0.20),
    ("ops_per_s", "1/s", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

#: Attribution layers of the traced run, in reporting order.  ``harness``
#: is op time no wrapped call covers.
LAYERS = (
    "server", "server.database", "sqlfe", "mal.optimizer", "mal",
    "storage", "storage.durable", "profiler", "dot", "layout", "svg",
    "core", "viz", "harness",
)

OPTIMIZER_PASSES = (
    "ConstantFold", "CommonSubexpression", "DeadCode", "AdaptiveOrder",
    "Mitosis", "GarbageCollector", "Dataflow",
)

#: MAL modules reported one by one; ``other`` is every remaining module
#: (calc, batstr, and mtime/batmtime, which the probe statements' plans
#: do not contain).
MAL_MODULES = (
    "algebra", "bat", "aggr", "group", "batcalc", "mat", "sql", "language",
    "other",
)

LAYOUT_PHASES = ("acyclic", "rank", "ordering", "position")

#: The two plans the drawing pipeline is probed on.
PROBE_PLANS = ("large", "tpch")


def _per_layer():
    out = []
    # where this workload's traced op time went (self time per layer)
    out += [(f"share.{layer}", "%", "lower") for layer in LAYERS]
    out += [
        ("trace.op_ms", "ms", "lower"),
        ("trace.overhead_share", "%", "lower"),
        ("trace.spans_per_op", "count", "lower"),
        # counts taken on this workload's own operations
        ("plancache.hit_share", "%", "higher"),
        ("plancache.evictions", "count", "lower"),
        ("sqlfe.plan_instructions", "count", "lower"),
        ("optimizer.instructions_out", "count", "lower"),
        ("mal.instructions", "count", "lower"),
        ("protocol.result_bytes", "count", "lower"),
        # fixed-input probes of each layer's public calls
        ("protocol.encode_request_us", "us", "lower"),
        ("protocol.decode_request_us", "us", "lower"),
        ("protocol.encode_result_ms", "ms", "lower"),
        ("protocol.decode_result_ms", "ms", "lower"),
        ("server.ping_us", "us", "lower"),
        ("server.residual_us", "us", "lower"),
        ("plancache.lookup_us", "us", "lower"),
        ("stats.observe_us", "us", "lower"),
        ("sqlfe.parse_ms", "ms", "lower"),
        ("sqlfe.compile_ms", "ms", "lower"),
        ("optimizer.total_ms", "ms", "lower"),
    ]
    out += [(f"optimizer.pass.{name}_ms", "ms", "lower")
            for name in OPTIMIZER_PASSES]
    out += [
        ("mal.execute_ms", "ms", "lower"),
        ("mal.us_per_instruction", "us", "lower"),
        ("mal.ns_per_input_row", "ns", "lower"),
        ("mal.model_ratio", "ratio", "higher"),
    ]
    out += [(f"mal.op.{module}_ms", "ms", "lower") for module in MAL_MODULES]
    out += [
        ("storage.select_scan_ms", "ms", "lower"),
        ("storage.select_indexed_ms", "ms", "lower"),
        ("storage.thetaselect_ms", "ms", "lower"),
        ("storage.leftjoin_ms", "ms", "lower"),
        ("storage.group_ms", "ms", "lower"),
        ("storage.aggr_ms", "ms", "lower"),
        ("storage.sort_ms", "ms", "lower"),
        ("storage.insert_many_ms", "ms", "lower"),
        ("storage.bytes_per_value", "count", "lower"),
        ("durable.commit_ms", "ms", "lower"),
        ("durable.fsyncs_per_commit", "count", "lower"),
        ("durable.wal_bytes_per_row", "count", "lower"),
        ("durable.checkpoint_ms", "ms", "lower"),
        ("durable.checkpoint_bytes", "count", "lower"),
        ("durable.read_stall_ms", "ms", "lower"),
        ("durable.recover_ms", "ms", "lower"),
        ("profiler.overhead_share", "%", "lower"),
        ("profiler.events_per_query", "count", "lower"),
        ("profiler.trace_write_ms", "ms", "lower"),
        ("profiler.trace_read_ms", "ms", "lower"),
    ]
    for plan in PROBE_PLANS:
        out += [
            (f"dot.write_ms.{plan}", "ms", "lower"),
            (f"dot.parse_ms.{plan}", "ms", "lower"),
            (f"layout.total_ms.{plan}", "ms", "lower"),
        ]
        out += [(f"layout.{phase}_ms.{plan}", "ms", "lower")
                for phase in LAYOUT_PHASES]
        out += [
            (f"layout.crossings.{plan}", "count", "lower"),
            (f"svg.write_ms.{plan}", "ms", "lower"),
            (f"svg.parse_ms.{plan}", "ms", "lower"),
        ]
    out += [
        ("core.mapping_ms", "ms", "lower"),
        ("core.replay_events_per_s", "1/s", "higher"),
        ("core.coloring_ms", "ms", "lower"),
        ("core.analysis_ms", "ms", "lower"),
        ("viz.space_ms", "ms", "lower"),
        ("viz.render_svg_ms", "ms", "lower"),
        ("viz.render_ascii_ms", "ms", "lower"),
    ]
    return tuple(out)


#: (name, unit, better) — measured only by ``--trace 1``; no bounds.
PER_LAYER = _per_layer()
