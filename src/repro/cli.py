"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror how the paper's tools are operated:

=============  =========================================================
``serve``      start an Mserver with TPC-H data (the background server)
``query``      run SQL against a server (a client session)
``watch``      subscribe to a server's live trace broadcast hub and
               print entries as they stream (any number of watchers can
               follow one query — see ``docs/streaming.md``)
``listen``     the textual Stethoscope: receive a UDP trace stream and
               write the dot/trace files
``offline``    open a dot + trace file pair, replay, and report
``analyze``    micro-analysis table of a trace file
``datagen``    generate a TPC-H catalog and save it as a checkpoint
               directory
``metrics``    engine metrics in text exposition format (local registry,
               or a running server's via ``--port``)
``stats``      the adaptive feedback state: runtime statistics store
               summary, the most observed selection signatures and
               per-entry plan-cache diagnostics (live server or on-disk snapshot)
``chaos``      seeded fault-injection sweep against an in-process
               server; prints a pass/fail invariant report
``checkpoint``  recover a WAL directory, write a fresh checkpoint, and
               truncate the log (offline compaction)
``recover``    recover a WAL directory and report what survived —
               checkpoint used, records replayed, torn tail dropped
               (exit 0 clean; exit 3 when a torn/corrupt tail was
               truncated — the recovery was lossy)
``promote``    promote a running replica to primary (epoch bump +
               divergent-tail truncation; see docs/operations.md §11)
``repl-status``  one node's replication role, epoch, LSNs and lag
=============  =========================================================
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional


def _worker_count(text: str) -> int:
    """``serve --workers``: the bound a session's ``set`` enforces."""
    from repro.errors import ServerError
    from repro.server.protocol import checked_workers

    try:
        return checked_workers(text)
    except ServerError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_count(text: str) -> int:
    """``stats --top``: how many entries to list, at least one."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a count >= 1")
    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stethoscope: visual analysis of query execution plans",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="start an Mserver")
    serve.add_argument("--port", type=int, default=50000)
    serve.add_argument("--scale", type=float, default=0.1,
                       help="TPC-H scale factor (1.0 = ~6000 lineitems)")
    serve.add_argument("--workers", type=_worker_count, default=4,
                       help="dataflow workers the scheduler models (also "
                            "the mitosis partition count), 1 to 64; "
                            "kernels execute in-process")
    serve.add_argument("--plan-cache-size", type=int, default=64,
                       help="optimized plans kept by the LRU plan cache "
                            "(0 disables plan caching)")
    serve.add_argument("--catalog", help="load a saved catalog directory "
                                         "instead of generating TPC-H data")
    serve.add_argument("--wal-dir", default=None,
                       help="durable mode: write-ahead log + checkpoint "
                            "directory; an empty directory starts fresh "
                            "(data generated and checkpointed), one with "
                            "state is recovered and --scale/--catalog "
                            "are ignored")
    serve.add_argument("--checkpoint-interval", type=int, default=256,
                       help="statements between automatic checkpoints in "
                            "durable mode (0 disables; checkpoint "
                            "offline with the 'checkpoint' command)")
    serve.add_argument("--commit-window-ms", type=float, default=2.0,
                       help="group-commit window: the longest the first "
                            "writer waits for company before one fsync "
                            "covers the batch (a lone writer never "
                            "waits)")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="stop after this long (default: run forever)")
    serve.add_argument("--max-concurrent", type=int, default=4,
                       help="execution slots shared by concurrent queries")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="queries allowed to wait for a slot before "
                            "admission sheds them")
    serve.add_argument("--queue-wait", type=float, default=5.0,
                       help="longest a query may wait in the admission "
                            "queue (seconds)")
    serve.add_argument("--default-deadline", type=float, default=None,
                       help="server-side deadline for queries that do "
                            "not set their own (seconds)")
    serve.add_argument("--drain-seconds", type=float, default=2.0,
                       help="drain budget on shutdown before in-flight "
                            "queries are cancelled")
    serve.add_argument("--subscriber-buffer", type=int, default=512,
                       help="default per-subscriber broadcast buffer "
                            "(entries); laggards past it lose oldest "
                            "entries instead of slowing the query")
    serve.add_argument("--max-subscribers", type=int, default=1024,
                       help="broadcast subscriptions beyond this are "
                            "refused with a typed overload error")
    serve.add_argument("--trace-history", type=int, default=8192,
                       help="broadcast entries retained for "
                            "subscribe-from-sequence resume")
    serve.add_argument("--replicate-from", default=None,
                       metavar="HOST:PORT",
                       help="start as a read replica pulling the WAL "
                            "from this primary (requires --wal-dir; "
                            "TPC-H generation is skipped — the replica "
                            "bootstraps from the primary's checkpoint)")
    serve.add_argument("--peers", default=None,
                       help="comma-separated host:port list of every "
                            "node in the replicated topology (the "
                            "election set for automatic failover)")
    serve.add_argument("--node-host", default="127.0.0.1",
                       help="address this node advertises to peers "
                            "(must match how peers list it)")
    serve.add_argument("--heartbeat-timeout", type=float, default=2.0,
                       help="seconds without primary contact before a "
                            "replica starts a failover election")
    serve.add_argument("--no-auto-failover", action="store_true",
                       help="never self-promote on primary loss; "
                            "failover only via 'repro promote'")

    query = commands.add_parser("query", help="run SQL against a server")
    query.add_argument("sql", nargs="?", default=None)
    query.add_argument("--port", type=int, default=50000)
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--explain", action="store_true",
                       help="print the MAL plan instead of executing")
    query.add_argument("--dot", action="store_true",
                       help="print the plan's dot file instead of executing")
    query.add_argument("--pipeline", default=None,
                       help="optimizer pipeline for this session")
    query.add_argument("--deadline", type=float, default=None,
                       help="server-side deadline for this query (seconds)")
    query.add_argument("--cancel", metavar="QUERY_ID", default=None,
                       help="cancel a running query by id instead of "
                            "executing SQL")
    query.add_argument("--list", action="store_true",
                       help="list running and recent queries instead of "
                            "executing SQL")

    watch = commands.add_parser(
        "watch", help="follow a server's live trace broadcast stream"
    )
    watch.add_argument("--port", type=int, default=50000)
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--query-id", default="",
                       help="follow one query instead of everything "
                            "(live, or finished-but-retained)")
    watch.add_argument("--from-seq", type=int, default=None,
                       help="resume from a broadcast sequence number")
    watch.add_argument("--buffer", type=int, default=None,
                       help="server-side buffer for this subscription")
    watch.add_argument("--max-seconds", type=float, default=30.0,
                       help="stop watching after this long")
    watch.add_argument("--until-end", action="store_true",
                       help="stop at the first end-of-query marker")

    listen = commands.add_parser(
        "listen", help="textual Stethoscope: receive a UDP trace stream"
    )
    listen.add_argument("--port", type=int, default=50010)
    listen.add_argument("--trace-file", default="query.trace")
    listen.add_argument("--dot-file", default="plan.dot")
    listen.add_argument("--timeout", type=float, default=30.0)
    listen.add_argument("--status", choices=["start", "done"], default=None,
                        help="client-side status filter")

    offline = commands.add_parser(
        "offline", help="offline analysis of a dot + trace file pair"
    )
    offline.add_argument("dot_file")
    offline.add_argument("trace_file")
    offline.add_argument("--threshold", type=int, default=None,
                         help="usec threshold colouring instead of the "
                              "pair-sequence algorithm")
    offline.add_argument("--svg", default=None,
                         help="write the coloured display to an SVG file")
    offline.add_argument("--ascii", action="store_true",
                         help="print the display as text")

    shot = commands.add_parser(
        "screenshot", help="render a dot + trace pair to a PPM image"
    )
    shot.add_argument("dot_file")
    shot.add_argument("trace_file")
    shot.add_argument("output", help="output .ppm path")
    shot.add_argument("--width", type=int, default=1280)
    shot.add_argument("--height", type=int, default=960)
    shot.add_argument("--threshold", type=int, default=None)
    shot.add_argument("--gradient", action="store_true",
                      help="gradient colouring instead of RED/GREEN")

    analyze = commands.add_parser("analyze",
                                  help="micro-analysis of a trace file")
    analyze.add_argument("trace_file")
    analyze.add_argument("--top", type=int, default=10)
    analyze.add_argument("--csv", action="store_true")

    datagen = commands.add_parser("datagen",
                                  help="generate and save a TPC-H catalog")
    datagen.add_argument("path", help="checkpoint directory to create")
    datagen.add_argument("--scale", type=float, default=0.1)
    datagen.add_argument("--seed", type=int, default=19920101)

    metrics = commands.add_parser(
        "metrics", help="dump engine metrics (text exposition format)"
    )
    metrics.add_argument("--port", type=int, default=None,
                         help="fetch from a running Mserver via the "
                              "'stats' protocol verb instead of dumping "
                              "this process's registry")
    metrics.add_argument("--host", default="127.0.0.1")

    stats = commands.add_parser(
        "stats", help="runtime statistics store and plan-cache "
                      "diagnostics (the adaptive feedback state)"
    )
    stats.add_argument("--port", type=int, default=None,
                       help="ask a running server (stats verb); omit "
                            "with --snapshot for an offline view")
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--snapshot", default=None,
                       help="read a stats.json snapshot from disk "
                            "instead of a server")
    stats.add_argument("--top", type=_positive_count, default=10,
                       help="most observed selection signatures to list")

    chaos = commands.add_parser(
        "chaos", help="seeded fault-injection sweep (invariant report)"
    )
    chaos.add_argument("--seeds", type=int, default=20,
                       help="how many seeds per mix")
    chaos.add_argument("--base-seed", type=int, default=0,
                       help="first seed (cases use base..base+seeds-1)")
    chaos.add_argument("--seed", type=int, default=None,
                       help="replay exactly one seed instead of a sweep")
    chaos.add_argument("--mix", action="append", default=None,
                       help="fault mix name (repeatable; default: all)")
    chaos.add_argument("--spec", default=None,
                       help="explicit fault spec string overriding the "
                            "mix table (requires --seed and one --mix "
                            "name for labeling)")
    chaos.add_argument("--scale", type=float, default=0.01,
                       help="TPC-H scale factor for the sweep server")
    chaos.add_argument("--wall-cap", type=float, default=20.0,
                       help="per-case wall-clock cap in seconds")

    checkpoint = commands.add_parser(
        "checkpoint", help="compact a WAL directory into a checkpoint"
    )
    checkpoint.add_argument("wal_dir",
                            help="durable directory (serve --wal-dir)")

    recover = commands.add_parser(
        "recover", help="recover a WAL directory and report the result"
    )
    recover.add_argument("wal_dir",
                         help="durable directory (serve --wal-dir)")

    promote = commands.add_parser(
        "promote", help="promote a running replica to primary"
    )
    promote.add_argument("--port", type=int, default=50000)
    promote.add_argument("--host", default="127.0.0.1")

    repl_status = commands.add_parser(
        "repl-status", help="one node's replication role, epoch and lag"
    )
    repl_status.add_argument("--port", type=int, default=50000)
    repl_status.add_argument("--host", default="127.0.0.1")

    return parser


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_serve(args, out) -> int:
    from repro.server import Database, Mserver
    from repro.tpch import populate

    db_options = dict(workers=args.workers,
                      plan_cache_size=args.plan_cache_size)
    if args.wal_dir:
        db_options.update(wal_dir=args.wal_dir,
                          commit_window_ms=args.commit_window_ms,
                          checkpoint_interval=args.checkpoint_interval)
    if args.replicate_from:
        if not args.wal_dir:
            out.write("error: --replicate-from requires --wal-dir "
                      "(replication ships the WAL)\n")
            return 2
        # a replica never generates its own data: whatever the
        # directory holds is recovered, and the rest streams in from
        # the primary (checkpoint bootstrap + WAL tail)
        db = Database(**db_options)
        if db.recovery is not None and db.recovery.recovered_anything:
            out.write(db.recovery.describe() + "\n")
    elif args.catalog:
        from repro.storage.durable import load_catalog

        catalog = load_catalog(args.catalog)
        db = Database(catalog=catalog, **db_options)
        out.write(f"loaded catalog from {args.catalog}\n")
    elif args.wal_dir:
        db = Database(**db_options)
        if db.recovery is not None and db.recovery.recovered_anything:
            out.write(db.recovery.describe() + "\n")
        else:
            counts = populate(db.catalog, scale_factor=args.scale)
            report = db.checkpoint()
            out.write(f"TPC-H sf={args.scale}: "
                      f"{counts['lineitem']} lineitems, baseline "
                      f"checkpoint at {report.path}\n")
    else:
        db = Database(**db_options)
        counts = populate(db.catalog, scale_factor=args.scale)
        out.write(f"TPC-H sf={args.scale}: "
                  f"{counts['lineitem']} lineitems\n")
    with Mserver(db, port=args.port,
                 max_concurrent=args.max_concurrent,
                 max_queue=args.max_queue,
                 queue_wait_s=args.queue_wait,
                 default_deadline_s=args.default_deadline,
                 drain_seconds=args.drain_seconds,
                 subscriber_buffer=args.subscriber_buffer,
                 max_subscribers=args.max_subscribers,
                 trace_history=args.trace_history) as server:
        peers = tuple(p.strip() for p in (args.peers or "").split(",")
                      if p.strip())
        if args.replicate_from or peers:
            from repro.replication import ReplicationManager

            manager = ReplicationManager(
                server, addr=f"{args.node_host}:{server.port}",
                primary=args.replicate_from, peers=peers,
                heartbeat_timeout_s=args.heartbeat_timeout,
                auto_failover=not args.no_auto_failover)
            server.replication = manager.start()
            out.write(f"replication: role {manager.role}, "
                      f"primary {manager.primary}, "
                      f"{len(manager.peers)} peer(s)\n")
        out.write(f"Mserver listening on port {server.port}\n")
        out.flush()
        deadline = (time.monotonic() + args.max_seconds
                    if args.max_seconds else None)
        try:
            while deadline is None or time.monotonic() < deadline:
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
    out.write("server stopped\n")
    return 0


def _cmd_query(args, out) -> int:
    from repro.server import MClient

    with MClient(host=args.host, port=args.port) as client:
        if args.cancel:
            landed = client.cancel(args.cancel)
            out.write(f"cancel {args.cancel}: "
                      + ("cancelled\n" if landed else "not running\n"))
            return 0 if landed else 1
        if args.list:
            listing = client.queries()
            for entry in listing["queries"]:
                out.write(f"{entry['query_id']}\t{entry['state']}\t"
                          f"{entry['elapsed_s']}s\t{entry['sql']}\n")
            for entry in listing["recent"]:
                out.write(f"{entry['query_id']}\t{entry['state']}\t"
                          f"(finished)\t{entry['sql']}\n")
            out.write(f"-- {len(listing['queries'])} running, "
                      f"{len(listing['recent'])} recent\n")
            return 0
        if args.sql is None:
            out.write("error: sql required unless --cancel/--list\n")
            return 2
        if args.pipeline:
            client.set_pipeline(args.pipeline)
        if args.explain:
            out.write(client.explain(args.sql) + "\n")
            return 0
        if args.dot:
            out.write(client.dot(args.sql) + "\n")
            return 0
        result = client.query(args.sql, server_deadline_s=args.deadline)
        if result.kind == "rows":
            out.write("\t".join(result.columns) + "\n")
            for row in result.rows:
                out.write("\t".join(str(v) for v in row) + "\n")
            out.write(f"-- {len(result.rows)} row(s) "
                      f"[{result.query_id}]\n")
        else:
            out.write(f"-- {result.kind}: {result.affected} row(s) "
                      f"[{result.query_id}]\n")
    return 0


def _cmd_watch(args, out) -> int:
    from repro.server import MClient

    with MClient(host=args.host, port=args.port) as client:
        sub = client.subscribe(from_seq=args.from_seq,
                               query_id=args.query_id,
                               buffer=args.buffer)
        out.write(f"subscribed as {sub.subscriber_id} "
                  f"(next_seq={sub.next_seq}, missed={sub.missed})\n")
        out.flush()
        try:
            for entry in sub.entries(max_seconds=args.max_seconds,
                                     until_end=args.until_end):
                out.write(f"{entry['seq']}\t{entry['kind']}\t"
                          f"{entry['query_id']}\t{entry['line']}\n")
                out.flush()
        except KeyboardInterrupt:
            pass
        summary = sub.stop()
        out.write(f"-- {summary.get('delivered', 0)} delivered, "
                  f"{summary.get('dropped', 0)} dropped, "
                  f"{summary.get('missed', 0)} missed "
                  f"(last_seq={sub.last_seq})\n")
    return 0 if sub.received else 1


def _cmd_listen(args, out) -> int:
    from repro.core.textual import TextualStethoscope
    from repro.profiler import EventFilter

    event_filter = None
    if args.status:
        event_filter = EventFilter(statuses={args.status})
    textual = TextualStethoscope()
    connection = textual.connect("server", event_filter,
                                 port=args.port)
    out.write(f"textual stethoscope listening on UDP {connection.port}\n")
    out.flush()
    deadline = time.monotonic() + args.timeout
    try:
        while time.monotonic() < deadline and not connection.ended:
            connection.drain(timeout=0.1)
    except KeyboardInterrupt:
        pass
    if connection.dot_lines:
        connection.write_dot_file(args.dot_file)
        out.write(f"wrote {args.dot_file}\n")
    count = connection.write_trace_file(args.trace_file)
    out.write(f"wrote {args.trace_file} ({count} events, "
              f"{connection.dropped} filtered, "
              f"{connection.malformed} malformed)\n")
    textual.close()
    return 0 if count or connection.dot_lines else 1


def _cmd_offline(args, out) -> int:
    from repro.core.session import Stethoscope

    session = Stethoscope.offline(args.dot_file, args.trace_file,
                                  threshold_usec=args.threshold)
    session.replay.run_to_end()
    out.write(f"plan: {session.graph.node_count()} nodes, "
              f"{session.graph.edge_count()} edges\n")
    out.write(f"trace: {len(session.events)} events, coverage "
              f"{session.trace_map.coverage():.0%}\n")
    colored = sorted(session.painter.rendered.items())
    if colored:
        out.write("coloured nodes:\n")
        for node_id, color in colored:
            out.write(f"  {node_id}: {color.to_hex()}\n")
    out.write("\nbird's-eye clustering:\n")
    out.write(session.birdseye() + "\n")
    profile = session.analysis.parallelism_profile()
    out.write(f"\nparallelism: {profile.threads_used} thread(s), "
              f"speedup {profile.speedup_vs_serial:.2f}x\n")
    if args.svg:
        session.save_svg(args.svg)
        out.write(f"wrote {args.svg}\n")
    if args.ascii:
        out.write(session.render_ascii() + "\n")
    return 0


def _cmd_screenshot(args, out) -> int:
    from repro.core.session import Stethoscope

    session = Stethoscope.offline(args.dot_file, args.trace_file,
                                  threshold_usec=args.threshold)
    if args.gradient:
        session.apply_gradient_coloring()
    else:
        session.replay.run_to_end()
    session.save_screenshot(args.output, width=args.width,
                            height=args.height)
    out.write(f"wrote {args.output} ({args.width}x{args.height})\n")
    return 0


def _cmd_analyze(args, out) -> int:
    from repro.core.analysis import TraceAnalyzer
    from repro.profiler.traceio import iter_trace

    analyzer = TraceAnalyzer(iter_trace(args.trace_file))
    if args.csv:
        out.write(analyzer.to_csv() + "\n")
        return 0
    summary = analyzer.summary()
    out.write(f"events: {summary['events']}  instructions: "
              f"{summary['instructions']}\n")
    out.write(f"makespan: {summary['makespan_usec']} usec  "
              f"p50: {summary['p50_usec']}  p95: {summary['p95_usec']}  "
              f"p99: {summary['p99_usec']}\n\n")
    out.write(f"{'pc':>5} {'execs':>5} {'total':>9} {'mean':>9}  stmt\n")
    for stats in analyzer.per_instruction()[: args.top]:
        out.write(f"{stats.pc:>5} {stats.executions:>5} "
                  f"{stats.total_usec:>9} {stats.mean_usec:>9.1f}  "
                  f"{stats.stmt[:60]}\n")
    return 0


def _cmd_datagen(args, out) -> int:
    from repro.storage import Catalog
    from repro.storage.durable import save_catalog
    from repro.tpch import populate

    catalog = Catalog()
    counts = populate(catalog, scale_factor=args.scale, seed=args.seed)
    rows = save_catalog(catalog, args.path)
    out.write(f"wrote {args.path}: {rows} rows "
              f"({counts['lineitem']} lineitems)\n")
    return 0


def _cmd_metrics(args, out) -> int:
    from repro.metrics import render_snapshot, render_text

    if args.port is None:
        out.write(render_text())
        return 0
    from repro.server import MClient

    with MClient(host=args.host, port=args.port) as client:
        out.write(render_snapshot(client.stats()))
    return 0


def _render_stats(payload, out, top: int) -> None:
    store = payload.get("stats_store") or {}
    out.write("stats store:\n")
    for key in ("entries", "query_entries", "capacity", "observations",
                "evictions"):
        if key in store:
            out.write(f"  {key}: {store[key]}\n")
    entries = (payload.get("stats_top") or [])[:top]
    if entries:
        out.write("most observed selections (n, selectivity):\n")
        for entry in entries:
            sel = entry.get("sel")
            sel_text = "-" if sel is None else f"{sel:.4f}"
            out.write(f"  {entry['n']:>6}  {sel_text:>8}  "
                      f"{entry['key']}\n")
    cache = payload.get("plan_cache") or {}
    if cache:
        out.write("plan cache:\n")
        for key in ("size", "capacity", "hits", "misses", "evictions"):
            if key in cache:
                out.write(f"  {key}: {cache[key]}\n")
    plans = payload.get("plan_entries") or []
    if plans:
        out.write("cached plans (hits, age s, last usec):\n")
        for plan in plans:
            last = plan.get("last_usec")
            out.write(
                f"  {plan['hits']:>5}  {plan['age_s']:>8.1f}  "
                f"{'-' if last is None else round(last)}  "
                f"[{plan['pipeline']} w={plan['workers']} "
                f"reads {','.join(plan.get('tables', ()))}] "
                f"{plan['sql']}\n")


def _cmd_stats(args, out) -> int:
    if args.snapshot:
        from repro.stats import StatsStore

        store = StatsStore.load(args.snapshot)
        _render_stats({"stats_store": store.summary(),
                       "stats_top": store.top_entries(args.top)},
                      out, args.top)
        return 0
    if args.port is None:
        out.write("error: pass --port for a live server or --snapshot "
                  "for an on-disk stats file\n")
        return 2
    from repro.server import MClient

    with MClient(host=args.host, port=args.port) as client:
        _render_stats(client.stats_payload(), out, args.top)
    return 0


def _cmd_chaos(args, out) -> int:
    import tempfile

    from repro.faults.chaos import ChaosReport, run_case, run_sweep

    mixes = args.mix if args.mix else None
    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.base_seed, args.base_seed + args.seeds))
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        if args.spec is not None:
            # single explicit spec: build the server once, run the cases
            from repro.server.database import Database
            from repro.server.mserver import Mserver
            from repro.tpch import populate

            label = (mixes or ["custom"])[0]
            database = Database(workers=2, mitosis_threshold=50)
            populate(database.catalog, scale_factor=args.scale, seed=3)
            report = ChaosReport()
            with Mserver(database) as server:
                for seed in seeds:
                    report.cases.append(run_case(
                        server, seed, label, spec=args.spec,
                        workdir=workdir, wall_cap_s=args.wall_cap))
        else:
            report = run_sweep(
                seeds, mixes, scale=args.scale, workdir=workdir,
                wall_cap_s=args.wall_cap,
                log=lambda line: (out.write(line + "\n"), out.flush()),
            )
    out.write(report.render() + "\n")
    return 0 if report.ok else 1


def _cmd_checkpoint(args, out) -> int:
    from repro.storage.durable import DurableEngine

    engine = DurableEngine(args.wal_dir)
    try:
        out.write(engine.report.describe() + "\n")
        report = engine.checkpoint()
        out.write(f"checkpoint at lsn {report.lsn}: {report.path} "
                  f"({report.files} column files, {report.linked} "
                  f"linked, {report.rows} rows, "
                  f"{report.bytes} bytes); wal truncated\n")
    finally:
        engine.close()
    return 0


def _cmd_recover(args, out) -> int:
    from repro.storage.durable import recover

    catalog, report = recover(args.wal_dir)
    out.write(report.describe() + "\n")
    for schema in catalog.schemas.values():
        for table in schema.tables.values():
            out.write(f"  {schema.name}.{table.name}: "
                      f"{table.row_count()} rows, "
                      f"{len(table.columns)} columns\n")
    # lossy recovery (a torn/corrupt tail was truncated) is a success
    # for the engine but an event for the operator — give scripts a
    # distinct exit code instead of burying it in the report text
    return 3 if report.torn else 0


def _cmd_promote(args, out) -> int:
    from repro.server import MClient

    with MClient(host=args.host, port=args.port) as client:
        status = client.promote()
    if status.get("promoted"):
        out.write(f"promoted {status.get('addr', '')} to primary at "
                  f"epoch {status.get('epoch')} "
                  f"(dropped {status.get('dropped_records', 0)} "
                  f"unacked record(s))\n")
    else:
        out.write(f"{status.get('addr', '')} is already primary "
                  f"(epoch {status.get('epoch')})\n")
    return 0


def _cmd_repl_status(args, out) -> int:
    from repro.server import MClient

    with MClient(host=args.host, port=args.port) as client:
        status = client.repl_status()
    for key in ("role", "addr", "primary", "epoch", "durable_lsn",
                "checkpoint_lsn", "lag_records", "lag_bytes",
                "last_contact_s", "records_applied", "failovers"):
        if key in status:
            out.write(f"{key}: {status[key]}\n")
    peers = status.get("peers") or []
    out.write(f"peers: {', '.join(peers) if peers else '(none)'}\n")
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "query": _cmd_query,
    "watch": _cmd_watch,
    "listen": _cmd_listen,
    "offline": _cmd_offline,
    "screenshot": _cmd_screenshot,
    "analyze": _cmd_analyze,
    "datagen": _cmd_datagen,
    "metrics": _cmd_metrics,
    "stats": _cmd_stats,
    "chaos": _cmd_chaos,
    "checkpoint": _cmd_checkpoint,
    "recover": _cmd_recover,
    "promote": _cmd_promote,
    "repl-status": _cmd_repl_status,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except Exception as exc:  # surface cleanly at the CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
