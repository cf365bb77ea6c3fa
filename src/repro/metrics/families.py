"""Every metric family the engine ships, declared in one place.

Centralising the declarations keeps the catalog discoverable (importing
:mod:`repro.metrics` registers everything, so ``python -m repro
metrics`` lists the full family set even in a fresh process) and lets
the docs-consistency gate in ``tests/test_docs.py`` verify that
``docs/metrics_reference.md`` documents *exactly* this set.

Subsystems import the family objects below and update them from their
hot paths; see the reference document for which code path moves which
family.
"""

from __future__ import annotations

from repro.metrics.core import REGISTRY

# --------------------------------------------------------------------------
# repro.server.mserver — the TCP front door
# --------------------------------------------------------------------------

SERVER_CONNECTIONS = REGISTRY.counter(
    "repro_server_connections_total",
    "TCP client connections accepted by the Mserver.",
    unit="connections",
)

SERVER_CONNECTIONS_ACTIVE = REGISTRY.gauge(
    "repro_server_connections_active",
    "Client connections currently being served.",
    unit="connections",
)

SERVER_REQUESTS = REGISTRY.counter(
    "repro_server_requests_total",
    "Protocol requests handled, by op (ping, query, cancel, queries, "
    "explain, dot, set, profiler, stats, quit).",
    labels=("op",),
    unit="requests",
)

SERVER_REQUEST_ERRORS = REGISTRY.counter(
    "repro_server_request_errors_total",
    "Requests that returned an error response, by op.",
    labels=("op",),
    unit="requests",
)

SERVER_QUERY_USEC = REGISTRY.histogram(
    "repro_server_query_usec",
    "Wall-clock latency of query ops as served (includes queueing in "
    "the admission controller).",
    unit="usec",
    buckets=(100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
             10_000_000.0),
)

# --------------------------------------------------------------------------
# repro.server.lifecycle — query supervision and admission control
# --------------------------------------------------------------------------

SERVER_QUERIES_ADMITTED = REGISTRY.counter(
    "repro_server_queries_admitted_total",
    "Queries that passed admission control and got an execution slot.",
    unit="queries",
)

SERVER_QUERIES_SHED = REGISTRY.counter(
    "repro_server_queries_shed_total",
    "Queries rejected by admission control, by reason (queue-full, "
    "queue-wait, stopping). Raised to the client as "
    "ServerOverloadedError.",
    labels=("reason",),
    unit="queries",
)

SERVER_QUERIES_CANCELLED = REGISTRY.counter(
    "repro_server_queries_cancelled_total",
    "Queries cancelled before completing, by source (client cancel op, "
    "deadline, drain shutdown, rss-budget).",
    labels=("source",),
    unit="queries",
)

SERVER_QUERY_DEADLINE_EXCEEDED = REGISTRY.counter(
    "repro_server_query_deadline_exceeded_total",
    "Queries cancelled because they ran past their server-side "
    "deadline.",
    unit="queries",
)

SERVER_DRAINS = REGISTRY.counter(
    "repro_server_drains_total",
    "Graceful drain shutdowns, by outcome: clean (all in-flight "
    "queries finished inside the drain budget) or forced (stragglers "
    "were cancelled).",
    labels=("outcome",),
    unit="drains",
)

SERVER_ADMISSION_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_server_admission_queue_depth",
    "Queries currently waiting in the bounded admission queue for an "
    "execution slot.",
    unit="queries",
)

SERVER_QUERIES_ACTIVE = REGISTRY.gauge(
    "repro_server_queries_active",
    "Queries currently holding an execution slot (running, not "
    "queued).",
    unit="queries",
)

# --------------------------------------------------------------------------
# repro.server.database — the SQL→MAL plan cache
# --------------------------------------------------------------------------

PLAN_CACHE_HITS = REGISTRY.counter(
    "repro_plan_cache_hits_total",
    "SQL statements answered with a cached optimized MAL plan, "
    "skipping lexing, parsing, binding and the optimizer pipeline.",
    unit="plans",
)

PLAN_CACHE_MISSES = REGISTRY.counter(
    "repro_plan_cache_misses_total",
    "Cacheable SQL statements that had to be compiled because no "
    "current plan was cached (first sight, changed session settings, "
    "or a table the cached plan reads has changed).",
    unit="plans",
)

PLAN_CACHE_EVICTIONS = REGISTRY.counter(
    "repro_plan_cache_evictions_total",
    "Cached plans dropped, by reason: lru (capacity pressure) or "
    "invalidate (a table the plan reads changed, or DDL cleared the "
    "cache).",
    labels=("reason",),
    unit="plans",
)

PLAN_CACHE_SIZE = REGISTRY.gauge(
    "repro_plan_cache_size",
    "Optimized plans currently held by the plan cache.",
    unit="plans",
)

# --------------------------------------------------------------------------
# repro.mal — interpreter and dataflow scheduler
# --------------------------------------------------------------------------

MAL_EXECUTIONS = REGISTRY.counter(
    "repro_mal_executions_total",
    "MAL programs executed, by scheduler (interpreter, simulated).",
    labels=("scheduler",),
    unit="programs",
)

MAL_INSTRUCTIONS = REGISTRY.counter(
    "repro_mal_instructions_total",
    "MAL instructions executed, by module.",
    labels=("module",),
    unit="instructions",
)

MAL_INSTRUCTION_USEC = REGISTRY.histogram(
    "repro_mal_instruction_usec",
    "Modelled (virtual-clock) instruction durations, by module.",
    labels=("module",),
    unit="usec",
    buckets=(1.0, 5.0, 25.0, 100.0, 500.0, 2_500.0, 10_000.0, 100_000.0),
)

MAL_WORKER_UTILIZATION = REGISTRY.histogram(
    "repro_mal_worker_utilization_percent",
    "Per-run worker utilisation: busy usec / (workers x makespan), as a "
    "percentage. Low values on multi-worker runs flag poorly "
    "parallelised plans (the paper's sequential anomaly).",
    unit="percent",
    buckets=(10.0, 25.0, 50.0, 75.0, 90.0, 100.0),
)

# --------------------------------------------------------------------------
# repro.storage.durable — WAL, checkpoints and crash recovery
# --------------------------------------------------------------------------

PERSIST_WAL_APPENDS = REGISTRY.counter(
    "repro_persist_wal_appends_total",
    "Records appended to the write-ahead log, by kind (ddl, insert).",
    labels=("kind",),
    unit="records",
)

PERSIST_WAL_BYTES = REGISTRY.counter(
    "repro_persist_wal_bytes_total",
    "Bytes written to the write-ahead log (16-byte record headers plus "
    "JSON [kind, data] payloads).",
    unit="bytes",
)

PERSIST_GROUP_COMMIT_BATCH = REGISTRY.histogram(
    "repro_persist_group_commit_batch",
    "Records made durable per fsync. 1 means per-record fsync; higher "
    "values mean the commit window batched concurrent writers.",
    unit="records",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
)

PERSIST_CHECKPOINTS = REGISTRY.counter(
    "repro_persist_checkpoints_total",
    "Checkpoint attempts, by outcome (ok, failed). A failed checkpoint "
    "never truncates the WAL, so durability is unaffected.",
    labels=("outcome",),
    unit="checkpoints",
)

PERSIST_RECOVERIES = REGISTRY.counter(
    "repro_persist_recoveries_total",
    "Crash recoveries performed on database open, by outcome (clean: "
    "no torn tail; torn: a damaged WAL tail was dropped).",
    labels=("outcome",),
    unit="recoveries",
)

PERSIST_RECOVERED_RECORDS = REGISTRY.counter(
    "repro_persist_recovered_records_total",
    "WAL records replayed into the catalog during recovery, by kind "
    "(ddl, insert).",
    labels=("kind",),
    unit="records",
)

PERSIST_TORN_RECORDS_DROPPED = REGISTRY.counter(
    "repro_persist_torn_records_dropped_total",
    "Torn or corrupt WAL records recovery stopped at and truncated "
    "away (never acknowledged, so dropping them loses nothing).",
    unit="records",
)

# --------------------------------------------------------------------------
# repro.replication — WAL shipping, read replicas and failover
# --------------------------------------------------------------------------

REPL_ROLE = REGISTRY.gauge(
    "repro_repl_role",
    "This node's replication role: 1 when primary, 0 when replica. "
    "Labelled by the node's advertised address (several nodes may "
    "share one process under test).",
    labels=("node",),
)

REPL_EPOCH = REGISTRY.gauge(
    "repro_repl_epoch",
    "The replication epoch persisted in the node's WAL directory. "
    "Promotion bumps it; a stream carrying a lower epoch is fenced.",
    labels=("node",),
)

REPL_LAG_RECORDS = REGISTRY.gauge(
    "repro_repl_lag_records",
    "How many committed WAL records the replica still has to apply "
    "(primary durable LSN minus replica durable LSN).",
    labels=("node",),
    unit="records",
)

REPL_LAG_BYTES = REGISTRY.gauge(
    "repro_repl_lag_bytes",
    "Committed WAL bytes the replica has not yet applied, as of the "
    "last sync response.",
    labels=("node",),
    unit="bytes",
)

REPL_LAG_SECONDS = REGISTRY.gauge(
    "repro_repl_lag_seconds",
    "Seconds since the replica last heard from its primary. The "
    "heartbeat-timeout election fires off this clock.",
    labels=("node",),
    unit="seconds",
)

REPL_RECORDS_APPLIED = REGISTRY.counter(
    "repro_repl_records_applied_total",
    "WAL records received from the primary and applied through the "
    "recovery path, by kind (ddl, insert).",
    labels=("kind",),
    unit="records",
)

REPL_FENCED = REGISTRY.counter(
    "repro_repl_fenced_total",
    "Replication messages rejected by epoch fencing, by side (follower: "
    "a deposed primary's stream carried a stale epoch; primary: a "
    "request proved this node was deposed).",
    labels=("side",),
    unit="messages",
)

REPL_FAILOVERS = REGISTRY.counter(
    "repro_repl_failovers_total",
    "Promotions to primary, by trigger (manual: the promote verb; "
    "auto: heartbeat-timeout election).",
    labels=("trigger",),
    unit="promotions",
)

# --------------------------------------------------------------------------
# repro.profiler.stream — the UDP trace stream
# --------------------------------------------------------------------------

UDP_DATAGRAMS_SENT = REGISTRY.counter(
    "repro_udp_datagrams_sent_total",
    "Datagrams shipped by UdpEmitter, by line kind (event, dot, end).",
    labels=("kind",),
    unit="datagrams",
)

UDP_BYTES_SENT = REGISTRY.counter(
    "repro_udp_bytes_sent_total",
    "Payload bytes shipped by UdpEmitter.",
    unit="bytes",
)

UDP_SEND_ERRORS = REGISTRY.counter(
    "repro_udp_send_errors_total",
    "Datagrams dropped because sendto failed (unreachable receiver, "
    "closed socket). The stream is lossy by design; this counts the "
    "losses the sender can see.",
    unit="datagrams",
)

UDP_DATAGRAMS_RECEIVED = REGISTRY.counter(
    "repro_udp_datagrams_received_total",
    "Datagrams drained off the socket by UdpReceiver.",
    unit="datagrams",
)

UDP_RECEIVE_BACKLOG = REGISTRY.gauge(
    "repro_udp_receive_backlog",
    "Lines sitting in the UdpReceiver queue, waiting for the consumer.",
    unit="lines",
)

# --------------------------------------------------------------------------
# repro.profiler.broadcast — the live trace broadcast hub
# --------------------------------------------------------------------------

BROADCAST_PUBLISHED = REGISTRY.counter(
    "repro_broadcast_published_total",
    "Entries published into the trace broadcast hub, by line kind "
    "(event, dot, end). Each profiler event is published exactly once "
    "regardless of how many subscribers fan out from it.",
    labels=("kind",),
    unit="entries",
)

BROADCAST_DELIVERED = REGISTRY.counter(
    "repro_broadcast_delivered_total",
    "Entries handed to subscribers by the hub (published entries times "
    "the subscribers that kept up).",
    unit="entries",
)

BROADCAST_DROPPED = REGISTRY.counter(
    "repro_broadcast_dropped_total",
    "Entries a subscriber lost, by reason: slow-subscriber (its bounded "
    "buffer overflowed, oldest entry evicted) or resume-gap (a "
    "subscribe from=<seq> asked for entries older than the hub "
    "retains).",
    labels=("reason",),
    unit="entries",
)

BROADCAST_SUBSCRIBERS_ACTIVE = REGISTRY.gauge(
    "repro_broadcast_subscribers_active",
    "Subscriptions currently attached to the trace broadcast hub.",
    unit="subscribers",
)

BROADCAST_SUBSCRIPTIONS = REGISTRY.counter(
    "repro_broadcast_subscriptions_total",
    "Subscribe attempts, by outcome: accepted (fresh subscription), "
    "resumed (carried a from=<seq> resume point), refused (the "
    "max-subscribers cap was hit).",
    labels=("outcome",),
    unit="subscriptions",
)

BROADCAST_SUBSCRIBER_LAG = REGISTRY.histogram(
    "repro_broadcast_subscriber_lag_events",
    "How far behind the hub's newest sequence number a subscriber was "
    "at each delivery batch, in entries. Zero means the subscriber "
    "keeps up; values near the buffer size mean drop-oldest is close.",
    unit="events",
    buckets=(1.0, 8.0, 32.0, 128.0, 512.0, 2_048.0, 8_192.0),
)

# --------------------------------------------------------------------------
# repro.faults — deterministic fault injection
# --------------------------------------------------------------------------

FAULT_INJECTIONS = REGISTRY.counter(
    "repro_fault_injections_total",
    "Fault decisions that fired, by injection site and action (e.g. "
    "udp.emit/drop, server.loop:reset, scheduler.worker:stall). Zero "
    "unless a FaultPlan is armed.",
    labels=("site", "action"),
    unit="faults",
)

# --------------------------------------------------------------------------
# repro.server.client — the hardened MClient
# --------------------------------------------------------------------------

CLIENT_RETRIES = REGISTRY.counter(
    "repro_client_retries_total",
    "Requests re-sent by MClient after a connection failure, an "
    "overload shed or a read-only-replica refusal, by op.",
    labels=("op",),
    unit="retries",
)

CLIENT_DEADLINE_EXCEEDED = REGISTRY.counter(
    "repro_client_deadline_exceeded_total",
    "Client requests abandoned because the per-request deadline passed "
    "(raised as RequestTimeoutError).",
    unit="requests",
)

# --------------------------------------------------------------------------
# repro.core.online / repro.core.mapping — the online monitor
# --------------------------------------------------------------------------

ONLINE_RUNS = REGISTRY.counter(
    "repro_online_runs_total",
    "Online monitoring sessions started.",
    unit="runs",
)

ONLINE_EVENTS = REGISTRY.counter(
    "repro_online_events_total",
    "Trace events consumed by the online monitor.",
    unit="events",
)

ONLINE_SAMPLED_OUT = REGISTRY.counter(
    "repro_online_sampled_out_total",
    "Colour actions dropped by backlog-triggered sampling (GREEN "
    "repaints shed while the render queue is saturated).",
    unit="actions",
)

ONLINE_DEGRADED = REGISTRY.counter(
    "repro_online_degraded_runs_total",
    "Online sessions that finished in degraded mode (lost END marker, "
    "sequence gaps, or damaged plan shipment) instead of hanging.",
    unit="runs",
)

ONLINE_SEQUENCE_GAPS = REGISTRY.counter(
    "repro_online_sequence_gaps_total",
    "Missing trace sequence numbers detected by the degraded-mode "
    "stream analysis (events lost between profiler and monitor).",
    unit="events",
)

ONLINE_INTERPOLATED = REGISTRY.counter(
    "repro_online_interpolated_events_total",
    "Synthetic start events interpolated for done events whose start "
    "half was lost, so pair coloring still sees both halves.",
    unit="events",
)

ONLINE_COMPLETENESS = REGISTRY.histogram(
    "repro_online_trace_completeness_percent",
    "Per-query trace completeness: distinct events received over "
    "events expected from the observed sequence range, as a "
    "percentage. 100 on clean runs.",
    unit="percent",
    buckets=(50.0, 75.0, 90.0, 95.0, 99.0, 100.0),
)

MAPPING_LOOKUPS = REGISTRY.counter(
    "repro_mapping_lookups_total",
    "Trace-event pc to dot-node mappings, by result (hit, miss). A miss "
    "means the trace and plan do not belong together.",
    labels=("result",),
    unit="lookups",
)

# --------------------------------------------------------------------------
# repro.viz.events — the render queue
# --------------------------------------------------------------------------

RENDER_TASKS_POSTED = REGISTRY.counter(
    "repro_render_tasks_posted_total",
    "Render tasks posted to the event-dispatch queue.",
    unit="tasks",
)

RENDER_TASKS_EXECUTED = REGISTRY.counter(
    "repro_render_tasks_executed_total",
    "Render tasks actually executed by the queue.",
    unit="tasks",
)

RENDER_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_render_queue_depth",
    "Render tasks waiting in the event-dispatch queue (the backlog the "
    "online sampler watches).",
    unit="tasks",
)

RENDER_QUEUE_WAIT_MS = REGISTRY.histogram(
    "repro_render_queue_wait_ms",
    "Queue latency per executed render task (execution minus posting, "
    "on the queue's clock).",
    unit="ms",
    buckets=(1.0, 10.0, 50.0, 150.0, 500.0, 1_500.0, 5_000.0),
)

# --------------------------------------------------------------------------
# repro.stats — the runtime statistics store feeding adaptive optimization
# --------------------------------------------------------------------------

STATS_OBSERVATIONS = REGISTRY.counter(
    "repro_stats_observations_total",
    "Profiler observations folded into the stats store, by kind: "
    "instruction (one per selection run, its selectivity) or query "
    "(whole-query latency per plan variant).",
    labels=("kind",),
    unit="observations",
)

STATS_ENTRIES = REGISTRY.gauge(
    "repro_stats_entries",
    "EWMA entries currently held by the stats store (selection "
    "signatures plus query variants).",
    unit="entries",
)

STATS_EVICTIONS = REGISTRY.counter(
    "repro_stats_evictions_total",
    "Stats-store entries dropped under LRU capacity pressure.",
    unit="entries",
)

STATS_SNAPSHOTS = REGISTRY.counter(
    "repro_stats_snapshot_total",
    "Stats-store snapshot operations, by op (save, load).",
    labels=("op",),
    unit="snapshots",
)

# --------------------------------------------------------------------------
# adaptive optimization — reordering, index management, deadline planning
# --------------------------------------------------------------------------

ADAPTIVE_REORDERS = REGISTRY.counter(
    "repro_adaptive_reorders_total",
    "Select chains considered by the adaptive_order pass, by outcome: "
    "reordered (links permuted most-selective-first), kept (observed "
    "order already optimal), or unknown (no stats for any link).",
    labels=("outcome",),
    unit="chains",
)

ADAPTIVE_INDEX_BUILDS = REGISTRY.counter(
    "repro_adaptive_index_builds_total",
    "Order indexes built by the adaptive policy, by trigger: eager "
    "(access mix favors the index before the size threshold) or "
    "threshold (second range select on a BAT of at least min-rows).",
    labels=("trigger",),
    unit="indexes",
)

ADAPTIVE_INDEX_DROPS = REGISTRY.counter(
    "repro_adaptive_index_drops_total",
    "Order indexes dropped because their hit-rate fell below the "
    "policy floor over a decision window.",
    unit="indexes",
)

ADAPTIVE_DEADLINE_REROUTES = REGISTRY.counter(
    "repro_adaptive_deadline_reroutes_total",
    "Deadline-carrying queries compiled against a cheaper plan variant "
    "because the default pipeline's predicted latency exceeded the "
    "deadline.",
    unit="queries",
)
