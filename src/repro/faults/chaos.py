"""The chaos sweep behind ``python -m repro chaos``.

Runs seeds x fault mixes against a live in-process Mserver and checks
the invariants the fault harness promises:

* **no hangs** — every case finishes inside its wall-clock cap (the
  degraded online monitor and the receiver's ``max_seconds`` cap make
  a lost END marker survivable);
* **typed errors only** — every client call either succeeds (after
  retries) or raises a :class:`~repro.errors.ReproError` subclass;
* **loss accounting** — for UDP-only mixes, the monitor's distinct
  event count equals exactly what the armed emitter put on the wire
  (sent events minus duplicate and truncate fires);
* **replayability** — re-running a case with the same seed and mix
  produces the identical fault journal (same decisions, same order).

Keep ``scale`` small: the sweep runs dozens of full query executions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.faults.plan import FaultPlan, armed

#: The named fault mixes the acceptance sweep runs (spec-string form).
#: A stall sleeps for real, ``value`` microseconds, inside the executor's
#: step (and is modelled on the virtual clock as well): 40000 is 0.04s.
MIXES: Dict[str, str] = {
    "drop10": "udp.emit:drop@0.10",
    "reorder": "udp.emit:reorder@0.25",
    "dup": "udp.emit:dup@0.20",
    "reset": "server.loop:reset@0.08#2;server.loop:latency=10@0.25",
    "worker-stall": ("scheduler.worker:stall=400@0.20;"
                     "scheduler.worker:crash@0.03#1"),
    "overload": "scheduler.worker:stall=40000@0.7#16",
    "slow-query": "scheduler.worker:stall=120000@0.8#12",
    # persist.recover:corrupt-record is deliberately absent: it models
    # media corruption of already-acknowledged records, which breaks the
    # acked-prefix byte-identity invariant this mix asserts.  It gets
    # its own prefix-shaped test in tests/test_durability.py.
    "durability-chaos": ("persist.wal:torn-write@0.06#1;"
                         "persist.wal:fsync-loss@0.06#1;"
                         "persist.wal:latency=1@0.2;"
                         "persist.checkpoint:partial-manifest@0.3#1;"
                         "persist.checkpoint:crash-before-rename@0.3#1"),
    "replication-chaos": ("repl.stream:drop@0.10;"
                          "repl.stream:latency=5@0.20;"
                          "repl.stream:partition=150@0.05#1;"
                          "repl.promote:crash@0.5#1"),
}

#: Mixes whose faults touch only the UDP stream; for these the exact
#: sent-vs-received accounting invariant holds (resets re-run queries
#: and crashes truncate them, which makes counting ambiguous).
UDP_ONLY_MIXES = ("drop10", "reorder", "dup")

#: Mixes whose fault journals are legitimately nondeterministic:
#: ``overload`` runs concurrent clients racing for the plan's RNG,
#: ``slow-query`` truncates execution at a wall-clock deadline, and
#: ``replication-chaos`` has a background puller thread whose sync
#: cadence (how many pulls land before the kill) is wall-clock-paced —
#: so the replay-journal determinism check does not apply to them.
REPLAY_EXEMPT = ("overload", "slow-query", "replication-chaos")


@dataclass
class CaseResult:
    """One (seed, mix) chaos case and how it went."""

    seed: int
    mix: str
    ok: bool
    wall_s: float
    outcome: str                  # "rows" | "typed-error"
    error: str = ""               # repr of the typed error, if any
    completeness: float = 1.0
    ended: bool = True
    fault_fires: int = 0
    journal: List[Tuple[str, str, str]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)


@dataclass
class ChaosReport:
    """Everything one sweep produced."""

    cases: List[CaseResult] = field(default_factory=list)
    replay_checked: int = 0
    replay_mismatches: int = 0

    @property
    def ok(self) -> bool:
        return (all(case.ok for case in self.cases)
                and self.replay_mismatches == 0)

    def render(self) -> str:
        """Human-readable pass/fail report."""
        lines = ["chaos sweep: "
                 f"{len(self.cases)} cases "
                 f"({len({c.seed for c in self.cases})} seeds x "
                 f"{len({c.mix for c in self.cases})} mixes)"]
        by_mix: Dict[str, List[CaseResult]] = {}
        for case in self.cases:
            by_mix.setdefault(case.mix, []).append(case)
        for mix in sorted(by_mix):
            batch = by_mix[mix]
            passed = sum(1 for c in batch if c.ok)
            fires = sum(c.fault_fires for c in batch)
            completeness = min(c.completeness for c in batch)
            typed = sum(1 for c in batch if c.outcome == "typed-error")
            lines.append(
                f"  {mix:<14} {passed}/{len(batch)} ok, "
                f"{fires} faults fired, {typed} typed errors, "
                f"min completeness {completeness * 100:.1f}%")
        for case in self.cases:
            if not case.ok:
                lines.append(f"  FAIL seed={case.seed} mix={case.mix}: "
                             + "; ".join(case.violations))
                lines.append(f"       replay with: python -m repro chaos "
                             f"--seed {case.seed} --mix {case.mix}")
        if self.replay_checked:
            verdict = ("identical" if self.replay_mismatches == 0
                       else f"{self.replay_mismatches} MISMATCHED")
            lines.append(f"  replay check: {self.replay_checked} cases "
                         f"re-run, journals {verdict}")
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def run_case(server, seed: int, mix: str, spec: Optional[str] = None,
             workdir: str = ".", wall_cap_s: float = 20.0) -> CaseResult:
    """Run one chaos case against a started ``Mserver``.

    Arms a fresh plan from ``spec`` (default: ``MIXES[mix]``), monitors
    one profiled SELECT through the degraded-capable online run,
    and checks the per-case invariants.  Always disarms on exit.
    """
    from repro.core.online import analyze_stream, run_online
    from repro.core.textual import TextualStethoscope
    from repro.metrics.families import UDP_DATAGRAMS_SENT
    from repro.server.client import MClient

    spec = MIXES[mix] if spec is None else spec
    if mix == "overload":
        return _run_overload_case(server, seed, spec, wall_cap_s)
    if mix == "slow-query":
        return _run_slow_query_case(server, seed, spec, wall_cap_s)
    if mix == "durability-chaos":
        return _run_durability_case(seed, spec, wall_cap_s)
    if mix == "replication-chaos":
        return _run_replication_case(seed, spec, wall_cap_s)
    plan = FaultPlan.from_spec(spec, seed=seed)
    sql = "select count(*) from lineitem where l_quantity > 10"
    sent_events = UDP_DATAGRAMS_SENT.labels(kind="event")
    began = time.monotonic()
    violations: List[str] = []
    outcome, error = "rows", ""
    with armed(plan), TextualStethoscope() as textual:
        connection = textual.connect(f"chaos-{mix}-{seed}")
        sent_before = sent_events.value()

        def run_query():
            client = MClient(port=server.port, timeout=5.0, retries=3,
                             backoff_base_s=0.01, backoff_max_s=0.1,
                             deadline_s=10.0, retry_seed=seed)
            try:
                client.set_profiler(port=connection.port)
                return client.query(sql).rows
            finally:
                client.close()

        run = run_online(connection, _Typed(run_query), workdir,
                         timeout_s=wall_cap_s, settle_s=0.3)
        outcome, payload = run.query_result
        if outcome == "typed-error":
            error = repr(payload)
        elif outcome != "rows":
            violations.append(f"untyped failure: {payload!r}")
        # let in-flight datagrams (e.g. a reordered tail) land before
        # auditing the stream, recounting from the full connection on
        # each pass: a case with exact accounting stops waiting once it
        # balances, any other waits out the 250 ms cap
        audited = mix in UDP_ONLY_MIXES and outcome == "rows"
        settle_by = time.monotonic() + 0.25
        while True:
            _clean, health = analyze_stream(connection.events)
            mismatch = _accounting(plan, int(sent_events.value()
                                             - sent_before),
                                   health.distinct)
            if (audited and mismatch is None) or \
                    time.monotonic() >= settle_by:
                break
            connection.drain(timeout=0.05)
    wall_s = time.monotonic() - began
    if wall_s >= wall_cap_s:
        violations.append(f"case ran {wall_s:.1f}s >= cap {wall_cap_s}s")
    if audited and mismatch is not None:
        violations.append(mismatch)
    return CaseResult(
        seed=seed, mix=mix, ok=not violations, wall_s=wall_s,
        outcome=outcome, error=error,
        completeness=health.completeness, ended=health.ended,
        fault_fires=len(plan.journal), journal=list(plan.journal),
        violations=violations,
    )


def _accounting(plan: FaultPlan, sent: int, distinct: int) -> Optional[str]:
    """What went on the wire must be what we saw: the mismatch, or None.
    The journal's detail field records the line kind, so fires on
    dot/end lines do not pollute the event arithmetic."""
    dup = sum(1 for site, action, detail in plan.journal
              if action == "dup" and detail == "event")
    truncated = sum(1 for site, action, detail in plan.journal
                    if action == "truncate" and detail == "event")
    expected = sent - dup - truncated
    if distinct == expected:
        return None
    return (f"accounting: {distinct} distinct events vs {expected} "
            f"expected ({sent} sent - {dup} dup - {truncated} truncated)")


class _Typed:
    """Wraps run_query so typed errors become data, not crashes."""

    def __init__(self, fn) -> None:
        self._fn = fn

    def __call__(self):
        try:
            return ("rows", self._fn())
        except ReproError as exc:
            return ("typed-error", exc)


def _check_responsive(server, violations: List[str]) -> None:
    """After the storm: the server must still answer a trivial call."""
    from repro.server.client import MClient

    try:
        client = MClient(port=server.port, timeout=5.0, retries=1,
                         deadline_s=5.0, retry_seed=0)
        try:
            if not client.ping():
                violations.append("server unresponsive after case")
        finally:
            client.close()
    except ReproError as exc:
        violations.append(f"server unresponsive after case: {exc!r}")


def _run_overload_case(server, seed: int, spec: str,
                       wall_cap_s: float) -> CaseResult:
    """The ``overload`` mix: more clients than the server will admit.

    Squeezes admission down to one slot and a one-deep queue, then
    fires four concurrent clients at slow (stalled) queries.  The
    invariants: every client ends with rows or a typed error (the
    overload-aware retry means some sheds recover), at least one query
    succeeds, the shed counter advanced, and the server answers a
    trivial call afterwards.
    """
    from repro.metrics.families import SERVER_QUERIES_SHED
    from repro.server.client import MClient

    plan = FaultPlan.from_spec(spec, seed=seed)
    sql = "select count(*) from lineitem where l_quantity > 10"
    shed_counters = [SERVER_QUERIES_SHED.labels(reason=r)
                     for r in ("queue-full", "queue-wait", "stopping")]
    shed_before = sum(c.value() for c in shed_counters)
    clients = 4
    outcomes: List[Optional[Tuple[str, object]]] = [None] * clients
    barrier = threading.Barrier(clients)
    violations: List[str] = []

    def attack(i: int) -> None:
        try:
            client = MClient(port=server.port, timeout=5.0, retries=2,
                             backoff_base_s=0.05, backoff_max_s=0.2,
                             deadline_s=wall_cap_s / 2,
                             retry_seed=seed * 10 + i)
            try:
                barrier.wait(timeout=5.0)
                outcomes[i] = ("rows", client.query(sql).rows)
            finally:
                client.close()
        except ReproError as exc:
            outcomes[i] = ("typed-error", exc)
        except Exception as exc:  # untyped → invariant violation
            outcomes[i] = ("untyped", exc)

    began = time.monotonic()
    admission = server.admission
    restore = dict(max_concurrent=admission.max_concurrent,
                   max_queue=admission.max_queue,
                   queue_wait_s=admission.queue_wait_s)
    admission.configure(max_concurrent=1, max_queue=1, queue_wait_s=0.25)
    try:
        with armed(plan):
            threads = [threading.Thread(target=attack, args=(i,))
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=wall_cap_s)
                if thread.is_alive():
                    violations.append("client thread hung past the cap")
    finally:
        admission.configure(**restore)
    wall_s = time.monotonic() - began
    if wall_s >= wall_cap_s:
        violations.append(f"case ran {wall_s:.1f}s >= cap {wall_cap_s}s")
    successes = sum(1 for o in outcomes if o and o[0] == "rows")
    for i, o in enumerate(outcomes):
        if o is None:
            violations.append(f"client {i} produced no outcome")
        elif o[0] == "untyped":
            violations.append(f"client {i} untyped failure: {o[1]!r}")
    if successes == 0:
        violations.append("no client succeeded under overload")
    shed_delta = sum(c.value() for c in shed_counters) - shed_before
    if shed_delta < 1:
        violations.append("admission never shed despite 4x overload")
    _check_responsive(server, violations)
    first_error = next((repr(o[1]) for o in outcomes
                        if o and o[0] != "rows"), "")
    return CaseResult(
        seed=seed, mix="overload", ok=not violations, wall_s=wall_s,
        outcome="rows" if successes else "typed-error", error=first_error,
        fault_fires=len(plan.journal), journal=list(plan.journal),
        violations=violations,
    )


def _run_slow_query_case(server, seed: int, spec: str,
                         wall_cap_s: float) -> CaseResult:
    """The ``slow-query`` mix: a stalled plan against a tight deadline.

    Heavy worker stalls push one query far past its 0.25s
    server-side deadline; the lifecycle check at an instruction
    boundary must cancel it with a typed :class:`~repro.errors.QueryDeadlineError`
    carrying the query id, the deadline counter must advance, and the
    server must stay responsive.
    """
    from repro.errors import QueryDeadlineError
    from repro.metrics.families import SERVER_QUERY_DEADLINE_EXCEEDED
    from repro.server.client import MClient

    plan = FaultPlan.from_spec(spec, seed=seed)
    sql = "select count(*) from lineitem where l_quantity > 10"
    exceeded_before = SERVER_QUERY_DEADLINE_EXCEEDED.value()
    violations: List[str] = []
    outcome, error = "rows", ""
    began = time.monotonic()
    with armed(plan):
        try:
            client = MClient(port=server.port, timeout=5.0, retries=0,
                             deadline_s=wall_cap_s / 2, retry_seed=seed)
            try:
                client.query(sql, server_deadline_s=0.25)
                violations.append(
                    "stalled query finished before its 0.25s deadline")
            finally:
                client.close()
        except QueryDeadlineError as exc:
            outcome, error = "typed-error", repr(exc)
            if not exc.query_id:
                violations.append("deadline error carried no query_id")
        except ReproError as exc:
            outcome, error = "typed-error", repr(exc)
            violations.append(f"expected QueryDeadlineError, got {exc!r}")
    wall_s = time.monotonic() - began
    if wall_s >= wall_cap_s:
        violations.append(f"case ran {wall_s:.1f}s >= cap {wall_cap_s}s")
    if SERVER_QUERY_DEADLINE_EXCEEDED.value() <= exceeded_before:
        violations.append("deadline-exceeded counter did not advance")
    _check_responsive(server, violations)
    return CaseResult(
        seed=seed, mix="slow-query", ok=not violations, wall_s=wall_s,
        outcome=outcome, error=error,
        fault_fires=len(plan.journal), journal=list(plan.journal),
        violations=violations,
    )


def _run_durability_case(seed: int, spec: str,
                         wall_cap_s: float) -> CaseResult:
    """The ``durability-chaos`` mix: crash-loop a durable server.

    Opens a private WAL-backed database in a scratch directory and runs
    a seeded DDL+INSERT workload against it through a real Mserver,
    crash-looping the process state three times (SIGKILL-shaped
    truncation to the durable watermark, a crash that keeps a torn
    tail, or a clean close — the seed picks).  A shadow plain catalog
    applies exactly the statements the client saw acknowledged.  The
    invariants: every statement either succeeds or raises a typed
    error; after every recovery the catalog is **byte-identical** to
    the shadow (no acked row lost, no unacked row half-applied); and a
    recovery after a torn-write fault reports the torn tail it dropped.
    """
    import random
    import shutil
    import tempfile

    from repro.server.client import MClient
    from repro.server.database import Database
    from repro.server.mserver import Mserver
    from repro.storage.durable import catalog_canonical_bytes

    plan = FaultPlan.from_spec(spec, seed=seed)
    rng = random.Random(seed * 7919 + 11)
    violations: List[str] = []
    outcome, error = "rows", ""
    sent = acked = 0
    cycles = 3
    wal_dir = tempfile.mkdtemp(prefix=f"chaos-durable-{seed}-")
    shadow = Database()
    began = time.monotonic()
    try:
        with armed(plan):
            for cycle in range(cycles):
                database = Database(wal_dir=wal_dir, commit_window_ms=0.0,
                                    checkpoint_interval=4)
                if cycle and database.recovery is not None:
                    recovered = catalog_canonical_bytes(database.catalog)
                    expected = catalog_canonical_bytes(shadow.catalog)
                    if recovered != expected:
                        violations.append(
                            f"cycle {cycle}: recovered catalog diverges "
                            f"from the acknowledged prefix "
                            f"({database.recovery.describe()})")
                statements = [
                    f"create table chaos_d{cycle} "
                    f"(id integer, tag varchar(16), score double)"
                ]
                for _ in range(7):
                    table = rng.randrange(cycle + 1)
                    statements.append(
                        f"insert into chaos_d{table} values "
                        f"({rng.randrange(1000)}, "
                        f"'t{rng.randrange(100)}', "
                        f"{rng.randrange(1000) / 8.0})")
                with Mserver(database) as server:
                    client = MClient(port=server.port, timeout=5.0,
                                     retries=0, deadline_s=wall_cap_s / 2,
                                     retry_seed=seed)
                    try:
                        for sql in statements:
                            sent += 1
                            try:
                                client.query(sql)
                            except ReproError as exc:
                                if not error:
                                    outcome = "typed-error"
                                    error = repr(exc)
                            except Exception as exc:
                                violations.append(
                                    f"untyped failure from {sql!r}: "
                                    f"{exc!r}")
                            else:
                                acked += 1
                                shadow.execute(sql)
                    finally:
                        client.close()
                    # crash while the server still owns the database:
                    # Mserver.stop() closes it cleanly, so the abrupt
                    # truncation has to land first.  "kill" keeps only
                    # the durable prefix, "kill-torn" also keeps any
                    # torn half-record past it, "clean" trusts close().
                    style = rng.choice(("kill", "kill-torn", "clean"))
                    if style == "kill":
                        database.durability.simulate_crash()
                    elif style == "kill-torn":
                        database.durability.simulate_crash(
                            database.durability.wal.written_bytes)
            # final recovery with faults still armed (the spec has no
            # persist.recover rules, so recovery itself is clean)
            database = Database(wal_dir=wal_dir)
            try:
                recovered = catalog_canonical_bytes(database.catalog)
                expected = catalog_canonical_bytes(shadow.catalog)
                if recovered != expected:
                    violations.append(
                        "final recovered catalog diverges from the "
                        "acknowledged prefix "
                        f"({database.recovery.describe()})")
            finally:
                database.close()
    finally:
        shadow.close()
        shutil.rmtree(wal_dir, ignore_errors=True)
    wall_s = time.monotonic() - began
    if wall_s >= wall_cap_s:
        violations.append(f"case ran {wall_s:.1f}s >= cap {wall_cap_s}s")
    if acked == 0:
        violations.append("no statement was ever acknowledged")
    return CaseResult(
        seed=seed, mix="durability-chaos", ok=not violations, wall_s=wall_s,
        outcome=outcome, error=error,
        completeness=acked / sent if sent else 0.0,
        fault_fires=len(plan.journal), journal=list(plan.journal),
        violations=violations,
    )


def _run_replication_case(seed: int, spec: str,
                          wall_cap_s: float) -> CaseResult:
    """The ``replication-chaos`` mix: kill the primary mid-write-load.

    Builds a private two-node topology (primary + replica, each a real
    Mserver over its own WAL directory), streams a seeded write load
    through the primary while the replica pulls under armed
    ``repl.stream`` faults (drops, latency, a partition window), then
    SIGKILL-shapes the primary mid-load (durable-watermark truncation,
    exactly like the durability mix) and promotes the replica — with
    ``repl.promote:crash`` able to fire on the first attempt.

    Invariants: the promoted replica's catalog is **byte-identical**
    (``catalog_canonical_bytes``) to a *clean acked prefix* of the
    statements the primary acknowledged — never a torn or interleaved
    state; the promoted node serves reads and accepts writes; and the
    resurrected old primary is fenced on epoch — its stale stream is
    rejected by followers and it demotes itself on first contact with
    the new epoch, so no seed ever has two writable nodes.
    """
    import random
    import shutil
    import tempfile

    from repro.errors import ReadOnlyReplicaError, ReplicationFencedError
    from repro.replication import ReplicationManager
    from repro.server.client import MClient
    from repro.server.database import Database
    from repro.server.mserver import Mserver
    from repro.storage.durable import catalog_canonical_bytes

    plan = FaultPlan.from_spec(spec, seed=seed)
    rng = random.Random(seed * 6521 + 5)
    violations: List[str] = []
    outcome, error = "rows", ""
    acked: List[str] = []
    primary_dir = tempfile.mkdtemp(prefix=f"chaos-repl-p-{seed}-")
    replica_dir = tempfile.mkdtemp(prefix=f"chaos-repl-r-{seed}-")
    began = time.monotonic()
    primary_server = replica_server = revived_server = None
    try:
        with armed(plan):
            primary_db = Database(wal_dir=primary_dir,
                                  commit_window_ms=0.0,
                                  checkpoint_interval=4)
            primary_server = Mserver(primary_db).start()
            primary_addr = f"127.0.0.1:{primary_server.port}"
            primary_mgr = ReplicationManager(primary_server,
                                             addr=primary_addr)
            primary_server.replication = primary_mgr.start()

            client = MClient(port=primary_server.port, timeout=5.0,
                             retries=0, deadline_s=wall_cap_s / 2,
                             retry_seed=seed)
            try:
                statements = [
                    "create table chaos_r (id integer, tag varchar(16),"
                    " score double)"
                ]
                for _ in range(5):
                    statements.append(
                        f"insert into chaos_r values "
                        f"({rng.randrange(1000)}, 't{rng.randrange(100)}',"
                        f" {rng.randrange(1000) / 8.0})")
                for sql in statements:
                    client.query(sql)
                    acked.append(sql)

                # the replica joins after the primary has checkpointed,
                # so most seeds exercise the bootstrap path too
                replica_db = Database(wal_dir=replica_dir,
                                      commit_window_ms=0.0)
                replica_server = Mserver(replica_db).start()
                replica_addr = f"127.0.0.1:{replica_server.port}"
                replica_mgr = ReplicationManager(
                    replica_server, addr=replica_addr,
                    primary=primary_addr,
                    peers=(primary_addr, replica_addr),
                    poll_interval_s=0.01, auto_failover=False)
                replica_server.replication = replica_mgr.start()

                # keep writing while the replica replicates under fire
                for _ in range(10):
                    sql = (f"insert into chaos_r values "
                           f"({rng.randrange(1000)}, "
                           f"'t{rng.randrange(100)}', "
                           f"{rng.randrange(1000) / 8.0})")
                    client.query(sql)
                    acked.append(sql)
                    time.sleep(0.002)

                # mid-write-load the case demands: give the puller a
                # bounded moment to have applied *something*, then kill
                # — deliberately NOT waiting for it to catch up fully
                settle = time.monotonic() + min(2.0, wall_cap_s / 4)
                while time.monotonic() < settle and \
                        replica_db.durability.wal.durable_lsn == 0:
                    time.sleep(0.01)
            finally:
                client.close()

            old_epoch = primary_db.durability.epoch
            # SIGKILL-shaped death: truncate to the durable watermark
            # while the server still owns the database, then tear down
            primary_db.durability.simulate_crash()
            primary_server.stop()
            primary_server = None

            # promote the replica; repl.promote:crash may fire once
            promoted = None
            for _attempt in range(3):
                try:
                    with MClient(port=replica_server.port, timeout=5.0,
                                 retries=0, retry_seed=seed) as pclient:
                        promoted = pclient.promote(
                            deadline_s=wall_cap_s / 2)
                    break
                except ReproError as exc:
                    outcome, error = "typed-error", repr(exc)
            if promoted is None or not promoted.get("promoted"):
                violations.append(
                    f"replica never promoted: {error or promoted!r}")
            elif int(promoted.get("epoch", 0)) <= old_epoch:
                violations.append(
                    f"promotion did not bump the epoch "
                    f"({promoted.get('epoch')} <= {old_epoch})")

            # the promoted node's state must be byte-identical to a
            # clean prefix of what the primary acknowledged
            shadow = Database()
            try:
                prefixes = [catalog_canonical_bytes(shadow.catalog)]
                for sql in acked:
                    shadow.execute(sql)
                    prefixes.append(
                        catalog_canonical_bytes(shadow.catalog))
                state = catalog_canonical_bytes(replica_db.catalog)
                if state not in prefixes:
                    violations.append(
                        "promoted replica state is not a clean acked "
                        "prefix")
                elif prefixes.index(state) == 0 and len(acked) > 5:
                    violations.append(
                        "promoted replica replicated nothing despite a "
                        "settled puller")
            finally:
                shadow.close()

            # the promoted node serves reads and accepts writes
            try:
                with MClient(port=replica_server.port, timeout=5.0,
                             retries=0, retry_seed=seed) as rclient:
                    rclient.query("select count(*) from chaos_r")
                    rclient.query("insert into chaos_r values "
                                  "(1, 'post', 1.0)")
            except ReproError as exc:
                violations.append(
                    f"promoted replica not serving: {exc!r}")

            # fencing: resurrect the old primary from its directory —
            # still believing it is the primary at the old epoch
            revived_db = Database(wal_dir=primary_dir,
                                  commit_window_ms=0.0)
            revived_server = Mserver(revived_db).start()
            # the fencing probes call handle_sync directly — arm an
            # empty plan so injected stream faults don't fire on the
            # assertion itself (they already had their shot above)
            with armed(FaultPlan(seed=seed)):
                revived_mgr = ReplicationManager(
                    revived_server,
                    addr=f"127.0.0.1:{revived_server.port}")
                revived_server.replication = revived_mgr.start()
                new_epoch = replica_db.durability.epoch
                # (a) a follower rejects the deposed primary's stream
                stale = revived_mgr.handle_sync(
                    {"from_lsn": 0, "epoch": 0, "follower": "probe"})
                try:
                    replica_mgr._check_epoch(stale)
                    violations.append(
                        "follower accepted a stale-epoch stream")
                except ReplicationFencedError:
                    pass
                # (b) first contact with the new epoch deposes it
                try:
                    revived_mgr.handle_sync(
                        {"from_lsn": 0, "epoch": new_epoch,
                         "follower": replica_addr})
                    violations.append(
                        "deposed primary served a higher-epoch peer")
                except ReplicationFencedError:
                    pass
                if revived_mgr.accepts_writes():
                    violations.append(
                        "deposed primary still accepts writes "
                        "(split-brain)")
                else:
                    try:
                        with MClient(port=revived_server.port,
                                     timeout=5.0, retries=0,
                                     retry_seed=seed) as wclient:
                            wclient.query("insert into chaos_r values "
                                          "(2, 'ghost', 2.0)")
                        violations.append(
                            "deposed primary accepted a ghost write")
                    except ReadOnlyReplicaError:
                        pass
            revived_server.stop()
            revived_server = None

            replica_server.stop()
            replica_server = None
    except ReproError as exc:
        outcome, error = "typed-error", repr(exc)
        violations.append(f"typed error escaped the harness: {exc!r}")
    finally:
        for server in (primary_server, replica_server, revived_server):
            if server is not None:
                try:
                    server.stop()
                except Exception:
                    pass
        shutil.rmtree(primary_dir, ignore_errors=True)
        shutil.rmtree(replica_dir, ignore_errors=True)
    wall_s = time.monotonic() - began
    if wall_s >= wall_cap_s:
        violations.append(f"case ran {wall_s:.1f}s >= cap {wall_cap_s}s")
    if not acked:
        violations.append("no statement was ever acknowledged")
    return CaseResult(
        seed=seed, mix="replication-chaos", ok=not violations,
        wall_s=wall_s, outcome=outcome, error=error,
        fault_fires=len(plan.journal), journal=list(plan.journal),
        violations=violations,
    )


def run_sweep(seeds: Sequence[int], mixes: Optional[Sequence[str]] = None,
              scale: float = 0.01, workdir: str = ".",
              wall_cap_s: float = 20.0, replay_sample: int = 2,
              log=None) -> ChaosReport:
    """Run the full sweep on a private in-process server.

    ``seeds`` x ``mixes`` cases, plus a replay pass re-running up to
    ``replay_sample`` cases per mix and comparing fault journals.
    """
    from repro.server.database import Database
    from repro.server.mserver import Mserver
    from repro.tpch import populate

    mixes = list(MIXES) if mixes is None else list(mixes)
    for mix in mixes:
        if mix not in MIXES:
            raise ReproError(f"unknown chaos mix {mix!r}; known: "
                             + ", ".join(MIXES))
    database = Database(workers=2, mitosis_threshold=50)
    populate(database.catalog, scale_factor=scale, seed=3)
    report = ChaosReport()
    with Mserver(database) as server:
        for mix in mixes:
            for seed in seeds:
                case = run_case(server, seed, mix, workdir=workdir,
                                wall_cap_s=wall_cap_s)
                report.cases.append(case)
                if log is not None:
                    log(f"seed={seed} mix={mix}: "
                        + ("ok" if case.ok else "FAIL")
                        + f" ({case.outcome}, "
                        f"{case.completeness * 100:.0f}% complete, "
                        f"{case.fault_fires} faults)")
            # determinism: re-run a sample and compare journals
            # (skipped for mixes whose journals are racy by design)
            if mix in REPLAY_EXEMPT:
                continue
            for case in [c for c in report.cases
                         if c.mix == mix][:replay_sample]:
                again = run_case(server, case.seed, mix, workdir=workdir,
                                 wall_cap_s=wall_cap_s)
                report.replay_checked += 1
                if again.journal != case.journal:
                    report.replay_mismatches += 1
                    case.violations.append("replay journal mismatch")
                    case.ok = False
    return report
