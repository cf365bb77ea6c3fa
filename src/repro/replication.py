"""WAL-shipping replication: read replicas and epoch-fenced failover.

PR 8 gave the engine a CRC-checked, strictly-LSN-ordered write-ahead
log with columnar checkpoints; this module ships that log to followers
so the system survives losing the primary.  The design is pull-based
and rides the existing line protocol:

* each **replica** runs a puller thread that repeatedly asks its
  primary ``repl.sync`` for committed records past its own durable LSN
  and hands them to :meth:`~repro.storage.durable.DurableEngine.log_shipped`,
  which checks each, appends it to the replica's *own* WAL at the
  primary-assigned LSN, then applies it — so a replica's directory
  recovers exactly like a primary's;
* a **new or lagging** follower (its position predates the primary's
  newest checkpoint, or its history diverged) gets a **checkpoint
  bootstrap** instead: the primary's on-disk checkpoint files are
  shipped chunk by chunk, landed by
  :func:`~repro.storage.durable.land_directory`, validated by
  :func:`~repro.storage.durable.load_checkpoint`, and installed;
* **writes on a replica** are rejected before execution with a typed
  :class:`~repro.errors.ReadOnlyReplicaError` carrying the current
  primary's address; reads and trace subscriptions are served locally.

Safety comes from **epoch fencing**: every replication message carries
the sender's epoch — a monotonic counter persisted in the WAL
directory (:func:`~repro.storage.durable.write_epoch`).  A follower
rejects a sync response whose epoch is lower than its own (a deposed
primary's stream), and a primary that sees a *higher* epoch in a
request knows it was deposed and demotes itself — no split-brain ghost
writes.  **Promotion** (the ``repl.promote`` verb, or automatic on
primary loss: heartbeat timeout, then a deterministic highest-LSN
election among the configured peers, lowest address breaking ties)
truncates the replica's unacked divergent tail exactly as crash
recovery does, bumps the epoch, and flips the role.

Fault sites: ``repl.stream`` (``drop``, ``latency``, ``partition``) on
the primary's sync handler and ``repl.promote`` (``crash``) inside
promotion; the ``replication-chaos`` mix drives them plus
SIGKILL-shaped primary death.  See ``docs/operations.md`` §11 for the
operational runbook.
"""

from __future__ import annotations

import base64
import json
import os
import re
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    ReplicationError,
    ReplicationFencedError,
    ReproError,
)
from repro.faults.plan import ACTIVE
from repro.metrics.families import (
    REPL_EPOCH,
    REPL_FAILOVERS,
    REPL_FENCED,
    REPL_LAG_BYTES,
    REPL_LAG_RECORDS,
    REPL_LAG_SECONDS,
    REPL_RECORDS_APPLIED,
    REPL_ROLE,
)
from repro.server.client import MClient, probe_status, split_addr
from repro.storage.durable import (
    MANIFEST_FILENAME,
    WAL_FILENAME,
    land_directory,
    load_checkpoint,
    read_wal_records,
    recover,
)

__all__ = ["ReplicationManager", "split_addr"]

#: Bootstrap file names the primary will serve (column files and the
#: manifest only — never a path component).
_SAFE_FILE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")


class ReplicationManager:
    """One node's replication state machine, attached to its Mserver.

    Args:
        server: the node's :class:`~repro.server.mserver.Mserver` (its
            database must be durable — replication ships the WAL).
        addr: this node's advertised ``host:port``.
        primary: the primary's address to replicate from; ``None``
            starts this node as the primary.
        peers: every node address in the topology (the election set for
            automatic failover; this node's own address is filtered).
        poll_interval_s: how long an idle replica waits between sync
            pulls (a non-empty batch pulls again immediately).
        heartbeat_timeout_s: seconds without a successful sync before a
            replica starts an election (when ``auto_failover``).
        auto_failover: elect-and-promote automatically on primary loss;
            requires a non-empty ``peers`` set.
        batch_limit_bytes: cap on shipped payload per sync response
            (also the bootstrap chunk size) — keeps every response
            comfortably under the protocol's line limit.
    """

    def __init__(self, server: Any, addr: str,
                 primary: Optional[str] = None,
                 peers: Tuple[str, ...] = (),
                 poll_interval_s: float = 0.05,
                 heartbeat_timeout_s: float = 2.0,
                 auto_failover: bool = True,
                 batch_limit_bytes: int = 256 * 1024) -> None:
        database = server.database
        if database.durability is None:
            raise ReplicationError(
                "replication requires a durable database (wal_dir)")
        self.server = server
        self.database = database
        self.addr = addr
        self.peers: List[str] = [p for p in peers if p and p != addr]
        for peer in self.peers + ([primary] if primary else []):
            split_addr(peer)  # refused here, not at the first pull
        self.role = "replica" if primary else "primary"
        self.primary = primary or addr
        self.poll_interval_s = poll_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.auto_failover = auto_failover
        self.batch_limit_bytes = batch_limit_bytes
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._puller: Optional[threading.Thread] = None
        self._need_resync = False
        self._partition_until = 0.0
        self._last_contact = time.monotonic()
        self._lag_records = 0
        self._lag_bytes = 0
        self.records_applied = 0
        self.bootstraps = 0
        self.fenced = 0
        self.failovers = 0
        engine = database.durability
        REPL_ROLE.labels(node=addr).set(
            1.0 if self.role == "primary" else 0.0)
        REPL_EPOCH.labels(node=addr).set(float(engine.epoch))

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ReplicationManager":
        """Begin pulling (replicas); primaries serve passively."""
        if self.role == "replica":
            self._ensure_puller()
        return self

    def stop(self) -> None:
        """Stop the puller thread; idempotent."""
        self._stop_puller()

    def _ensure_puller(self) -> None:
        with self._lock:
            if self._puller is not None and self._puller.is_alive():
                return
            self._stop.clear()
            self._puller = threading.Thread(
                target=self._pull_loop, name=f"repl-pull-{self.addr}",
                daemon=True)
            self._puller.start()

    def _stop_puller(self) -> None:
        self._stop.set()
        puller = self._puller
        if puller is not None and puller is not threading.current_thread():
            puller.join(timeout=5.0)
        self._puller = None

    # -- introspection ---------------------------------------------------

    def accepts_writes(self) -> bool:
        """True while this node is the primary."""
        return self.role == "primary"

    def primary_hint(self) -> str:
        """Best-known primary address for error payloads ('' if us or
        unknown)."""
        with self._lock:
            if self.role == "primary" or self.primary == self.addr:
                return ""
            return self.primary

    def status(self) -> Dict[str, Any]:
        """The ``repl.status`` payload (also what peers probe during
        elections)."""
        engine = self.database.durability
        with self._lock:
            waiting = 0.0 if self.role == "primary" else \
                round(time.monotonic() - self._last_contact, 3)
            return {
                "ok": True,
                "role": self.role,
                "addr": self.addr,
                "primary": self.primary,
                "epoch": engine.epoch,
                "durable_lsn": engine.wal.durable_lsn,
                "checkpoint_lsn": engine.checkpoint_lsn,
                "peers": list(self.peers),
                "lag_records": self._lag_records,
                "lag_bytes": self._lag_bytes,
                "last_contact_s": waiting,
                "records_applied": self.records_applied,
                "bootstraps": self.bootstraps,
                "fenced": self.fenced,
                "failovers": self.failovers,
            }

    # ------------------------------------------------------------------
    # primary side: serving repl.sync
    # ------------------------------------------------------------------

    def handle_sync(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one follower pull: records, a bootstrap directive, or
        a bootstrap file chunk — always stamped with our epoch."""
        engine = self.database.durability
        req_epoch = int(request.get("epoch", 0))
        follower = str(request.get("follower", ""))
        with self._lock:
            if req_epoch > engine.epoch:
                # The request proves a newer primary exists: we were
                # deposed while we weren't looking.  Fence ourselves.
                engine.adopt_epoch(req_epoch)
                REPL_EPOCH.labels(node=self.addr).set(float(engine.epoch))
                REPL_FENCED.labels(side="primary").inc()
                self.fenced += 1
                if self.role == "primary":
                    self._demote()
                raise ReplicationFencedError(
                    f"{self.addr} deposed: request from "
                    f"{follower or 'a peer'} carries epoch {req_epoch} "
                    f"above ours")
            if self.role != "primary":
                raise ReplicationFencedError(
                    f"{self.addr} is not the primary (role {self.role}; "
                    f"current primary {self.primary or 'unknown'})")
            epoch = engine.epoch
        mode = str(request.get("mode", "records"))
        plan = ACTIVE.plan
        if plan is not None:
            decision = plan.decide("repl.stream", detail=mode)
            if decision is not None:
                if decision.action == "latency":
                    time.sleep(min(decision.value or 25.0, 2000.0) / 1000.0)
                elif decision.action == "drop":
                    raise ReplicationError(
                        "injected repl.stream drop: sync response lost")
                elif decision.action == "partition":
                    self._partition_until = time.monotonic() + \
                        min(decision.value or 250.0, 5000.0) / 1000.0
        if time.monotonic() < self._partition_until:
            raise ReplicationError(
                f"injected network partition around {self.addr}")
        if mode == "fetch":
            return self._serve_chunk(request, epoch)
        from_lsn = int(request.get("from_lsn", 0))
        needs_snapshot = bool(request.get("resync")) or \
            from_lsn < engine.checkpoint_lsn
        if not needs_snapshot and from_lsn == 0:
            # a checkpoint taken at LSN 0 can hold seeded state the WAL
            # never saw (serve populates TPC-H, then checkpoints), so a
            # brand-new follower must bootstrap whenever one exists
            needs_snapshot = os.path.isdir(os.path.join(
                engine.wal_dir,
                f"checkpoint-{engine.checkpoint_lsn:012d}"))
        if needs_snapshot:
            return self._serve_bootstrap(epoch)
        with engine.order_lock:
            durable_lsn = engine.wal.durable_lsn
            records, more, pending = read_wal_records(
                os.path.join(engine.wal_dir, WAL_FILENAME), from_lsn,
                engine.wal.durable_bytes,
                limit_bytes=self.batch_limit_bytes)
        shipped = [[lsn, base64.b64encode(raw).decode("ascii")]
                   for lsn, raw in records]
        return {"ok": True, "mode": "records", "epoch": epoch,
                "records": shipped, "durable_lsn": durable_lsn,
                "more": more, "pending_bytes": pending}

    def _serve_bootstrap(self, epoch: int) -> Dict[str, Any]:
        """Point a lagging follower at our newest checkpoint.

        If the durable prefix has advanced past the newest checkpoint
        (or none exists yet), write one first — the follower then lands
        fully caught up the moment the snapshot installs.
        """
        engine = self.database.durability
        path = os.path.join(engine.wal_dir,
                            f"checkpoint-{engine.checkpoint_lsn:012d}")
        if engine.checkpoint_lsn < engine.wal.durable_lsn or \
                not os.path.isdir(path):
            engine.checkpoint()
            path = os.path.join(engine.wal_dir,
                                f"checkpoint-{engine.checkpoint_lsn:012d}")
        with open(os.path.join(path, MANIFEST_FILENAME)) as handle:
            manifest = json.load(handle)
        return {"ok": True, "mode": "bootstrap", "epoch": epoch,
                "lsn": engine.checkpoint_lsn, "manifest": manifest}

    def _serve_chunk(self, request: Dict[str, Any],
                     epoch: int) -> Dict[str, Any]:
        """One bootstrap file chunk (column file or manifest)."""
        engine = self.database.durability
        lsn = int(request.get("lsn", -1))
        name = str(request.get("file", ""))
        offset = max(0, int(request.get("offset", 0)))
        if not _SAFE_FILE.match(name):
            raise ReplicationError(f"bad bootstrap file name {name!r}")
        path = os.path.join(engine.wal_dir, f"checkpoint-{lsn:012d}", name)
        try:
            size = os.path.getsize(path)
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read(self.batch_limit_bytes)
        except OSError as exc:
            raise ReplicationError(
                f"bootstrap file {name!r} at lsn {lsn} unavailable: "
                f"{exc}") from None
        return {"ok": True, "mode": "chunk", "epoch": epoch, "lsn": lsn,
                "file": name,
                "data": base64.b64encode(data).decode("ascii"),
                "eof": offset + len(data) >= size, "size": size}

    # ------------------------------------------------------------------
    # promotion and demotion
    # ------------------------------------------------------------------

    def promote(self, trigger: str = "manual",
                above: int = 0) -> Dict[str, Any]:
        """Become the primary: fence, truncate, bump, flip.

        The unacked divergent tail (records appended locally but never
        fsynced — e.g. a batch in flight when the old primary died) is
        truncated exactly as crash recovery would, and the in-memory
        catalog is rebuilt from disk so it equals the durable prefix.
        The new epoch is minted strictly above both our own and
        ``above`` (the highest epoch learned from peers).
        """
        self._stop_puller()
        with self._lock:
            engine = self.database.durability
            if self.role == "primary":
                return {**self.status(), "promoted": False}
            plan = ACTIVE.plan
            if plan is not None:
                decision = plan.decide("repl.promote", detail=trigger)
                if decision is not None and decision.action == "crash":
                    raise ReplicationError(
                        f"injected crash during promotion of {self.addr}")
            dropped = engine.wal.truncate_to_durable()
            with engine.order_lock:
                catalog, report = recover(engine.wal_dir)
                engine.catalog = catalog
                engine.report = report
                engine.checkpoint_lsn = report.checkpoint_lsn
                self.database.swap_catalog(catalog)
            epoch = engine.bump_epoch(above)
            self.role = "primary"
            self.primary = self.addr
            self.failovers += 1
            self._lag_records = 0
            self._lag_bytes = 0
            REPL_FAILOVERS.labels(trigger=trigger).inc()
            REPL_ROLE.labels(node=self.addr).set(1.0)
            REPL_EPOCH.labels(node=self.addr).set(float(epoch))
            REPL_LAG_RECORDS.labels(node=self.addr).set(0.0)
            REPL_LAG_BYTES.labels(node=self.addr).set(0.0)
            REPL_LAG_SECONDS.labels(node=self.addr).set(0.0)
            return {**self.status(), "promoted": True,
                    "dropped_records": dropped}

    def handle_promote(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The ``repl.promote`` verb."""
        return self.promote(trigger="manual")

    def _demote(self) -> None:
        """Deposed: stop accepting writes, rejoin as a replica.

        Called under ``_lock``.  Our history may have diverged from the
        new primary's (acked-but-unreplicated records are the classic
        asynchronous-replication casualty), so the next sync requests a
        full resync — the new primary's snapshot replaces our tail.
        """
        self.role = "replica"
        self.primary = ""
        self._need_resync = True
        self._last_contact = time.monotonic()
        REPL_ROLE.labels(node=self.addr).set(0.0)
        self._ensure_puller()

    # ------------------------------------------------------------------
    # replica side: the puller
    # ------------------------------------------------------------------

    def _pull_loop(self) -> None:
        engine = self.database.durability
        client: Optional[MClient] = None
        backoff = 0.05
        try:
            while not self._stop.is_set() and self.role == "replica":
                try:
                    if not self.primary or self.primary == self.addr:
                        if not self._find_primary():
                            self._maybe_elect()
                            self._stop.wait(backoff)
                            continue
                    if client is None:
                        host, port = split_addr(self.primary)
                        client = MClient(host, port, timeout=2.0,
                                         retries=0)
                    request: Dict[str, Any] = {
                        "from_lsn": engine.wal.durable_lsn,
                        "epoch": engine.epoch,
                        "follower": self.addr,
                    }
                    if self._need_resync:
                        request["resync"] = True
                    response = client.repl_sync(**request)
                    self._check_epoch(response)
                    self._note_contact()
                    backoff = 0.05
                    if response.get("mode") == "bootstrap":
                        self._bootstrap(client, response)
                        self._need_resync = False
                        continue
                    applied = self._apply_batch(response)
                    if int(response.get("durable_lsn", 0)) < \
                            engine.wal.durable_lsn:
                        # our history runs past the primary's: diverged
                        self._need_resync = True
                        continue
                    self._update_lag(response)
                    if response.get("more") or applied:
                        continue
                    self._stop.wait(self.poll_interval_s)
                except (ReproError, OSError):
                    if client is not None:
                        try:
                            client.close()
                        except (ReproError, OSError):
                            pass
                        client = None
                    REPL_LAG_SECONDS.labels(node=self.addr).set(
                        round(time.monotonic() - self._last_contact, 3))
                    if self._maybe_elect():
                        return
                    self._stop.wait(backoff)
                    backoff = min(backoff * 2, 0.5)
        finally:
            if client is not None:
                try:
                    client.close()
                except (ReproError, OSError):
                    pass

    def _note_contact(self) -> None:
        self._last_contact = time.monotonic()
        REPL_LAG_SECONDS.labels(node=self.addr).set(0.0)

    def _check_epoch(self, response: Dict[str, Any]) -> None:
        """Follower-side fencing: reject a deposed primary's stream."""
        engine = self.database.durability
        epoch = int(response.get("epoch", 0))
        if epoch < engine.epoch:
            REPL_FENCED.labels(side="follower").inc()
            self.fenced += 1
            raise ReplicationFencedError(
                f"stream from {self.primary} carries stale epoch "
                f"{epoch} < {engine.epoch}; rejecting")
        if epoch > engine.epoch:
            engine.adopt_epoch(epoch)
            REPL_EPOCH.labels(node=self.addr).set(float(engine.epoch))

    def _apply_batch(self, response: Dict[str, Any]) -> int:
        """Apply one shipped record batch through the engine's write
        path (:meth:`~repro.storage.durable.DurableEngine.log_shipped`)."""
        engine = self.database.durability
        kinds = engine.log_shipped(
            (int(item[0]), base64.b64decode(item[1]))
            for item in response.get("records") or [])
        if "ddl" in kinds:  # frees a dropped table's plans at once
            self.database.plan_cache.clear()
        for kind in kinds:
            REPL_RECORDS_APPLIED.labels(kind=kind).inc()
        self.records_applied += len(kinds)
        return len(kinds)

    def _update_lag(self, response: Dict[str, Any]) -> None:
        engine = self.database.durability
        self._lag_records = max(
            0, int(response.get("durable_lsn", 0)) -
            engine.wal.durable_lsn)
        self._lag_bytes = max(0, int(response.get("pending_bytes", 0)))
        REPL_LAG_RECORDS.labels(node=self.addr).set(
            float(self._lag_records))
        REPL_LAG_BYTES.labels(node=self.addr).set(float(self._lag_bytes))

    # -- bootstrap (checkpoint shipping) ---------------------------------

    def _bootstrap(self, client: Any, response: Dict[str, Any]) -> None:
        """Install the primary's checkpoint snapshot.

        Files land through :func:`land_directory`, the routine a local
        checkpoint uses, then :func:`load_checkpoint` validates every
        CRC before the snapshot is installed — a crash at any
        point leaves either the old state or the new one, never a mix.
        """
        engine = self.database.durability
        lsn = int(response["lsn"])
        manifest = response["manifest"]
        final = os.path.join(engine.wal_dir, f"checkpoint-{lsn:012d}")

        def files():
            for schema_doc in manifest.get("schemas", []):
                for table_doc in schema_doc.get("tables", []):
                    for column_doc in table_doc.get("columns", []):
                        name = column_doc["file"]
                        if not _SAFE_FILE.match(name):
                            raise ReplicationError(
                                f"bad bootstrap file name {name!r}")
                        yield name, self._fetch_file(client, lsn, name)
            yield MANIFEST_FILENAME, json.dumps(manifest).encode("ascii")

        land_directory(final, files())
        catalog, _ckpt_lsn, _rows = load_checkpoint(final)
        # the counters go out with the snapshot's lsn, under the lock
        # status() reads them by: no reader, this thread included, sees
        # a caught-up replica that has not bootstrapped or still lags
        with self._lock:
            self.bootstraps += 1
            self._lag_records = 0
            self._lag_bytes = 0
            try:
                self.database.install_replica_snapshot(catalog, lsn)
            except BaseException:
                self.bootstraps -= 1
                raise
        REPL_LAG_RECORDS.labels(node=self.addr).set(0.0)
        REPL_LAG_BYTES.labels(node=self.addr).set(0.0)

    def _fetch_file(self, client: Any, lsn: int, name: str) -> bytes:
        chunks: List[bytes] = []
        offset = 0
        while True:
            response = client.repl_sync(
                mode="fetch", lsn=lsn, file=name, offset=offset,
                epoch=self.database.durability.epoch, follower=self.addr)
            self._check_epoch(response)
            data = base64.b64decode(response.get("data", ""))
            chunks.append(data)
            offset += len(data)
            if response.get("eof") or not data:
                return b"".join(chunks)

    # -- elections -------------------------------------------------------

    def _maybe_elect(self) -> bool:
        """Heartbeat-timeout election; True when we promoted ourselves."""
        if not self.auto_failover or not self.peers:
            return False
        if time.monotonic() - self._last_contact < self.heartbeat_timeout_s:
            return False
        try:
            return self._election()
        except ReproError:
            # e.g. an injected repl.promote crash — stay a replica and
            # let the next timeout retry the election
            return False

    def _find_primary(self) -> bool:
        """Probe peers for a live primary with an epoch at least ours."""
        engine = self.database.durability
        for peer in self.peers:
            probed = self._probe(peer)
            if probed is None:
                continue
            if probed.get("role") == "primary" and \
                    int(probed.get("epoch", 0)) >= engine.epoch:
                with self._lock:
                    self.primary = peer
                self._note_contact()
                return True
        return False

    def _election(self) -> bool:
        """Deterministic election: highest durable LSN wins, lowest
        address breaks ties.  If a live primary surfaces during the
        probe round, follow it instead of electing."""
        engine = self.database.durability
        best_epoch = engine.epoch
        candidates: List[Tuple[int, str]] = [
            (engine.wal.durable_lsn, self.addr)]
        for peer in self.peers:
            probed = self._probe(peer)
            if probed is None:
                continue
            peer_epoch = int(probed.get("epoch", 0))
            best_epoch = max(best_epoch, peer_epoch)
            if probed.get("role") == "primary" and \
                    peer_epoch >= engine.epoch:
                with self._lock:
                    self.primary = peer
                self._note_contact()
                return False
            candidates.append((int(probed.get("durable_lsn", 0)), peer))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        winner = candidates[0][1]
        if winner == self.addr:
            self.promote(trigger="auto", above=best_epoch)
            return True
        with self._lock:
            self.primary = winner
        # grace: the winner promotes itself off the same timeout
        self._note_contact()
        return False

    #: One-shot ``repl.status`` probe of a peer; None when unreachable.
    _probe = staticmethod(probe_status)
