"""WAL-shipping replication: streaming, bootstrap, read-only replicas,
epoch-fenced failover, deterministic election, and the replication-aware
client routing that rides on top.

The centrepiece parity test runs the 12 TPC-H queries against a replica
while the primary is under concurrent write load and asserts the rows
are identical to the primary's — plus a live trace subscription served
by the replica itself.
"""

import base64
import json
import os
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import (
    CatalogError,
    ReadOnlyReplicaError,
    ReplicationError,
    ReplicationFencedError,
    RequestTimeoutError,
    ServerError,
    WalError,
)
from repro.replication import ReplicationManager, split_addr
from repro.server.client import MClient
from repro.server.database import Database
from repro.server.mserver import Mserver
from repro.storage.durable import (
    catalog_canonical_bytes,
    encode_payload,
    read_epoch,
)
from repro.tpch import QUERIES, populate, query_sql


def _wait(condition, timeout=8.0, interval=0.01, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def _node(tmp_path, name, primary=None, **kwargs):
    """One in-process node: durable Database + Mserver + manager."""
    db = Database(wal_dir=str(tmp_path / name), commit_window_ms=0.0,
                  checkpoint_interval=kwargs.pop("checkpoint_interval", 64))
    server = Mserver(db).start()
    addr = f"127.0.0.1:{server.port}"
    kwargs.setdefault("poll_interval_s", 0.01)
    kwargs.setdefault("auto_failover", False)
    mgr = ReplicationManager(server, addr=addr, primary=primary, **kwargs)
    server.replication = mgr.start()
    return SimpleNamespace(db=db, server=server, mgr=mgr, addr=addr,
                           port=server.port)


def _caught_up(primary, replica):
    return (replica.db.durability.wal.durable_lsn
            >= primary.db.durability.wal.durable_lsn)


def _bytes(node):
    return catalog_canonical_bytes(node.db.catalog)


@pytest.fixture()
def cluster(tmp_path):
    primary = _node(tmp_path, "primary")
    replica = _node(tmp_path, "replica", primary=primary.addr)
    nodes = [primary, replica]
    yield SimpleNamespace(primary=primary, replica=replica, nodes=nodes)
    # replicas first: their pullers stop while the primary still
    # answers, instead of spinning reconnect attempts mid-teardown
    for node in reversed(nodes):
        node.server.stop()


class TestStreaming:
    def test_stream_apply_byte_identical(self, cluster):
        with MClient(port=cluster.primary.port) as client:
            client.query("create table t (a integer, b varchar(8))")
            for i in range(20):
                client.query(f"insert into t values ({i}, 'v{i}')")
        _wait(lambda: _caught_up(cluster.primary, cluster.replica),
              message="replica catch-up")
        assert _bytes(cluster.replica) == _bytes(cluster.primary)
        assert cluster.replica.mgr.records_applied >= 21

    def test_late_joiner_bootstraps_from_checkpoint(self, tmp_path):
        primary = _node(tmp_path, "primary")
        try:
            # non-WAL data (populate mutates the catalog directly) can
            # only reach a follower through the checkpoint snapshot
            populate(primary.db.catalog, scale_factor=0.01)
            primary.db.checkpoint()
            with MClient(port=primary.port) as client:
                client.query("create table tail (a integer)")
                client.query("insert into tail values (7)")
            replica = _node(tmp_path, "replica", primary=primary.addr)
            try:
                # the snapshot's LSN is visible before _bootstrap counts
                # it, so wait for both
                _wait(lambda: (_caught_up(primary, replica)
                               and replica.mgr.bootstraps >= 1),
                      message="bootstrap catch-up")
                assert replica.mgr.bootstraps >= 1
                assert _bytes(replica) == _bytes(primary)
            finally:
                replica.server.stop()
        finally:
            primary.server.stop()

    def test_bootstrap_publishes_its_counters_with_the_snapshot(
            self, tmp_path, monkeypatch):
        primary = _node(tmp_path, "primary")
        try:
            with MClient(port=primary.port) as client:
                client.query("create table t (a integer)")
                client.query("insert into t values (1)")
            lsn = primary.db.checkpoint().lsn
            db = Database(wal_dir=str(tmp_path / "replica"),
                          commit_window_ms=0.0)
            server = Mserver(db).start()
            try:
                mgr = ReplicationManager(
                    server, addr=f"127.0.0.1:{server.port}",
                    primary=primary.addr, poll_interval_s=0.01,
                    auto_failover=False)
                mgr._lag_records, mgr._lag_bytes = 5, 512  # stale
                seen = []
                installed = threading.Event()
                original = db.install_replica_snapshot

                def install(catalog, at_lsn):
                    original(catalog, at_lsn)
                    seen.append(mgr.status())
                    installed.set()

                monkeypatch.setattr(db, "install_replica_snapshot", install)
                server.replication = mgr.start()
                assert installed.wait(timeout=10.0), "no bootstrap"
                status = seen[0]
                assert status["durable_lsn"] == lsn
                assert status["bootstraps"] >= 1
                assert (status["lag_records"], status["lag_bytes"]) == (0, 0)
            finally:
                server.stop()
        finally:
            primary.server.stop()

    def test_bootstrap_refuses_path_like_file_names(self, cluster):
        # the manifest comes off the wire; a name with a path component
        # must not be written (it would land outside the temp directory)
        hostile = {"lsn": 9, "manifest": {"schemas": [{"tables": [
            {"columns": [{"file": "../escaped.col"}]}]}]}}
        wal_dir = cluster.replica.db.durability.wal_dir
        with pytest.raises(ReplicationError, match="bad bootstrap file"):
            cluster.replica.mgr._bootstrap(None, hostile)
        assert not os.path.exists(os.path.join(wal_dir, "escaped.col"))
        assert cluster.replica.mgr.bootstraps == 0

    def test_lag_drains_to_zero(self, cluster):
        with MClient(port=cluster.primary.port) as client:
            client.query("create table t (a integer)")
            for i in range(10):
                client.query(f"insert into t values ({i})")
        _wait(lambda: cluster.replica.mgr.status()["lag_records"] == 0,
              message="lag to drain")
        status = cluster.replica.mgr.status()
        assert status["lag_bytes"] == 0
        assert status["role"] == "replica"

    def test_repl_status_verb(self, cluster):
        with MClient(port=cluster.replica.port) as client:
            status = client.repl_status()
        assert status["role"] == "replica"
        assert status["primary"] == cluster.primary.addr
        assert status["epoch"] == 0
        with MClient(port=cluster.primary.port) as client:
            status = client.repl_status()
        assert status["role"] == "primary"

    def test_standalone_status_without_manager(self, tmp_path):
        db = Database(wal_dir=str(tmp_path / "solo"), commit_window_ms=0.0)
        with Mserver(db) as server, MClient(port=server.port) as client:
            status = client.repl_status()
            assert status["role"] == "standalone"
            with pytest.raises(ServerError):
                client.promote()


def _follower(tmp_path):
    """A replica's database and manager, no server and no puller: the
    test hands ``_apply_batch`` what a ``repl.sync`` response carries."""
    db = Database(wal_dir=str(tmp_path / "follower"), commit_window_ms=0.0)
    mgr = ReplicationManager(SimpleNamespace(database=db),
                             addr="127.0.0.1:1", primary="127.0.0.1:2",
                             auto_failover=False)
    return db, mgr


def _shipped(*records):
    return {"records": [[lsn, base64.b64encode(
        encode_payload(kind, data)).decode("ascii")]
        for lsn, kind, data in records]}


_CREATE_T = ("ddl", {"op": "create", "schema": "sys", "table": "t",
                     "columns": [["a", "int"]]})
_INSERT_T = ("insert", {"schema": "sys", "table": "t", "rows": [[1]]})


class TestWriteRace:
    def test_shipped_record_that_does_not_apply_is_not_appended(
            self, tmp_path):
        db, mgr = _follower(tmp_path)
        try:
            wal = db.durability.wal
            before = wal.written_lsn
            with pytest.raises(CatalogError):
                mgr._apply_batch(_shipped((before + 1,) + _INSERT_T))
            assert wal.written_lsn == before
            # the lsn is still free for the record the primary resends
            assert mgr._apply_batch(_shipped((before + 1,) + _CREATE_T,
                                             (before + 2,) + _INSERT_T)) == 2
            live = catalog_canonical_bytes(db.catalog)
        finally:
            db.close()
        again = Database(wal_dir=str(tmp_path / "follower"))
        try:
            assert catalog_canonical_bytes(again.catalog) == live
        finally:
            again.close()

    def test_failed_fsync_takes_the_shipped_batch_back(self, tmp_path):
        db, mgr = _follower(tmp_path)
        try:
            wal = db.durability.wal
            before = wal.written_lsn
            create, insert = (before + 1,) + _CREATE_T, \
                (before + 2,) + _INSERT_T
            wal._fail_next_sync = True
            with pytest.raises(WalError):
                mgr._apply_batch(_shipped(create, insert))
            assert "t" not in db.catalog.schema().tables
            # resent one by one, each is appended again: neither waits
            # on the rollback nor fails for the batch it was part of
            assert mgr._apply_batch(_shipped(create)) == 1
            assert mgr._apply_batch(_shipped(insert)) == 1
            assert db.catalog.table("t").row_count() == 1
        finally:
            db.close()


class TestReadOnlyReplica:
    def test_write_rejected_with_primary_hint(self, cluster):
        with MClient(port=cluster.primary.port) as client:
            client.query("create table t (a integer)")
        _wait(lambda: _caught_up(cluster.primary, cluster.replica),
              message="replica catch-up")
        with MClient(port=cluster.replica.port) as client:
            with pytest.raises(ReadOnlyReplicaError) as excinfo:
                client.query("insert into t values (1)")
        assert excinfo.value.primary == cluster.primary.addr
        # the rejected write never executed anywhere
        with MClient(port=cluster.primary.port) as client:
            assert client.query("select count(*) from t").rows[0][0] == 0

    def test_replica_serves_trace_subscription(self, cluster):
        with MClient(port=cluster.primary.port) as client:
            client.query("create table t (a integer)")
            client.query("insert into t values (1)")
        _wait(lambda: _caught_up(cluster.primary, cluster.replica),
              message="replica catch-up")
        with MClient(port=cluster.replica.port) as viewer, \
                MClient(port=cluster.replica.port) as runner:
            sub = viewer.subscribe()
            runner.query("select count(*) from t")
            entries = list(sub.entries(until_end=True, max_seconds=5.0))
        assert {e["kind"] for e in entries} == {"dot", "event", "end"}

    def test_tpch_parity_under_write_load(self, tmp_path):
        primary = _node(tmp_path, "primary")
        replica = None
        try:
            populate(primary.db.catalog, scale_factor=0.02)
            primary.db.checkpoint()
            replica = _node(tmp_path, "replica", primary=primary.addr)
            with MClient(port=primary.port) as client:
                client.query("create table repl_load (a integer)")
            _wait(lambda: _caught_up(primary, replica),
                  message="replica catch-up")

            stop = threading.Event()
            errors = []

            def writer():
                with MClient(port=primary.port) as client:
                    i = 0
                    while not stop.is_set():
                        try:
                            client.query(
                                f"insert into repl_load values ({i})")
                        except Exception as exc:  # noqa: BLE001
                            errors.append(exc)
                            return
                        i += 1
                        time.sleep(0.002)

            thread = threading.Thread(target=writer, daemon=True)
            thread.start()
            try:
                with MClient(port=primary.port) as pc, \
                        MClient(port=replica.port) as rc:
                    for name in sorted(QUERIES):
                        sql = query_sql(name)
                        expect = pc.query(sql)
                        got = rc.query(sql)
                        assert got.columns == expect.columns, name
                        assert got.rows == expect.rows, name
            finally:
                stop.set()
                thread.join(timeout=5.0)
            assert not errors, errors
            _wait(lambda: _caught_up(primary, replica),
                  message="final catch-up")
            assert _bytes(replica) == _bytes(primary)
        finally:
            if replica is not None:
                replica.server.stop()
            primary.server.stop()


class TestFailover:
    def test_manual_promote_bumps_and_persists_epoch(self, cluster):
        with MClient(port=cluster.primary.port) as client:
            client.query("create table t (a integer)")
            client.query("insert into t values (1)")
        _wait(lambda: _caught_up(cluster.primary, cluster.replica),
              message="replica catch-up")
        cluster.primary.db.durability.simulate_crash()
        cluster.primary.server.stop()
        with MClient(port=cluster.replica.port) as client:
            promoted = client.promote()
        assert promoted["promoted"] is True
        assert promoted["epoch"] == 1
        assert promoted["role"] == "primary"
        # the epoch survives a restart of the promoted node
        assert read_epoch(cluster.replica.db.durability.wal_dir) == 1
        # the promoted node accepts writes and serves reads
        with MClient(port=cluster.replica.port) as client:
            client.query("insert into t values (2)")
            assert client.query(
                "select count(*) from t").rows[0][0] == 2
            assert client.promote()["promoted"] is False

    def test_promote_truncates_unacked_tail(self, cluster):
        with MClient(port=cluster.primary.port) as client:
            client.query("create table t (a integer)")
        _wait(lambda: _caught_up(cluster.primary, cluster.replica),
              message="replica catch-up")
        cluster.primary.server.stop()
        cluster.nodes.remove(cluster.primary)
        # a written-but-never-durable record is exactly the shape a
        # crashed apply leaves behind; promotion must drop it
        wal = cluster.replica.db.durability.wal
        with cluster.replica.db.durability.order_lock:
            wal.append("insert", {"bogus": True})
        before = _bytes(cluster.replica)
        report = cluster.replica.mgr.promote()
        assert report["promoted"] is True
        assert report["dropped_records"] >= 1
        assert _bytes(cluster.replica) == before

    def test_auto_failover_elects_surviving_replica(self, tmp_path):
        primary = _node(tmp_path, "primary")
        replica = _node(tmp_path, "replica", primary=primary.addr,
                        peers=(primary.addr,), auto_failover=True,
                        heartbeat_timeout_s=0.3)
        try:
            with MClient(port=primary.port) as client:
                client.query("create table t (a integer)")
                client.query("insert into t values (1)")
            _wait(lambda: _caught_up(primary, replica),
                  message="replica catch-up")
            primary.db.durability.simulate_crash()
            primary.server.stop()
            _wait(lambda: replica.mgr.role == "primary", timeout=10.0,
                  message="automatic promotion")
            assert replica.db.durability.epoch >= 1
            with MClient(port=replica.port) as client:
                client.query("insert into t values (2)")
                assert client.query(
                    "select count(*) from t").rows[0][0] == 2
        finally:
            replica.server.stop()
            primary.server.stop()

    def test_election_prefers_highest_lsn_then_address(self, cluster,
                                                       monkeypatch):
        mgr = cluster.replica.mgr
        mgr.peers = ["127.0.0.1:1", "127.0.0.1:2"]
        probes = {
            "127.0.0.1:1": {"role": "replica", "epoch": 0,
                            "durable_lsn": 10 ** 6},
            "127.0.0.1:2": {"role": "replica", "epoch": 0,
                            "durable_lsn": 10 ** 6},
        }
        monkeypatch.setattr(ReplicationManager, "_probe",
                            staticmethod(lambda addr, timeout=0.75:
                                         probes.get(addr)))
        assert mgr._election() is False
        # lowest address broke the tie
        assert mgr.primary == "127.0.0.1:1"
        # ...but a live primary with a current epoch always wins
        probes["127.0.0.1:2"]["role"] = "primary"
        assert mgr._election() is False
        assert mgr.primary == "127.0.0.1:2"

    def test_deposed_primary_rejoins_via_resync(self, tmp_path):
        primary = _node(tmp_path, "primary")
        replica = _node(tmp_path, "replica", primary=primary.addr)
        try:
            with MClient(port=primary.port) as client:
                client.query("create table t (a integer)")
                client.query("insert into t values (1)")
            _wait(lambda: _caught_up(primary, replica),
                  message="replica catch-up")
            # divergence: the old primary keeps writing after its
            # follower stopped listening, then loses those writes
            replica.mgr._stop_puller()
            with MClient(port=primary.port) as client:
                client.query("insert into t values (100)")
                client.query("insert into t values (101)")
            replica.mgr.promote()
            with MClient(port=replica.port) as client:
                client.query("insert into t values (2)")
            # the deposed primary rejoins as a replica of the winner:
            # its divergent tail must be replaced, not merged
            primary.mgr._stop_puller()
            primary.mgr.role = "replica"
            primary.mgr.primary = replica.addr
            primary.mgr._need_resync = True
            primary.mgr._ensure_puller()
            _wait(lambda: _bytes(primary) == _bytes(replica),
                  message="resync convergence")
            assert primary.db.durability.epoch == \
                replica.db.durability.epoch
            with MClient(port=primary.port) as client:
                rows = client.query(
                    "select a from t order by a asc").rows
            assert [r[0] for r in rows] == [1, 2]
        finally:
            replica.server.stop()
            primary.server.stop()


class TestFencing:
    def test_follower_rejects_stale_epoch_stream(self, cluster):
        stale = {"ok": True, "epoch": -1}
        with pytest.raises(ReplicationFencedError):
            cluster.replica.mgr._check_epoch(stale)
        assert cluster.replica.mgr.fenced >= 1

    def test_primary_demotes_on_higher_epoch_contact(self, cluster):
        with MClient(port=cluster.primary.port) as client:
            client.query("create table t (a integer)")
        assert cluster.primary.mgr.accepts_writes()
        with pytest.raises(ReplicationFencedError):
            cluster.primary.mgr.handle_sync(
                {"from_lsn": 0, "epoch": 5,
                 "follower": cluster.replica.addr})
        assert not cluster.primary.mgr.accepts_writes()
        assert cluster.primary.db.durability.epoch == 5
        # no ghost writes on the deposed node — the protocol error
        # carries no primary hint yet (it has none), but it is typed
        with MClient(port=cluster.primary.port) as client:
            with pytest.raises(ReadOnlyReplicaError):
                client.query("insert into t values (1)")

    def test_no_split_brain_after_failover(self, cluster):
        with MClient(port=cluster.primary.port) as client:
            client.query("create table t (a integer)")
        _wait(lambda: _caught_up(cluster.primary, cluster.replica),
              message="replica catch-up")
        cluster.replica.mgr.promote()
        new_epoch = cluster.replica.db.durability.epoch
        # the old primary still answers, but its first contact with the
        # new epoch deposes it
        with pytest.raises(ReplicationFencedError):
            cluster.primary.mgr.handle_sync(
                {"from_lsn": 0, "epoch": new_epoch,
                 "follower": cluster.replica.addr})
        writable = [node for node in cluster.nodes
                    if node.mgr.accepts_writes()]
        assert [node.addr for node in writable] == [cluster.replica.addr]


class TestClientRouting:
    def test_reads_to_replica_writes_to_primary(self, cluster):
        with MClient(port=cluster.primary.port) as client:
            client.query("create table t (a integer)")
        _wait(lambda: _caught_up(cluster.primary, cluster.replica),
              message="replica catch-up")
        peers = [cluster.primary.addr, cluster.replica.addr]
        with MClient(port=cluster.primary.port, peers=peers,
                     retry_seed=3) as client:
            client.query("insert into t values (1)")
            assert client.port == cluster.primary.port
            _wait(lambda: _caught_up(cluster.primary, cluster.replica),
                  message="replica catch-up")
            assert client.query(
                "select count(*) from t").rows[0][0] == 1
            assert client.port == cluster.replica.port

    def test_write_after_failover_re_resolves_primary(self, cluster):
        with MClient(port=cluster.primary.port) as client:
            client.query("create table t (a integer)")
        _wait(lambda: _caught_up(cluster.primary, cluster.replica),
              message="replica catch-up")
        peers = [cluster.primary.addr, cluster.replica.addr]
        with MClient(port=cluster.primary.port, peers=peers,
                     retries=3, retry_seed=3,
                     backoff_base_s=0.01) as client:
            client.query("insert into t values (1)")
            cluster.replica.mgr.promote()
            # the demoted old primary now rejects the write with a
            # hint; the client re-resolves and lands it on the winner
            with pytest.raises(ReplicationFencedError):
                cluster.primary.mgr.handle_sync(
                    {"from_lsn": 0,
                     "epoch": cluster.replica.db.durability.epoch,
                     "follower": cluster.replica.addr})
            client.query("insert into t values (2)")
            assert client.port == cluster.replica.port

    def test_split_addr_rejects_garbage(self):
        assert split_addr("127.0.0.1:80") == ("127.0.0.1", 80)
        assert split_addr("host:1") == ("host", 1)
        assert split_addr("host:65535") == ("host", 65535)
        # getaddrinfo takes 70000 for 4464: a port out of range is refused
        for garbage in ("no-port-here", "127.0.0.1:70000", "host:65536",
                        "host:0", "host:-1"):
            with pytest.raises(ReplicationError):
                split_addr(garbage)


class _StallAfterDropServer(threading.Thread):
    """A fake protocol endpoint for the deadline-cap regression test.

    Connection #1 answers the session-state ``set`` then drops on the
    next request; connection #2 (the client's reconnect, which replays
    the ``set``) reads the request and stalls without answering.  Before
    the deadline threading fix, that replay ran with ``deadline=None``
    and slept out the client's full socket timeout.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.port = self.sock.getsockname()[1]
        self.release = threading.Event()

    def _recv_line(self, conn):
        buffer = b""
        while b"\n" not in buffer:
            chunk = conn.recv(65536)
            if not chunk:
                return None
            buffer += chunk
        return buffer.split(b"\n", 1)[0]

    def run(self):
        try:
            conn1, _ = self.sock.accept()
            if self._recv_line(conn1) is not None:  # the recorded set
                conn1.sendall(json.dumps({"ok": True}).encode() + b"\n")
                self._recv_line(conn1)  # the query — drop it
            conn1.close()
            conn2, _ = self.sock.accept()
            self._recv_line(conn2)  # the replayed set — stall
            self.release.wait(timeout=20.0)
            conn2.close()
        except OSError:
            pass

    def close(self):
        self.release.set()
        try:
            self.sock.close()
        except OSError:
            pass


class TestDeadlineCapsReconnect:
    def test_session_replay_respects_request_deadline(self):
        server = _StallAfterDropServer()
        server.start()
        try:
            client = MClient(port=server.port, timeout=30.0, retries=2,
                             backoff_base_s=0.01, retry_seed=5)
            try:
                client.set_pipeline("default_pipe")
                began = time.monotonic()
                with pytest.raises(RequestTimeoutError):
                    client.query("select 1", deadline_s=0.5)
                elapsed = time.monotonic() - began
                # pre-fix this slept out the 30s socket timeout inside
                # the session-state replay; the budget must win
                assert elapsed < 3.0, f"deadline overshot: {elapsed:.1f}s"
            finally:
                client.close()
        finally:
            server.close()
            server.join(timeout=5.0)


class TestCli:
    def _out(self):
        class Out:
            text = ""

            def write(self, chunk):
                self.text += chunk

            def flush(self):
                pass
        return Out()

    def test_repl_status_and_promote_commands(self, cluster):
        from repro.cli import main

        with MClient(port=cluster.primary.port) as client:
            client.query("create table t (a integer)")
        _wait(lambda: _caught_up(cluster.primary, cluster.replica),
              message="replica catch-up")
        out = self._out()
        assert main(["repl-status", "--port",
                     str(cluster.replica.port)], out=out) == 0
        assert "role: replica" in out.text
        assert f"primary: {cluster.primary.addr}" in out.text
        cluster.primary.db.durability.simulate_crash()
        cluster.primary.server.stop()
        out = self._out()
        assert main(["promote", "--port",
                     str(cluster.replica.port)], out=out) == 0
        assert "to primary" in out.text
        assert "epoch 1" in out.text
        out = self._out()
        assert main(["promote", "--port",
                     str(cluster.replica.port)], out=out) == 0
        assert "already primary" in out.text

    def test_serve_replicate_from_requires_wal_dir(self):
        from repro.cli import main

        out = self._out()
        assert main(["serve", "--replicate-from", "127.0.0.1:1"],
                    out=out) == 2
        assert "requires --wal-dir" in out.text
