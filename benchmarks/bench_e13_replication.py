"""Experiment E13 — replication: lag under write load and failover.

A primary streams its committed WAL to a pulling replica (checkpoint
bootstrap for late joiners, epoch-fenced sessions).  These benchmarks
measure the two numbers an operator actually watches:

- ``lag``: the E12-style concurrent write workload runs against the
  primary while the replica pulls; replication lag (records) is
  sampled throughout, and once the load stops we time how long the
  replica takes to drain to zero — the replica must finish
  byte-identical (``catalog_canonical_bytes``) to the primary;
- ``failover``: the primary is SIGKILL-shaped mid-write-load
  (truncated to its durable watermark, exactly like crash recovery),
  the replica is promoted, and we time from the kill to the first
  served read on the new primary.  The promoted state must be a clean
  acked prefix of what the old primary acknowledged, the epoch must
  bump, and a write must land on the new primary.

Raw rates and times are machine-dependent, so the regression gate
checks the recorded *invariants* -- byte-identity, lag drained, clean
prefix, epoch fencing -- and only shows the wall-clock numbers: the
``e13`` rows of the table in ``benchmarks/check_regression.py``.
``check_regression.py --only e13`` runs this file against the committed
``benchmarks/BENCH_E13_replication.json``, the one canonical baseline;
the fresh run it leaves in ``benchmarks/artifacts/`` deliberately has a
different name, so the baseline never exists in two places.
"""

import os
import shutil
import tempfile
import threading
import time

from repro.errors import ReproError
from repro.replication import ReplicationManager
from repro.server.client import MClient
from repro.server.database import Database
from repro.server.mserver import Mserver
from repro.storage.durable import catalog_canonical_bytes, recover

import check_regression

WRITERS = 4
RECORDS_PER_WRITER = 75


def _node(workdir, name, primary=None):
    db = Database(wal_dir=os.path.join(workdir, name),
                  commit_window_ms=2.0 if primary is None else 0.0)
    server = Mserver(db).start()
    addr = f"127.0.0.1:{server.port}"
    mgr = ReplicationManager(server, addr=addr, primary=primary,
                             poll_interval_s=0.01, auto_failover=False)
    server.replication = mgr.start()
    return db, server, mgr, addr


def _write_load(port, writers=WRITERS, per_writer=RECORDS_PER_WRITER):
    """E12-shaped concurrent insert workload; returns acked SQL in
    acknowledgement order plus throughput numbers."""
    acked = []
    lock = threading.Lock()
    failures = []
    barrier = threading.Barrier(writers)

    def write(i):
        try:
            with MClient(port=port, retries=0) as client:
                barrier.wait(timeout=10.0)
                for j in range(per_writer):
                    sql = (f"insert into t values "
                           f"({i * 100000 + j}, 'w{i}')")
                    client.query(sql)
                    with lock:
                        acked.append(sql)
        except Exception as exc:  # pragma: no cover
            failures.append(repr(exc))

    threads = [threading.Thread(target=write, args=(i,))
               for i in range(writers)]
    began = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - began
    return acked, elapsed, failures


def run_lag_benchmark():
    """Replication lag under concurrent write load, then drain time."""
    workdir = tempfile.mkdtemp(prefix="bench-e13-lag-")
    servers = []
    try:
        pdb, pserver, _pmgr, paddr = _node(workdir, "primary")
        servers.append(pserver)
        with MClient(port=pserver.port) as client:
            client.query("create table t (a integer, b varchar(8))")
        rdb, rserver, rmgr, _raddr = _node(workdir, "replica",
                                           primary=paddr)
        servers.append(rserver)

        lag_samples = []
        stop_sampling = threading.Event()

        def sample():
            while not stop_sampling.is_set():
                lag_samples.append(rmgr.status()["lag_records"])
                time.sleep(0.005)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        acked, load_seconds, failures = _write_load(pserver.port)
        drain_began = time.perf_counter()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if rdb.durability.wal.durable_lsn \
                    >= pdb.durability.wal.durable_lsn:
                break
            time.sleep(0.002)
        drain_seconds = time.perf_counter() - drain_began
        stop_sampling.set()
        sampler.join(timeout=5.0)

        records = len(acked)
        return {
            "writers": WRITERS,
            "records": records,
            "load_seconds": round(load_seconds, 3),
            "records_per_s": round(records / max(load_seconds, 1e-9), 1),
            "max_lag_records": max(lag_samples or [0]),
            "drain_seconds": round(drain_seconds, 3),
            "final_lag_records": rmgr.status()["lag_records"],
            "byte_identical": (catalog_canonical_bytes(rdb.catalog)
                               == catalog_canonical_bytes(pdb.catalog)),
            "failures": failures,
        }
    finally:
        for server in reversed(servers):
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def run_failover_benchmark():
    """Kill the primary mid-write-load; time-to-first-served-read on
    the promoted replica."""
    workdir = tempfile.mkdtemp(prefix="bench-e13-failover-")
    servers = []
    try:
        pdb, pserver, _pmgr, paddr = _node(workdir, "primary")
        servers.append(pserver)
        with MClient(port=pserver.port) as client:
            client.query("create table t (a integer, b varchar(8))")
        rdb, rserver, _rmgr, _raddr = _node(workdir, "replica",
                                            primary=paddr)
        servers.append(rserver)

        acked, _seconds, failures = _write_load(pserver.port)
        # wait until the replica has something, then kill mid-stream
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and \
                rdb.durability.wal.durable_lsn == 0:
            time.sleep(0.002)

        old_epoch = pdb.durability.epoch
        kill_began = time.perf_counter()
        pdb.durability.simulate_crash()
        pserver.stop()
        servers.remove(pserver)

        with MClient(port=rserver.port, retries=0) as client:
            promoted = client.promote()
            promote_seconds = time.perf_counter() - kill_began
            first_read = None
            read_deadline = time.monotonic() + 10.0
            while time.monotonic() < read_deadline:
                try:
                    client.query("select count(*) from t")
                    first_read = time.perf_counter() - kill_began
                    break
                except ReproError:
                    time.sleep(0.002)
            client.query("insert into t values (999999, 'post')")

        # the promoted state (minus the sentinel post-failover row)
        # must be a clean prefix of the dead primary's durable history
        # — recover its WAL directory post-mortem as the witness.
        # Both sides apply records in LSN order, so the replica's rows
        # must be exactly the first N of the old primary's rows.
        old_catalog, _report = recover(os.path.join(workdir, "primary"))
        old_table = old_catalog.schema("sys").table("t")
        old_rows = list(zip(old_table.columns["a"].bat.tail,
                            old_table.columns["b"].bat.tail))
        table = rdb.catalog.schema("sys").table("t")
        rows = [row for row in zip(table.columns["a"].bat.tail,
                                   table.columns["b"].bat.tail)
                if row != (999999, "post")]
        clean_prefix = rows == old_rows[:len(rows)]

        return {
            "records": len(acked),
            "promote_seconds": round(promote_seconds, 3),
            "first_read_seconds": (None if first_read is None
                                   else round(first_read, 3)),
            "promoted": bool(promoted.get("promoted")),
            "old_epoch": old_epoch,
            "new_epoch": int(promoted.get("epoch", 0)),
            "dropped_records": int(promoted.get("dropped_records", 0)),
            "clean_prefix": clean_prefix,
            "failures": failures,
        }
    finally:
        for server in reversed(servers):
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def run_benchmarks():
    results = {
        "lag": run_lag_benchmark(),
        "failover": run_failover_benchmark(),
    }
    results["invariants"] = invariants(results)
    return results


def invariants(results):
    """The machine-independent facts the regression gate enforces."""
    lag = results["lag"]
    failover = results["failover"]
    return {
        "all_writes_acked": (not lag["failures"]
                             and not failover["failures"]
                             and lag["records"]
                             == WRITERS * RECORDS_PER_WRITER),
        "lag_drains_to_zero": lag["final_lag_records"] == 0,
        "replica_byte_identical": lag["byte_identical"],
        "failover_promoted": failover["promoted"],
        "failover_epoch_bumped": (failover["new_epoch"]
                                  > failover["old_epoch"]),
        "failover_serves_reads": (failover["first_read_seconds"]
                                  is not None),
        "failover_clean_acked_prefix": failover["clean_prefix"],
    }


def test_e13_replication():
    """Rides the ``benchmarks/`` suite: the run and the rows that
    ``check_regression.py --only e13`` checks."""
    assert check_regression.run("e13") == 0
