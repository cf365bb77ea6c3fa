"""Experiment E12 — durable storage: group commit and crash recovery.

The durable engine write-ahead logs every DDL/INSERT and fsyncs with
group commit: the first committer, if it has company, waits a small
window, then one fsync covers every record that queued behind it.
Checkpoints serialise the catalog into binary columnar files so
recovery replays only the WAL tail.  These benchmarks measure what
that design buys:

- ``group_commit``: concurrent writers against one WAL, batched window
  vs per-record fsync — the batched run must need strictly fewer
  fsyncs than records;
- ``recovery``: rebuild a database from a long WAL, then from a
  checkpoint plus a short tail — both must be byte-identical to the
  state that was acknowledged, and the checkpointed replay must cover
  far fewer records;
- ``checkpoint``: serialise a populated TPC-H catalog and load it back
  byte-identically.

Raw rates are machine-dependent, so the regression gate checks the
recorded *invariants* -- batching happened, nothing acknowledged was
lost, round trips are byte-identical -- and only shows the wall-clock
numbers: the ``e12`` rows of the table in
``benchmarks/check_regression.py``.  ``check_regression.py --only e12``
runs this file against the committed
``benchmarks/BENCH_E12_durability.json``.
"""

import os
import shutil
import tempfile
import threading
import time

from repro.server.database import Database
from repro.storage import Catalog
from repro.storage.durable import (
    WriteAheadLog,
    catalog_canonical_bytes,
    load_checkpoint,
    recover,
    write_checkpoint,
)
from repro.tpch import populate

import check_regression

WRITERS = 8
RECORDS_PER_WRITER = 50
WAL_RECORDS = 1500
TAIL_RECORDS = 100


def _wal_throughput(commit_window_ms, writers=WRITERS,
                    per_writer=RECORDS_PER_WRITER):
    """Concurrent appenders against one WAL; returns records/fsyncs."""
    workdir = tempfile.mkdtemp(prefix="bench-e12-wal-")
    try:
        wal = WriteAheadLog(os.path.join(workdir, "wal.log"),
                            commit_window_ms=commit_window_ms)
        barrier = threading.Barrier(writers)
        failures = []

        def write(i):
            try:
                barrier.wait(timeout=10.0)
                for j in range(per_writer):
                    wal.commit(wal.append(
                        "insert", {"writer": i, "j": j}))
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
        records = writers * per_writer
        result = {
            "commit_window_ms": commit_window_ms,
            "writers": writers,
            "records": records,
            "durable_records": wal.synced_records,
            "fsyncs": wal.fsyncs,
            "records_per_fsync": round(records / max(wal.fsyncs, 1), 2),
            "seconds": round(elapsed, 3),
            "records_per_s": round(records / elapsed, 1),
            "failures": failures,
        }
        wal.close()
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_group_commit_benchmark():
    """Batched group commit vs serial per-record fsync, same records.

    The serial run is one writer with a zero window: with nobody to
    batch with, every record costs its own fsync — the baseline group
    commit amortises away.  (A *concurrent* zero-window run still
    batches: whatever queued during an fsync goes out in the next.)
    """
    return {
        "batched": _wal_throughput(commit_window_ms=2.0),
        "per_record": _wal_throughput(
            commit_window_ms=0.0, writers=1,
            per_writer=WRITERS * RECORDS_PER_WRITER),
    }


def run_recovery_benchmark(records=WAL_RECORDS, tail=TAIL_RECORDS):
    """Recovery from a long WAL vs a checkpoint plus a short tail."""
    workdir = tempfile.mkdtemp(prefix="bench-e12-recover-")
    try:
        db = Database(wal_dir=workdir, commit_window_ms=2.0)
        db.execute("create table t (a integer, b varchar(12))")
        for i in range(records - 1):
            db.execute(f"insert into t values ({i}, 'v{i % 97}')")
        acked = catalog_canonical_bytes(db.catalog)
        db.durability.simulate_crash()
        db.close()

        began = time.perf_counter()
        catalog, report = recover(workdir)
        full_seconds = time.perf_counter() - began
        full = {
            "wal_records": report.replayed_records,
            "seconds": round(full_seconds, 3),
            "records_per_s": round(
                report.replayed_records / full_seconds, 1),
            "byte_identical": catalog_canonical_bytes(catalog) == acked,
        }

        # now the same database, checkpointed with only a short tail
        db = Database(wal_dir=workdir, commit_window_ms=2.0)
        db.checkpoint()
        for i in range(tail):
            db.execute(f"insert into t values ({records + i}, 'tail')")
        acked = catalog_canonical_bytes(db.catalog)
        db.durability.simulate_crash()
        db.close()
        began = time.perf_counter()
        catalog, report = recover(workdir)
        tail_seconds = time.perf_counter() - began
        checkpointed = {
            "wal_records": report.replayed_records,
            "checkpoint_rows": report.checkpoint_rows,
            "seconds": round(tail_seconds, 3),
            "byte_identical": catalog_canonical_bytes(catalog) == acked,
        }
        return {"full_replay": full, "checkpointed": checkpointed}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_checkpoint_benchmark(scale=0.05):
    """Serialise a TPC-H catalog to columnar files; load it back."""
    catalog = Catalog()
    populate(catalog, scale_factor=scale, seed=7)
    workdir = tempfile.mkdtemp(prefix="bench-e12-ckpt-")
    try:
        began = time.perf_counter()
        report = write_checkpoint(catalog, workdir, lsn=1)
        write_seconds = time.perf_counter() - began
        began = time.perf_counter()
        loaded, lsn, rows = load_checkpoint(report.path)
        load_seconds = time.perf_counter() - began
        return {
            "scale": scale,
            "rows": report.rows,
            "files": report.files,
            "bytes": report.bytes,
            "write_seconds": round(write_seconds, 3),
            "load_seconds": round(load_seconds, 3),
            "rows_per_s": round(report.rows / max(write_seconds, 1e-9),
                                1),
            "byte_identical": (catalog_canonical_bytes(loaded)
                               == catalog_canonical_bytes(catalog)),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_benchmarks():
    results = {
        "group_commit": run_group_commit_benchmark(),
        "recovery": run_recovery_benchmark(),
        "checkpoint": run_checkpoint_benchmark(),
    }
    results["invariants"] = invariants(results)
    return results


def invariants(results):
    """The machine-independent facts the regression gate enforces."""
    batched = results["group_commit"]["batched"]
    per_record = results["group_commit"]["per_record"]
    recovery = results["recovery"]
    checkpoint = results["checkpoint"]
    return {
        "all_records_durable": (
            not batched["failures"] and not per_record["failures"]
            and batched["durable_records"] == batched["records"]
            and per_record["durable_records"] == per_record["records"]),
        "group_commit_batches": batched["fsyncs"] < batched["records"],
        "per_record_fsync_floor": (per_record["fsyncs"]
                                   >= per_record["records"]),
        "full_replay_byte_identical": (
            recovery["full_replay"]["byte_identical"]),
        "checkpointed_byte_identical": (
            recovery["checkpointed"]["byte_identical"]),
        "checkpoint_shortens_replay": (
            recovery["checkpointed"]["wal_records"]
            < recovery["full_replay"]["wal_records"]),
        "checkpoint_round_trip_identical": checkpoint["byte_identical"],
    }


def test_e12_durability():
    """Rides the ``benchmarks/`` suite: the run and the rows that
    ``check_regression.py --only e12`` checks."""
    assert check_regression.run("e12") == 0
