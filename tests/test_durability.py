"""The durable storage engine: WAL framing and group commit, binary
columnar checkpoints, crash recovery, the fault sites that attack each
of them, and the typed write-path/persistence errors that ride along.

The centrepiece is a crash-recovery property test that SIGKILLs a real
forked process mid-workload across many seeds and asserts the durability
contract: no acknowledged statement is ever lost, no unacknowledged
statement is ever half-applied, and recovery is deterministic.
"""

import datetime
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import (
    CatalogError,
    CheckpointError,
    SqlError,
    StorageError,
    WalError,
)
from repro.faults import FaultPlan, armed, disarm
from repro.server.database import Database
from repro.storage import Catalog, durable
from repro.storage.durable import (
    MANIFEST_FILENAME,
    DurableEngine,
    WriteAheadLog,
    catalog_canonical_bytes,
    land_directory,
    list_checkpoints,
    load_catalog,
    load_checkpoint,
    prune_checkpoints,
    recover,
    save_catalog,
    scan_wal,
)
from repro.storage.types import type_by_name

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def always_disarm():
    yield
    disarm()


def _durable(tmp_path, **kwargs) -> Database:
    kwargs.setdefault("commit_window_ms", 0.0)
    return Database(wal_dir=str(tmp_path), **kwargs)


def _keeping_undo(hooks):
    """A stand-in for ``prepare_record`` that keeps the undo it built in
    ``hooks["undo"]``, as a failed fsync would run it."""
    prepare = durable.prepare_record

    def keeping_undo(catalog, kind, data):
        apply, undo = prepare(catalog, kind, data)
        hooks["undo"] = undo
        return apply, undo

    return keeping_undo


def _bytes(db_or_catalog) -> bytes:
    catalog = getattr(db_or_catalog, "catalog", db_or_catalog)
    return catalog_canonical_bytes(catalog)


class TestWriteAheadLog:
    def test_append_commit_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, commit_window_ms=0.0)
        for i in range(3):
            lsn = wal.append("insert", {"i": i})
            wal.commit(lsn)
        assert wal.durable_lsn == 3
        wal.close()
        scan = scan_wal(path)
        assert not scan.torn
        assert [(lsn, data["i"]) for lsn, _kind, data in scan.records] \
            == [(1, 0), (2, 1), (3, 2)]
        assert scan.valid_bytes == scan.total_bytes

    def test_scan_stops_at_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, commit_window_ms=0.0)
        for i in range(2):
            wal.commit(wal.append("insert", {"i": i}))
        durable = wal.durable_bytes
        wal.append("insert", {"i": 2})
        kept = wal.simulate_crash(durable + 7)  # half a header survives
        assert kept == durable + 7
        scan = scan_wal(path)
        assert scan.torn
        assert len(scan.records) == 2
        assert scan.valid_bytes == durable

    def test_scan_stops_at_corrupt_crc(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, commit_window_ms=0.0)
        for i in range(3):
            wal.commit(wal.append("insert", {"i": i}))
        wal.close()
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        scan = scan_wal(path)
        assert scan.torn
        assert len(scan.records) == 2

    def test_group_commit_batches_concurrent_writers(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"),
                            commit_window_ms=25.0)
        writers = 8
        barrier = threading.Barrier(writers)
        failures = []

        def write(i):
            try:
                barrier.wait(timeout=5.0)
                wal.commit(wal.append("insert", {"i": i}))
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=write, args=(i,))
                   for i in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not failures
        assert wal.durable_lsn == writers
        # one fsync covered several records: that is the whole point
        assert wal.fsyncs < writers
        wal.close()

    def test_truncate_keeps_counting_lsns(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, commit_window_ms=0.0)
        wal.commit(wal.append("ddl", {"op": "noop"}))
        wal.truncate()
        assert os.path.getsize(path) == 0
        lsn = wal.append("insert", {"i": 1})
        assert lsn == 2  # never reused, even across truncation
        wal.commit(lsn)
        wal.close()
        scan = scan_wal(path)
        assert [r[0] for r in scan.records] == [2]


class TestRecovery:
    def test_clean_reopen_is_byte_identical(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("create table t (a integer, b varchar(8))")
        db.execute("insert into t values (1, 'one')")
        db.execute("insert into t values (2, 'two')")
        expected = _bytes(db)
        db.close()
        again = _durable(tmp_path)
        assert again.recovery.recovered_anything
        assert again.recovery.outcome == "clean"
        assert again.recovery.replayed_records == 3
        assert _bytes(again) == expected
        again.close()

    def test_checkpoint_plus_wal_tail(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1)")
        db.checkpoint()
        db.execute("insert into t values (2)")
        expected = _bytes(db)
        db.durability.simulate_crash()
        db.close()
        again = _durable(tmp_path)
        report = again.recovery
        assert report.checkpoint_path is not None
        assert report.checkpoint_lsn == 2
        assert report.replayed_records == 1
        assert _bytes(again) == expected
        again.close()

    def test_interval_checkpoints_fire(self, tmp_path):
        db = _durable(tmp_path, checkpoint_interval=2)
        db.execute("create table t (a integer)")
        for i in range(5):
            db.execute(f"insert into t values ({i})")
        assert list_checkpoints(str(tmp_path))
        db.close()

    def test_reopening_with_a_catalog_is_refused(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        db.close()
        with pytest.raises(StorageError, match="already holds"):
            Database(wal_dir=str(tmp_path), catalog=Catalog())
        # the refused open must not have clobbered anything
        again = _durable(tmp_path)
        assert "t" in again.catalog.schema().tables
        again.close()

    def test_torn_tail_is_dropped_and_repaired(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1)")
        expected = _bytes(db)
        wal = db.durability.wal
        durable = wal.durable_bytes
        # an append whose commit never happened: the in-flight record a
        # SIGKILL can leave half-written past the durable watermark
        wal.append("insert", {"schema": "sys", "table": "t",
                              "rows": [[2]]})
        wal.simulate_crash(durable + 9)
        db.close()
        again = _durable(tmp_path)
        report = again.recovery
        assert report.outcome == "torn"
        assert report.torn_bytes_dropped == 9
        assert _bytes(again) == expected
        again.close()
        # the torn bytes were truncated away: the next open is clean
        final = _durable(tmp_path)
        assert final.recovery.outcome == "clean"
        assert _bytes(final) == expected
        final.close()

    def test_checkpoint_requires_wal_dir(self):
        db = Database()
        with pytest.raises(StorageError, match="wal_dir"):
            db.checkpoint()
        db.close()


class TestWalFaults:
    def test_torn_write_poisons_until_recovery(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1)")
        expected = _bytes(db)
        plan = FaultPlan.from_spec("persist.wal:torn-write@1.0#1", seed=1)
        with armed(plan):
            with pytest.raises(WalError, match="torn write"):
                db.execute("insert into t values (2)")
        # nothing half-applied, and the log refuses writes until reopened
        assert _bytes(db) == expected
        with pytest.raises(WalError, match="poisoned"):
            db.execute("insert into t values (3)")
        db.durability.simulate_crash(db.durability.wal.written_bytes)
        db.close()
        again = _durable(tmp_path)
        assert again.recovery.outcome == "torn"
        assert _bytes(again) == expected
        again.execute("insert into t values (4)")  # log is usable again
        again.close()

    def test_fsync_loss_rolls_back_and_leaves_a_gap(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        plan = FaultPlan.from_spec("persist.wal:fsync-loss@1.0#1", seed=1)
        with armed(plan):
            with pytest.raises(WalError, match="fsync"):
                db.execute("insert into t values (1)")
        assert db.catalog.table("t").row_count() == 0
        db.execute("insert into t values (2)")
        expected = _bytes(db)
        db.close()
        # the failed statement's lsn was burned, never reused
        scan = scan_wal(str(tmp_path / "wal.log"))
        assert [r[0] for r in scan.records] == [1, 3]
        again = _durable(tmp_path)
        assert _bytes(again) == expected
        again.close()

    def test_latency_fault_only_slows(self, tmp_path):
        db = _durable(tmp_path)
        plan = FaultPlan.from_spec("persist.wal:latency=1@1.0", seed=1)
        with armed(plan):
            db.execute("create table t (a integer)")
            db.execute("insert into t values (1)")
        assert db.catalog.table("t").row_count() == 1
        db.close()


class TestCheckpointFaults:
    def _seed_db(self, tmp_path) -> Database:
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1)")
        return db

    def test_partial_manifest_falls_back_to_the_wal(self, tmp_path):
        db = self._seed_db(tmp_path)
        expected = _bytes(db)
        plan = FaultPlan.from_spec(
            "persist.checkpoint:partial-manifest@1.0#1", seed=1)
        with armed(plan):
            with pytest.raises(CheckpointError):
                db.checkpoint()
        db.durability.simulate_crash()
        db.close()
        again = _durable(tmp_path)
        # the invalid checkpoint was detected and skipped; the full WAL
        # (never truncated on a failed checkpoint) rebuilt everything
        assert again.recovery.invalid_checkpoints >= 1
        assert again.recovery.replayed_records == 2
        assert _bytes(again) == expected
        again.close()

    def test_crash_before_rename_leaves_no_trace(self, tmp_path):
        db = self._seed_db(tmp_path)
        expected = _bytes(db)
        plan = FaultPlan.from_spec(
            "persist.checkpoint:crash-before-rename@1.0#1", seed=1)
        with armed(plan):
            with pytest.raises(CheckpointError):
                db.checkpoint()
        assert list_checkpoints(str(tmp_path)) == []
        # with the fault spent, checkpointing works and prunes the tmp
        report = db.checkpoint()
        assert report.rows == 1
        leftovers = [n for n in os.listdir(str(tmp_path))
                     if n.endswith(".tmp")]
        assert leftovers == []
        db.close()
        again = _durable(tmp_path)
        assert _bytes(again) == expected
        again.close()

    def test_corrupt_record_recovers_an_acked_prefix(self, tmp_path):
        db = self._seed_db(tmp_path)
        db.execute("insert into t values (2)")
        db.close()
        plan = FaultPlan.from_spec(
            "persist.recover:corrupt-record@1.0#1", seed=1)
        with armed(plan):
            catalog, report = recover(str(tmp_path))
        # media corruption legitimately loses acked records — but only
        # ever a suffix: what survives is a strict prefix of history
        assert report.torn
        assert report.replayed_records == 0
        assert "t" not in catalog.schema().tables


class TestWritePathRegressions:
    """Reviewed durability edge cases, pinned so they stay fixed."""

    def test_insert_rollback_spares_concurrently_committed_rows(
            self, tmp_path, monkeypatch):
        """The lengths an INSERT's undo truncates to are read when it
        applies — under the engine's order lock — not when the statement
        was bound.  A concurrent INSERT that commits in between must
        survive this statement's rollback; truncating it away would
        leave memory *behind* the durable WAL, and the next checkpoint
        would persist the loss."""
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        table = db.catalog.table("t")
        real_log = db.durability.log
        hooks = {}

        def interleaving_log(kind, data):
            # Between this statement's binding and its record entering
            # the engine, another thread's INSERT commits — the exact
            # interleaving the server's executor threads allow.
            real_log("insert",
                     {"schema": "sys", "table": "t", "rows": [[1]]})
            monkeypatch.setattr(durable, "prepare_record",
                                _keeping_undo(hooks))
            return real_log(kind, data)

        db.durability.log = interleaving_log
        db.execute("insert into t values (2)")
        db.durability.log = real_log
        monkeypatch.undo()
        assert table.row_count() == 2
        # roll the second statement back, as its failed fsync would
        hooks["undo"]()
        assert table.row_count() == 1
        assert table.columns["a"].bat.tail[0] == 1
        db.close()

    def test_repeated_checkpoint_reuses_the_same_lsn_directory(
            self, tmp_path):
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1)")
        first = db.checkpoint()
        # A second checkpoint with no intervening statements lands on
        # the same LSN.  The existing directory must be reused — never
        # deleted first: a crash in between would leave no checkpoint
        # at the LSN while the WAL it covered is already truncated.
        sentinel = os.path.join(first.path, "sentinel")
        with open(sentinel, "w"):
            pass
        second = db.checkpoint()
        assert (second.path, second.lsn, second.rows, second.files,
                second.bytes) == (first.path, first.lsn, first.rows,
                                  first.files, first.bytes)
        assert os.path.exists(sentinel)  # reused in place, not rewritten
        db.close()
        again = _durable(tmp_path)
        assert again.recovery.checkpoint_lsn == first.lsn
        assert again.catalog.table("t").row_count() == 1
        again.close()

    def test_damaged_same_lsn_checkpoint_is_replaced(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1)")
        first = db.checkpoint()
        with open(os.path.join(first.path, MANIFEST_FILENAME),
                  "w") as handle:
            handle.write("{")  # bit-rot: the directory no longer validates
        second = db.checkpoint()
        assert second.path == first.path
        _catalog, lsn, rows = load_checkpoint(second.path)
        assert (lsn, rows) == (first.lsn, 1)
        # the damaged copy was moved aside and cleaned up after the
        # replacement landed
        assert not [n for n in os.listdir(str(tmp_path))
                    if n.endswith(".stale")]
        db.close()

    def test_failed_adopt_closes_the_wal(self, tmp_path):
        catalog = Catalog()
        catalog.schema().create_table("t", [("a", type_by_name("int"))])
        plan = FaultPlan.from_spec(
            "persist.checkpoint:crash-before-rename@1.0#1", seed=1)
        with armed(plan):
            with pytest.raises(CheckpointError):
                Database(wal_dir=str(tmp_path), catalog=catalog,
                         commit_window_ms=0.0)
        fd_dir = "/proc/self/fd"
        if os.path.isdir(fd_dir):  # no leaked fd into the wal dir
            for name in os.listdir(fd_dir):
                try:
                    target = os.readlink(os.path.join(fd_dir, name))
                except OSError:
                    continue
                assert not target.startswith(str(tmp_path)), target
        # and the directory is reopenable
        again = _durable(tmp_path)
        again.close()


class TestWriteRace:
    """Two statements through one durable Database, the second run at
    the point where the first enters the engine — an interleaving the
    server's executor threads allow.  Each is acknowledged or refused
    with a typed CatalogError, and the WAL replays to the live catalog."""

    @pytest.mark.parametrize("setup, first, second", [
        ("create table t (a integer)", "drop table t", "drop table t"),
        ("create table t (a integer)", "insert into t values (1)",
         "drop table t"),
        (None, "create table t (a integer)", "create table t (b integer)"),
    ], ids=["drop-vs-drop", "insert-vs-drop", "create-vs-create"])
    def test_the_loser_is_refused_before_it_is_logged(
            self, tmp_path, setup, first, second):
        db = _durable(tmp_path)
        if setup:
            db.execute(setup)
        real_log = db.durability.log
        outcomes = {}

        def run(sql, role):
            try:
                db.execute(sql)
                outcomes[role] = "acknowledged"
            except Exception as exc:  # the type is what is asserted
                outcomes[role] = exc

        def racing_log(*args, **kwargs):
            db.durability.log = real_log
            run(second, "second")
            return real_log(*args, **kwargs)

        db.durability.log = racing_log
        try:
            run(first, "first")
            live = _bytes(db)
        finally:
            db.close()
        assert outcomes["second"] == "acknowledged"
        assert isinstance(outcomes["first"], CatalogError), outcomes
        again = _durable(tmp_path)
        try:
            assert _bytes(again) == live
        finally:
            again.close()

    def test_a_check_is_not_passed_by_a_failed_fsync(self, tmp_path,
                                                     monkeypatch):
        """CREATE u fails its fsync while INSERT INTO u, bound while u
        stood, is being checked.  The failure cannot land between the
        INSERT's check and its append, so the INSERT is never logged
        after the CREATE's undo: it fails with the CREATE's batch."""
        db = _durable(tmp_path)
        wal = db.durability.wal
        checked, create_done = threading.Event(), threading.Event()
        real_commit, prepare = wal.commit, durable.prepare_record
        outcomes = {}

        def commit(lsn):
            if not checked.is_set():  # the CREATE's, once INSERT checks
                checked.wait(5)
                wal._fail_next_sync = True
            return real_commit(lsn)

        def checking(catalog, kind, data):
            result = prepare(catalog, kind, data)
            if kind == "insert":
                checked.set()
                create_done.wait(0.5)  # times out: the check holds the log
            return result

        def run(sql, role):
            try:
                db.execute(sql)
                outcomes[role] = "acknowledged"
            except Exception as exc:  # the type is what is asserted
                outcomes[role] = exc
            if role == "create":
                create_done.set()

        monkeypatch.setattr(wal, "commit", commit)
        monkeypatch.setattr(durable, "prepare_record", checking)
        creator = threading.Thread(
            target=run, args=("create table u (a integer)", "create"))
        creator.start()
        try:
            while "u" not in db.catalog.schema().tables and \
                    creator.is_alive():
                time.sleep(0.001)
            run("insert into u values (1)", "insert")
            creator.join(10)
            assert not creator.is_alive()
            live = _bytes(db)
        finally:
            monkeypatch.undo()
            db.close()
        assert all(isinstance(outcome, WalError)
                   for outcome in outcomes.values()), outcomes
        again = _durable(tmp_path)
        try:
            assert _bytes(again) == live
        finally:
            again.close()


class TestMemoryDurableParity:
    """A statement gives the same outcome, error type and message with
    and without a WAL, and the WAL reopens to the in-memory catalog."""

    @pytest.mark.parametrize("statements", [
        ["create table d (a integer, a integer)"],
        ["create table t (b integer)"],
        ["insert into t values (1, 2)"],
        ["insert into missing values (1)"],
        ["drop table missing"],
        ["insert into t values (null)"],
        ["insert into t values ('x')"],
        ["create table u (a integer)", "drop table u",
         "insert into u values (1)"],
    ], ids=["duplicate-column", "existing-table", "wrong-arity",
            "missing-table", "drop-missing", "nil-insert",
            "mistyped-literal", "insert-after-drop"])
    def test_with_and_without_a_wal(self, tmp_path, statements):
        def outcomes(db):
            seen = []
            for sql in ["create table t (a integer)"] + statements:
                try:
                    outcome = db.execute(sql)
                    seen.append((outcome.kind, outcome.affected))
                except Exception as exc:  # compared, type and message
                    seen.append((type(exc), str(exc)))
            return seen

        memory = Database()
        durable_db = _durable(tmp_path)
        try:
            expected = outcomes(memory)
            assert outcomes(durable_db) == expected
            assert _bytes(durable_db) == _bytes(memory)
        finally:
            durable_db.close()
            memory.close()
        again = _durable(tmp_path)
        try:
            assert _bytes(again) == _bytes(memory)
        finally:
            again.close()


class TestInsertBindTyping:
    @pytest.fixture()
    def db(self):
        database = Database()
        database.execute(
            "create table typed (i integer, s varchar(8), d double, "
            "f boolean, dt date)")
        yield database
        database.close()

    def _insert(self, db, values: str):
        return db.execute(f"insert into typed values ({values})")

    def test_good_row_inserts(self, db):
        outcome = self._insert(db, "1, 'x', 2.5, true, '2026-08-08'")
        assert outcome.affected == 1
        row_day = db.catalog.table("typed").columns["dt"].bat.tail[0]
        assert row_day == datetime.date(2026, 8, 8)

    def test_int_upcasts_into_double(self, db):
        self._insert(db, "1, 'x', 3, false, date '2026-01-01'")
        assert db.catalog.table("typed").columns["d"].bat.tail[0] == 3.0

    def test_nulls_pass_every_column(self, db):
        outcome = self._insert(db, "null, null, null, null, null")
        assert outcome.affected == 1

    def test_negative_numbers_bind(self, db):
        self._insert(db, "-5, 'x', -2.5, true, null")
        assert db.catalog.table("typed").columns["i"].bat.tail[0] == -5

    @pytest.mark.parametrize("values, fragment", [
        ("'oops', 'x', 1.0, true, null", "cannot insert string"),
        ("1.5, 'x', 1.0, true, null", "cannot insert float"),
        ("1, 2, 1.0, true, null", "cannot insert integer"),
        ("1, 'x', 1.0, 7, null", "cannot insert integer"),
        ("true, 'x', 1.0, true, null", "cannot insert boolean"),
        ("1, 'x', 1.0, true, 'not-a-date'", "bad date literal"),
        ("1, 'x', 1.0, true, 5", "cannot insert integer"),
        ("1, 'x'", "has 2 value"),
    ])
    def test_mistyped_literals_are_rejected(self, db, values, fragment):
        before = db.catalog.table("typed").row_count()
        with pytest.raises(SqlError, match=fragment):
            self._insert(db, values)
        # bind-time rejection: no column was touched
        assert db.catalog.table("typed").row_count() == before

    def test_durable_rejection_logs_nothing(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        with pytest.raises(SqlError):
            db.execute("insert into t values ('nope')")
        db.close()
        scan = scan_wal(str(tmp_path / "wal.log"))
        assert len(scan.records) == 1  # just the CREATE


class TestCatalogDirectoryPersistence:
    """A saved catalog is a checkpoint directory: the manifest's
    per-column CRCs and format number guard it, not a file trailer."""

    def _catalog(self) -> Catalog:
        catalog = Catalog()
        catalog.create_table_from_sql_types(
            "t", [("a", "integer"), ("b", "varchar")])
        catalog.table("t").insert_many([[1, "one"], [2, "two"]])
        return catalog

    def _manifest(self, path) -> dict:
        import json

        with open(os.path.join(path, MANIFEST_FILENAME)) as handle:
            return json.load(handle)

    def test_round_trip_carries_checksums(self, tmp_path):
        import zlib

        path = str(tmp_path / "cat")
        save_catalog(self._catalog(), path)
        columns = self._manifest(path)["schemas"][0]["tables"][0]["columns"]
        for column in columns:
            with open(os.path.join(path, column["file"]), "rb") as handle:
                assert zlib.crc32(handle.read()) == column["crc32"]
        loaded = load_catalog(path)
        assert loaded.table("t").row_count() == 2
        assert _bytes(loaded) == _bytes(self._catalog())

    def test_bit_rot_is_detected(self, tmp_path):
        path = str(tmp_path / "cat")
        save_catalog(self._catalog(), path)
        column = self._manifest(path)["schemas"][0]["tables"][0]["columns"][1]
        file_path = os.path.join(path, column["file"])
        with open(file_path, "rb") as handle:
            data = handle.read()
        with open(file_path, "wb") as handle:
            handle.write(data.replace(b'"one"', b'"eno"', 1))
        with pytest.raises(StorageError, match="checksum mismatch"):
            load_catalog(path)

    def test_old_single_file_catalogs_are_refused(self, tmp_path):
        # the pre-format-2 save_catalog wrote one CRC-trailed JSON file;
        # there is no reader for it any more, only a typed refusal
        path = str(tmp_path / "cat.json")
        with open(path, "w") as handle:
            handle.write('{"version": 1, "schemas": []}\n#crc32=00000000\n')
        with pytest.raises(StorageError):
            load_catalog(path)

    @pytest.mark.parametrize("payload", [
        "[]",
        '{"format": 99, "lsn": 0, "schemas": []}',
        '{"format": 2, "lsn": 0, "schemas": [{"nom": "sys"}]}',
        '{"format": 2, "lsn": 0, "schemas": [{"name": "sys", "tables": '
        '[{"name": "t", "columns": [{"name": "a", "type": "int"}]}]}]}',
        '{"format": 2, "lsn": 0, "schemas": 7}',
    ])
    def test_malformed_manifests_raise_typed_errors(self, tmp_path,
                                                    payload):
        path = str(tmp_path / "cat")
        os.makedirs(path)
        with open(os.path.join(path, MANIFEST_FILENAME), "w") as handle:
            handle.write(payload)
        with pytest.raises(StorageError):
            load_catalog(path)


_CHILD = """
import os, sys
from repro.server.database import Database

wal_dir, ack_path, script_path = sys.argv[1], sys.argv[2], sys.argv[3]
with open(script_path) as handle:
    statements = [line.rstrip("\\n") for line in handle if line.strip()]
db = Database(wal_dir=wal_dir, commit_window_ms=0.0, checkpoint_interval=4)
ack = open(ack_path, "a")
print("READY", flush=True)
for index, sql in enumerate(statements):
    db.execute(sql)
    ack.write(f"{index}\\n")
    ack.flush()
    os.fsync(ack.fileno())
print("DONE", flush=True)
db.close()
"""


def _workload(seed: int):
    rng = random.Random(seed * 104729 + 7)
    statements = ["create table w0 (a integer, b varchar(12))"]
    for i in range(30):
        if i == 12:
            statements.append("create table w1 (x double)")
        elif rng.random() < 0.5 and i > 12:
            statements.append(
                f"insert into w1 values ({rng.randrange(100)}.25)")
        else:
            statements.append(
                f"insert into w0 values ({rng.randrange(1000)}, "
                f"'v{rng.randrange(100)}')")
    return statements


class TestCrashRecoveryProperty:
    """SIGKILL a real process mid-workload; the durability contract
    must hold for every seed: recovery yields exactly a prefix of the
    workload covering at least every acknowledged statement (at most
    one in-flight statement beyond), deterministically."""

    @pytest.mark.parametrize("seed", range(20))
    def test_sigkilled_process_loses_nothing_acked(self, tmp_path, seed):
        wal_dir = str(tmp_path / "wal")
        ack_path = str(tmp_path / "acks")
        script_path = str(tmp_path / "workload.sql")
        statements = _workload(seed)
        with open(script_path, "w") as handle:
            handle.write("\n".join(statements) + "\n")
        open(ack_path, "w").close()
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, wal_dir, ack_path, script_path],
            stdout=subprocess.PIPE, env=env)
        try:
            assert child.stdout.readline().strip() == b"READY"
            rng = random.Random(seed)
            time.sleep(rng.uniform(0.005, 0.12))
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10.0)
        finally:
            child.stdout.close()
            if child.poll() is None:  # pragma: no cover - safety net
                child.kill()
                child.wait()
        with open(ack_path) as handle:
            acked = sum(1 for line in handle
                        if line.endswith("\n") and line.strip().isdigit())

        recovered, report = recover(wal_dir)
        recovered_bytes = catalog_canonical_bytes(recovered)
        shadow = Database()
        try:
            prefix = None
            if catalog_canonical_bytes(shadow.catalog) == recovered_bytes:
                prefix = 0
            for applied, sql in enumerate(statements, start=1):
                shadow.execute(sql)
                if catalog_canonical_bytes(shadow.catalog) \
                        == recovered_bytes:
                    prefix = applied
        finally:
            shadow.close()
        assert prefix is not None, (
            f"seed {seed}: recovered state matches no workload prefix "
            f"({report.describe()})")
        assert prefix >= acked, (
            f"seed {seed}: {acked} statements acked but recovery "
            f"rebuilt only {prefix}")
        assert prefix - acked <= 1, (
            f"seed {seed}: recovery rebuilt {prefix} statements with "
            f"only {acked} acked — a statement was applied before its "
            f"acknowledgement")

        # recovery is deterministic: running it again changes nothing
        again, _ = recover(wal_dir)
        assert catalog_canonical_bytes(again) == recovered_bytes


class TestDurabilityMetricsAndCli:
    def test_metric_families_advance(self, tmp_path):
        from repro.metrics.families import (
            PERSIST_CHECKPOINTS,
            PERSIST_RECOVERIES,
            PERSIST_WAL_APPENDS,
        )

        appends = PERSIST_WAL_APPENDS.labels(kind="insert")
        checkpoints = PERSIST_CHECKPOINTS.labels(outcome="ok")
        recoveries = PERSIST_RECOVERIES.labels(outcome="clean")
        a0, c0, r0 = appends.value(), checkpoints.value(), \
            recoveries.value()
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1)")
        db.checkpoint()
        db.close()
        again = _durable(tmp_path)
        again.close()
        assert appends.value() == a0 + 1
        assert checkpoints.value() >= c0 + 1
        assert recoveries.value() >= r0 + 1

    def test_checkpoint_and_recover_commands(self, tmp_path):
        from repro.cli import main

        class Out:
            def __init__(self):
                self.text = ""

            def write(self, chunk):
                self.text += chunk

            def flush(self):
                pass

        wal_dir = str(tmp_path)
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1)")
        db.close()
        out = Out()
        assert main(["recover", wal_dir], out=out) == 0
        assert "recovery of" in out.text
        assert "sys.t: 1 rows" in out.text
        out = Out()
        assert main(["checkpoint", wal_dir], out=out) == 0
        assert "wal truncated" in out.text
        assert os.path.getsize(os.path.join(wal_dir, "wal.log")) == 0
        out = Out()
        assert main(["recover", wal_dir], out=out) == 0
        assert "sys.t: 1 rows" in out.text

    def test_recover_command_exits_nonzero_when_lossy(self, tmp_path):
        from repro.cli import main
        from repro.storage.durable import _HEADER

        class Out:
            text = ""

            def write(self, chunk):
                self.text += chunk

            def flush(self):
                pass

        wal_dir = str(tmp_path)
        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1)")
        db.close()
        # a torn tail: a well-formed header whose payload never landed
        with open(os.path.join(wal_dir, "wal.log"), "ab") as handle:
            handle.write(_HEADER.pack(99, 4096, 0) + b"xx")
        out = Out()
        # lossy recovery: the data that survived is intact, but scripts
        # must see a distinct exit code, not a buried report line
        assert main(["recover", wal_dir], out=out) == 3
        assert "torn" in out.text
        assert "sys.t: 1 rows" in out.text


class _Evil:
    """Pickles into a payload whose reduce would invoke ``os.system``."""

    marker = ""

    def __reduce__(self):
        return (os.system, (f"touch {self.marker}",))


class TestHostilePickleBytes:
    def _evil_payload(self, tmp_path):
        import pickle as _pickle

        _Evil.marker = str(tmp_path / "pwned")
        return _pickle.dumps(_Evil(), protocol=_pickle.HIGHEST_PROTOCOL)

    def test_hostile_wal_payload_raises_typed(self, tmp_path):
        from repro.storage.durable import decode_payload

        payload = self._evil_payload(tmp_path)
        with pytest.raises(WalError):
            decode_payload(payload)
        assert not os.path.exists(str(tmp_path / "pwned"))

    def test_hostile_wal_record_scans_as_torn(self, tmp_path):
        import struct
        import zlib

        from repro.storage.durable import _HEADER

        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, commit_window_ms=0.0)
        wal.commit(wal.append("insert", {"i": 1}))
        wal.close()
        # a record with valid framing and CRC around hostile bytes: only
        # the payload decoder stands between the scan and an
        # attacker-controlled reduce — and it cannot run one
        payload = self._evil_payload(tmp_path)
        with open(path, "ab") as handle:
            handle.write(_HEADER.pack(2, len(payload),
                                      zlib.crc32(payload)) + payload)
        scan = scan_wal(path)
        assert scan.torn
        assert [lsn for lsn, _k, _d in scan.records] == [1]
        assert not os.path.exists(str(tmp_path / "pwned"))

    def test_hostile_checkpoint_column_raises_typed(self, tmp_path):
        import json
        import zlib

        db = _durable(tmp_path)
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1)")
        report = db.checkpoint()
        db.close()
        payload = self._evil_payload(tmp_path)
        manifest_path = os.path.join(report.path, MANIFEST_FILENAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        column = manifest["schemas"][0]["tables"][0]["columns"][0]
        # the attacker controls the whole directory, so the manifest
        # CRC matches the hostile bytes — only the column decoder is left
        column["crc32"] = zlib.crc32(payload)
        with open(os.path.join(report.path, column["file"]), "wb") as handle:
            handle.write(payload)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(CheckpointError):
            load_checkpoint(report.path)
        assert not os.path.exists(str(tmp_path / "pwned"))

    def test_hostile_ship_payload_raises_typed(self, tmp_path):
        """The fourth boundary: pickle bytes handed straight to the
        column decoder checkpoint loading calls fail typed."""
        from repro.storage import BAT

        payload = self._evil_payload(tmp_path)
        with pytest.raises(StorageError):
            BAT.from_ship_bytes(payload)
        assert not os.path.exists(str(tmp_path / "pwned"))


class TestCheckpointWhileWriting:
    def test_concurrent_checkpoints_lose_no_acked_row(self, tmp_path):
        db = _durable(tmp_path, checkpoint_interval=10 ** 9)
        db.execute("create table t (a integer)")
        acked = []
        lock = threading.Lock()
        stop = threading.Event()
        errors = []

        def writer(base):
            i = 0
            while not stop.is_set() and i < 150:
                value = base * 100000 + i
                try:
                    db.execute(f"insert into t values ({value})")
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                with lock:
                    acked.append(value)
                i += 1

        threads = [threading.Thread(target=writer, args=(base,))
                   for base in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(10):
                db.checkpoint()
                time.sleep(0.002)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert not errors, errors
        with lock:
            acked_set = set(acked)
        db.durability.simulate_crash()
        db.close()
        catalog, report = recover(str(tmp_path))
        survived = set(
            catalog.schema("sys").table("t").columns["a"].bat.tail)
        assert acked_set <= survived, \
            f"lost {sorted(acked_set - survived)[:5]}..."
        leftovers = [name for name in os.listdir(str(tmp_path))
                     if name.endswith(".tmp") or name.endswith(".stale")]
        assert not leftovers, leftovers


def _sleep_counter(monkeypatch) -> list:
    """Record every ``time.sleep`` instead of sleeping."""
    sleeps: list = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return sleeps


class TestLoneWriter:
    """A leader waits out the commit window only with company: counted,
    not timed."""

    def test_lone_writer_commits_without_sleeping(self, tmp_path,
                                                  monkeypatch):
        db = _durable(tmp_path, commit_window_ms=2.0)
        db.execute("create table t (a integer)")
        wal = db.durability.wal
        fsyncs = wal.fsyncs
        sleeps = _sleep_counter(monkeypatch)
        inserts = 20
        for i in range(inserts):
            db.execute(f"insert into t values ({i})")
            # acknowledged only once fsynced
            assert wal.durable_lsn == wal.written_lsn
        assert sleeps == []
        assert wal.fsyncs - fsyncs == inserts
        db.close()

    def test_a_pending_record_is_company(self, tmp_path, monkeypatch):
        wal = WriteAheadLog(str(tmp_path / "wal.log"), commit_window_ms=2.0)
        sleeps = _sleep_counter(monkeypatch)
        first = wal.append("insert", {"i": 1})
        second = wal.append("insert", {"i": 2})
        wal.commit(second)
        wal.commit(first)
        assert sleeps == [0.002]
        assert (wal.fsyncs, wal.durable_lsn) == (1, second)
        wal.close()


class TestLinkedCheckpoint:
    """A checkpoint hard-links every column file whose bytes the
    previous checkpoint in its directory holds, whichever engine, open
    or replica bootstrap wrote that checkpoint."""

    def _files(self, path) -> dict:
        """``(table, column) -> file path`` from a checkpoint manifest."""
        import json

        with open(os.path.join(path, MANIFEST_FILENAME)) as handle:
            manifest = json.load(handle)
        return {(table["name"], column["name"]):
                os.path.join(path, column["file"])
                for schema in manifest["schemas"]
                for table in schema["tables"]
                for column in table["columns"]}

    def _flip(self, path) -> None:
        """Flip one bit near the end of a column file, in place."""
        with open(path, "r+b") as handle:
            last = handle.read()[-2]
            handle.seek(-2, os.SEEK_END)
            handle.write(bytes([last ^ 0x01]))

    def _seeded(self, tmp_path) -> Database:
        db = _durable(tmp_path)
        db.execute("create table t (a integer, b varchar(8))")
        db.execute("create table u (c integer, d double)")
        db.execute("insert into t values (1, 'one'), (2, 'two')")
        db.execute("insert into u values (3, 0.5), (4, null)")
        return db

    def test_unchanged_files_share_an_inode(self, tmp_path):
        db = self._seeded(tmp_path)
        first = db.checkpoint()
        assert first.linked == 0
        db.execute("insert into t values (5, 'five')")
        # sorts before t and u: every file after it is renumbered, so
        # matching must go by column, not by cNNNNN.col position
        db.execute("create table a (z integer)")
        second = db.checkpoint()
        before, after = self._files(first.path), self._files(second.path)
        assert os.path.basename(after[("u", "c")]) != \
            os.path.basename(before[("u", "c")])

        def inode(path):
            return os.stat(path).st_ino

        for key in (("u", "c"), ("u", "d")):
            assert inode(after[key]) == inode(before[key])
        for key in (("t", "a"), ("t", "b")):
            assert inode(after[key]) != inode(before[key])
        assert (second.files, second.linked) == (5, 2)
        # bytes counts every column file, linked or written
        assert second.bytes == sum(os.path.getsize(p)
                                   for p in after.values())
        db.close()

    def test_recovery_after_pruning_the_older_directory(self, tmp_path):
        db = self._seeded(tmp_path)
        db.checkpoint()
        db.execute("insert into t values (5, 'five')")
        second = db.checkpoint()
        assert second.linked == 2
        expected = _bytes(db)
        db.close()
        prune_checkpoints(str(tmp_path), keep=1)
        assert [path for _, path in list_checkpoints(str(tmp_path))] == \
            [second.path]
        catalog, report = recover(str(tmp_path))
        assert report.checkpoint_path == second.path
        assert _bytes(catalog) == expected

    def test_a_failing_link_writes_the_file(self, tmp_path, monkeypatch):
        db = self._seeded(tmp_path)
        first = db.checkpoint()
        db.execute("insert into t values (5, 'five')")
        links = []

        def no_hard_links(source, target):
            links.append(target)
            raise OSError(1, "hard links not supported")

        monkeypatch.setattr(os, "link", no_hard_links)
        second = db.checkpoint()
        assert len(links) == 2 and second.linked == 0
        before, after = self._files(first.path), self._files(second.path)
        for key, path in after.items():
            assert os.stat(path).st_nlink == 1
            assert os.stat(path).st_ino != os.stat(before[key]).st_ino
        _catalog, lsn, rows = load_checkpoint(second.path)
        assert (lsn, rows) == (second.lsn, 5)
        expected = _bytes(db)
        db.close()
        assert _bytes(recover(str(tmp_path))[0]) == expected

    def test_a_flipped_byte_in_a_linked_file_is_refused(self, tmp_path):
        db = self._seeded(tmp_path)
        first = db.checkpoint()
        db.execute("insert into t values (5, 'five')")
        second = db.checkpoint()
        db.execute("insert into u values (6, 1.5)")  # a WAL tail
        db.durability.simulate_crash()
        db.close()
        self._flip(self._files(second.path)[("u", "d")])
        # one inode, two checkpoints: both are damaged now
        for path in (first.path, second.path):
            with pytest.raises(CheckpointError, match="checksum mismatch"):
                load_checkpoint(path)
        # the WAL was truncated at the second checkpoint: falling back
        # to nothing would rebuild t and u without their rows
        with pytest.raises(CheckpointError, match="no longer has"):
            recover(str(tmp_path))
        with pytest.raises(CheckpointError):
            _durable(tmp_path)

    def test_a_damaged_unchanged_file_is_written_afresh(self, tmp_path):
        db = self._seeded(tmp_path)
        first = db.checkpoint()
        damaged = self._files(first.path)[("u", "d")]
        self._flip(damaged)  # u is unchanged, its payload still cached
        db.execute("insert into t values (5, 'five')")
        second = db.checkpoint()
        after = self._files(second.path)
        assert second.linked == 1  # u.c only
        assert os.stat(after[("u", "d")]).st_ino != os.stat(damaged).st_ino
        assert os.stat(after[("u", "c")]).st_ino == \
            os.stat(self._files(first.path)[("u", "c")]).st_ino
        load_checkpoint(second.path)
        expected = _bytes(db)
        db.close()
        prune_checkpoints(str(tmp_path), keep=1)
        catalog, report = recover(str(tmp_path))
        assert (report.checkpoint_path, report.invalid_checkpoints) == \
            (second.path, 0)
        assert _bytes(catalog) == expected

    def _shared(self, first, second) -> set:
        """The columns whose file ``second`` shares with ``first``."""
        before, after = self._files(first), self._files(second)
        return {key for key, path in after.items()
                if os.stat(path).st_ino == os.stat(before[key]).st_ino}

    def test_the_first_checkpoint_after_a_reopen_links(self, tmp_path):
        db = self._seeded(tmp_path)
        first = db.checkpoint()
        db.close()
        db = _durable(tmp_path)
        db.execute("insert into t values (5, 'five')")
        second = db.checkpoint()
        assert (second.files, second.linked) == (4, 2)
        assert self._shared(first.path, second.path) == {("u", "c"),
                                                         ("u", "d")}
        expected = _bytes(db)
        db.close()
        assert _bytes(recover(str(tmp_path))[0]) == expected

    def test_a_replica_links_after_installing_a_snapshot(self, tmp_path):
        primary = self._seeded(tmp_path / "primary")
        shipped = primary.checkpoint()
        replica = _durable(tmp_path / "replica")
        # what a bootstrap does: land the shipped files, validate, install
        installed = os.path.join(str(tmp_path / "replica"),
                                 os.path.basename(shipped.path))
        def read(name):
            with open(os.path.join(shipped.path, name), "rb") as handle:
                return name, handle.read()

        land_directory(installed, map(read, os.listdir(shipped.path)))
        catalog, lsn, _rows = load_checkpoint(installed)
        replica.install_replica_snapshot(catalog, lsn)
        replica.execute("insert into t values (5, 'five')")
        report = replica.checkpoint()
        assert report.linked == 2
        assert self._shared(installed, report.path) == {("u", "c"),
                                                        ("u", "d")}
        primary.close()
        replica.close()

    def test_a_re_encoded_unchanged_column_links(self, tmp_path):
        db = self._seeded(tmp_path)
        first = db.checkpoint()
        column = db.catalog.table("u").column("c").bat
        payload = column.to_ship_bytes()
        column._invalidate_caches()  # no change: same bytes, new object
        assert column.to_ship_bytes() is not payload
        db.execute("insert into t values (5, 'five')")
        second = db.checkpoint()
        assert second.linked == 2
        assert self._shared(first.path, second.path) == {("u", "c"),
                                                         ("u", "d")}
        db.close()

    def test_a_torn_previous_manifest_links_nothing(self, tmp_path):
        db = self._seeded(tmp_path)
        plan = FaultPlan.from_spec(
            "persist.checkpoint:partial-manifest@1.0#1", seed=1)
        with armed(plan):
            with pytest.raises(CheckpointError):
                db.checkpoint()
        db.execute("insert into t values (5, 'five')")
        report = db.checkpoint()
        assert report.linked == 0
        for path in self._files(report.path).values():
            assert os.stat(path).st_nlink == 1
        _catalog, lsn, rows = load_checkpoint(report.path)
        assert (lsn, rows) == (report.lsn, 5)
        expected = _bytes(db)
        db.close()
        catalog, recovered = recover(str(tmp_path))
        assert recovered.checkpoint_path == report.path
        assert _bytes(catalog) == expected
