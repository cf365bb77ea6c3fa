"""Durable storage: write-ahead log, columnar checkpoints, recovery.

MonetDB's BATs survive restarts in a ``dbfarm``; this module gives the
reproduction the same property with the classic recipe:

* an append-only **write-ahead log** (``wal.log``) of length-prefixed,
  CRC32-checksummed records — one per DDL statement or INSERT batch —
  made durable by *group commit*: concurrent writers that land inside
  one commit window share a single ``fsync``;
* **columnar checkpoints**: one file per BAT (the memoized
  :meth:`~repro.storage.bat.BAT.to_ship_bytes` payload), plus a JSON
  manifest with per-file checksums, written to a temp directory and
  atomically renamed into place — a successful checkpoint truncates the
  WAL.  A *saved catalog* (:func:`save_catalog`, ``repro datagen``) is
  the same directory without a WAL beside it;
* **recovery** on open: load the newest checkpoint that validates
  (falling back past damaged ones), replay the WAL tail record by
  record, and stop cleanly at the first torn or corrupt record.

The correctness contract, verified end to end by the ``durability-chaos``
mix and ``tests/test_durability.py``:

* a statement is **acknowledged only after its WAL record is fsynced**
  — recovery never loses an acknowledged row;
* a statement that fails with :class:`~repro.errors.WalError` was rolled
  back in memory and **will not** be resurrected by recovery;
* torn WAL tails (crash mid-write) are detected by the CRC and length
  prefix and dropped — they were never acknowledged, so dropping them
  loses nothing.

Fault sites (driven by the seeded :class:`~repro.faults.plan.FaultPlan`):
``persist.wal`` (``torn-write``, ``fsync-loss``, ``latency``),
``persist.checkpoint`` (``partial-manifest``, ``crash-before-rename``)
and ``persist.recover`` (``corrupt-record``).  See ``docs/durability.md``
for the on-disk formats and the recovery algorithm.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import os
import re
import shutil
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from repro.errors import CatalogError, CheckpointError, StorageError, WalError
from repro.faults.plan import ACTIVE
from repro.metrics.families import (
    PERSIST_CHECKPOINTS, PERSIST_GROUP_COMMIT_BATCH, PERSIST_RECOVERED_RECORDS,
    PERSIST_RECOVERIES, PERSIST_TORN_RECORDS_DROPPED, PERSIST_WAL_APPENDS,
    PERSIST_WAL_BYTES,
)
from repro.storage.bat import BAT
from repro.storage.catalog import Catalog, Table
from repro.storage.types import type_by_name

#: WAL record header: ``<QII`` = lsn (8 bytes), payload length (4),
#: CRC32 of the payload (4).  The payload is :func:`encode_payload`'s.
_HEADER = struct.Struct("<QII")

#: On-disk names inside a WAL directory.
WAL_FILENAME = "wal.log"
MANIFEST_FILENAME = "manifest.json"
EPOCH_FILENAME = "epoch"
_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{12})$")

#: Checkpoint manifest format version.  Format 1 held columns and WAL
#: payloads in a binary layout; this build reads and writes only 2.
CHECKPOINT_FORMAT = 2

#: First byte of every format-1 WAL payload; no JSON document has it.
_FORMAT_1_MAGIC = b"\x80"

#: Checkpoint directories kept after a successful checkpoint (the new
#: one plus this many predecessors as fallback targets).
KEEP_CHECKPOINTS = 2


def _fsync_dir(path: str) -> None:
    """fsync a directory so a rename inside it survives a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_synced(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def atomic_write(path: str, data: bytes) -> None:
    """Replace the file at ``path`` with ``data``, all or nothing: temp
    file beside it, fsync, rename over ``path``, fsync the directory.
    A crash leaves the old contents or the new, never a torn mix, and a
    failed write leaves no temp file."""
    tmp = f"{path}.tmp"
    try:
        _write_synced(tmp, data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(os.path.dirname(path) or ".")


def land_directory(final: str, files: Iterable[Tuple[str, bytes]],
                   links: Optional[Dict[str, str]] = None) -> int:
    """Make ``final`` a directory holding exactly ``files``, atomically:
    the one routine behind checkpoints, :func:`save_catalog` and the
    replication bootstrap (whose ``files`` generator fetches as it goes).

    Each ``(name, data)`` is written into ``final + ".tmp"`` and
    fsynced — or, when ``links`` maps ``name`` to an existing durable
    file, hard-linked from it if its bytes still equal ``data`` (so
    damage since it was written is not carried forward but healed by
    the write); a link that fails with ``OSError`` (no such file, no
    hard links on this filesystem) falls back to the write too.  Then
    the temp directory itself is fsynced (so the renamed directory
    cannot surface after a power loss with entries missing), and it is
    renamed into place.  A directory already at ``final`` is moved
    aside to ``.stale`` for the instant of the rename and removed after
    — never deleted first.  An ``OSError`` removes the temp directory;
    a crash, injected or real, leaves it to :func:`prune_checkpoints`.
    Returns how many files were linked.
    """
    tmp = final + ".tmp"
    stale = final + ".stale"
    links = links or {}
    linked = 0
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    try:
        os.makedirs(tmp)
        for name, data in files:
            path = os.path.join(tmp, name)
            if name in links:
                try:
                    with open(links[name], "rb") as source:
                        intact = source.read() == data
                    if intact:
                        os.link(links[name], path)
                        linked += 1
                        continue
                except OSError:
                    pass
            _write_synced(path, data)
        _fsync_dir(tmp)
        if os.path.exists(final):
            shutil.rmtree(stale, ignore_errors=True)
            os.rename(final, stale)
        os.rename(tmp, final)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _fsync_dir(os.path.dirname(final) or ".")
    shutil.rmtree(stale, ignore_errors=True)
    return linked


def _iso_date(value: Any) -> str:
    if isinstance(value, datetime.date):
        return value.isoformat()
    raise TypeError(f"{type(value).__name__} has no WAL form")


def encode_payload(kind: str, data: Dict[str, Any]) -> bytes:
    """One WAL record payload: the JSON document ``[kind, data]``, dates
    as ISO strings (replay hands rows to ``Table.insert_many``, whose
    casters turn them back by column type).  Only this function and
    :func:`decode_payload` know the layout."""
    try:
        return json.dumps([kind, data], default=_iso_date,
                          separators=(",", ":")).encode("ascii")
    except (TypeError, ValueError) as exc:
        raise WalError(f"unloggable {kind} record: {exc}") from None


def decode_payload(payload: bytes) -> Tuple[str, Dict[str, Any]]:
    """Decode one WAL record payload back to ``(kind, data)``.  Corrupt
    or hostile bytes, from disk or the replication stream, fail with a
    typed :class:`WalError`; JSON yields only scalars, lists and dicts,
    so nothing in them can execute."""
    try:
        kind, data = json.loads(payload)
    except Exception as exc:
        raise WalError(f"undecodable WAL record payload: {exc}") from None
    if not isinstance(kind, str) or not isinstance(data, dict):
        raise WalError(
            f"malformed WAL record payload: [{type(kind).__name__}, "
            f"{type(data).__name__}] is not [kind, data]")
    return kind, data


# -- the replication epoch stamp -------------------------------------------

def read_epoch(wal_dir: str) -> int:
    """The replication epoch persisted in a WAL directory (0 if none)."""
    try:
        with open(os.path.join(wal_dir, EPOCH_FILENAME)) as handle:
            return int(handle.read().strip() or "0")
    except FileNotFoundError:
        return 0
    except (OSError, ValueError) as exc:
        raise WalError(f"unreadable epoch stamp in {wal_dir}: {exc}") \
            from None


def write_epoch(wal_dir: str, epoch: int) -> None:
    """Persist the replication epoch with :func:`atomic_write`.

    The stamp must never regress or tear: a promoted node's fencing
    guarantee rests on every restart observing the highest epoch this
    node ever acknowledged.
    """
    atomic_write(os.path.join(wal_dir, EPOCH_FILENAME),
                 f"{int(epoch)}\n".encode("ascii"))


# --------------------------------------------------------------------------
# the write-ahead log
# --------------------------------------------------------------------------

class WriteAheadLog:
    """An append-only, CRC-checked log with leader-based group commit.

    :meth:`append` writes a record's bytes (serialized under a lock, so
    records never interleave) and returns its LSN; :meth:`commit` blocks
    until that LSN is fsynced.  The first committer becomes the *leader*:
    it issues one ``fsync`` for the whole batch and wakes every waiter.
    Only a leader with company — another writer's record already
    pending — sleeps out the commit window first, letting concurrent
    appends pile up behind it; records that queue during a leader's
    fsync are the next leader's company.  A lone writer's commit is one
    fsync at any window.

    LSNs are assigned once and **never reused** — a record rolled back by
    a failed fsync leaves a gap, which recovery tolerates (it requires
    strictly increasing LSNs, not contiguous ones).  Failure semantics:

    * ``torn-write`` fault: a prefix of the record's bytes is written and
      the log is *poisoned* — every later append fails until recovery
      truncates the damaged tail;
    * a failed fsync (``fsync-loss`` fault or a real ``OSError``) rolls
      the file back to the durable watermark and fails every waiter in
      the batch with :class:`WalError`.
    """

    def __init__(self, path: str, commit_window_ms: float = 2.0,
                 last_lsn: int = 0) -> None:
        self.path = path
        self.commit_window = max(float(commit_window_ms), 0.0) / 1000.0
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        size = os.fstat(self._fd).st_size
        self._written_bytes = size
        self._durable_bytes = size
        self._next_lsn = int(last_lsn) + 1
        self._written_lsn = int(last_lsn)
        self._durable_lsn = int(last_lsn)
        self._cond = threading.Condition()
        self._syncing = False
        self._poisoned = False
        self._closed = False
        self._fail_next_sync = False
        self._unsynced: List[int] = []   # appended, not yet fsynced
        self._failed: set = set()        # rolled back by a failed fsync
        #: lsns whose in-memory effect is still being undone after a
        #: failed fsync; appends (and checkpoints) block on this so a
        #: later statement can never apply on top of half-rolled-back
        #: state (its undo-by-truncation would destroy the newcomer).
        self._pending_rollbacks: set = set()
        # plain counters for stats()/benchmarks (GIL-atomic increments)
        self.appends = 0
        self.fsyncs = 0
        self.synced_records = 0

    # -- introspection --------------------------------------------------

    @property
    def durable_lsn(self) -> int:
        return self._durable_lsn

    @property
    def written_lsn(self) -> int:
        return self._written_lsn

    @property
    def durable_bytes(self) -> int:
        return self._durable_bytes

    @property
    def written_bytes(self) -> int:
        return self._written_bytes

    @property
    def poisoned(self) -> bool:
        return self._poisoned

    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {
                "appends": self.appends,
                "fsyncs": self.fsyncs,
                "synced_records": self.synced_records,
                "written_bytes": self._written_bytes,
                "durable_bytes": self._durable_bytes,
                "written_lsn": self._written_lsn,
                "durable_lsn": self._durable_lsn,
            }

    # -- writing --------------------------------------------------------

    def append(self, kind: str, data: Dict[str, Any]) -> int:
        """Write one record; returns its LSN (durable only after
        :meth:`commit`).  Raises :class:`WalError` if the log is
        poisoned or a ``persist.wal:torn-write`` fault fires."""
        return self._write(kind, encode_payload(kind, data))

    def append_raw(self, lsn: int, kind: str, payload: bytes) -> int:
        """Append a record at an explicit, primary-assigned LSN.

        The replica apply path: ``payload`` is the already-encoded
        ``[kind, data]`` bytes exactly as the primary logged them, so
        the follower's WAL is byte-compatible with the primary's and
        recovery replays it identically.  ``lsn`` must sort after every
        record already written.  Durable only after :meth:`commit`.
        """
        return self._write(kind, payload, lsn)

    def _write(self, kind: str, payload: bytes,
               lsn: Optional[int] = None) -> int:
        """The one locked write: frame ``payload`` and log it at ``lsn``
        (the next local one when None — the only case faults fire in)."""
        with self.quiesced():
            if self._closed:
                raise WalError("write-ahead log is closed")
            if self._poisoned:
                raise WalError(
                    "write-ahead log poisoned by a torn write; "
                    "reopen (recover) to continue")
            fault = None
            if lsn is None:
                plan = ACTIVE.plan
                decision = (plan.decide("persist.wal", detail=kind)
                            if plan is not None else None)
                if decision is not None:
                    fault = decision.action
                    if fault == "latency":
                        time.sleep((decision.value or 1.0) / 1000.0)
                    elif fault == "fsync-loss":
                        self._fail_next_sync = True
                lsn = self._next_lsn
            elif lsn <= self._written_lsn:
                raise WalError(
                    f"replicated lsn {lsn} does not sort after the "
                    f"local tail (written lsn {self._written_lsn})")
            self._next_lsn = lsn + 1
            record = _HEADER.pack(lsn, len(payload),
                                  zlib.crc32(payload)) + payload
            whole = len(record)
            if fault == "torn-write":
                record = record[:max(1, whole // 2)]
            os.pwrite(self._fd, record, self._written_bytes)
            self._written_bytes += len(record)
            if fault == "torn-write":
                self._poisoned = True
                raise WalError(
                    f"torn write at lsn {lsn}: only {len(record)}/{whole} "
                    f"bytes reached the log")
            self._written_lsn = lsn
            self._unsynced.append(lsn)
            self.appends += 1
            PERSIST_WAL_APPENDS.labels(kind=kind).inc()
            PERSIST_WAL_BYTES.inc(whole)
            return lsn

    def commit(self, lsn: int) -> None:
        """Block until ``lsn`` is durable (group commit).

        Raises:
            WalError: the batch's fsync failed; the record's bytes were
                truncated away and the caller must roll back its
                in-memory effect.
        """
        with self._cond:
            while True:
                if lsn in self._failed:
                    self._failed.discard(lsn)
                    raise WalError(
                        f"fsync failed for the batch containing lsn "
                        f"{lsn}; record rolled back")
                if lsn <= self._durable_lsn:
                    return
                if self._closed:
                    raise WalError("write-ahead log is closed")
                if not self._syncing:
                    self._syncing = True
                    company = len(self._unsynced) > 1
                    break
                self._cond.wait()
        # a leader with company waits out the window so it can batch
        if company and self.commit_window:
            time.sleep(self.commit_window)
        with self._cond:
            target_bytes = self._written_bytes
            batch = list(self._unsynced)
            fail = self._fail_next_sync
            self._fail_next_sync = False
        try:
            if fail:
                raise OSError(5, "injected fsync loss")
            os.fsync(self._fd)
        except OSError as exc:
            with self._cond:
                os.ftruncate(self._fd, self._durable_bytes)
                self._written_bytes = self._durable_bytes
                self._written_lsn = self._durable_lsn
                self._failed.update(self._unsynced)
                self._pending_rollbacks.update(self._unsynced)
                self._unsynced.clear()
                self._failed.discard(lsn)
                self._syncing = False
                self._cond.notify_all()
            raise WalError(f"wal fsync failed: {exc}") from None
        with self._cond:
            self._durable_bytes = target_bytes
            if batch:
                self._durable_lsn = batch[-1]
                self.synced_records += len(batch)
                PERSIST_GROUP_COMMIT_BATCH.observe(float(len(batch)))
            self.fsyncs += 1
            # appends that raced the fsync stay queued for the next one
            del self._unsynced[:len(batch)]
            self._syncing = False
            self._cond.notify_all()

    def acknowledge_rollback(self, lsn: int) -> None:
        """Report that ``lsn``'s in-memory effect has been undone;
        appends resume once every failed statement has reported."""
        with self._cond:
            self._failed.discard(lsn)
            self._pending_rollbacks.discard(lsn)
            if not self._pending_rollbacks:
                self._cond.notify_all()

    @contextlib.contextmanager
    def quiesced(self) -> Iterator[None]:
        """Hold the log's lock once no failed statement is still undoing
        itself: no fsync failure can be marked between a check made
        inside and an append made inside after it."""
        with self._cond:
            while self._pending_rollbacks and not self._closed:
                self._cond.wait()
            yield

    def sync_all(self) -> None:
        """Wait until no failed statement is still undoing itself, then
        make every written record durable (checkpoint prologue)."""
        with self._cond:
            while self._syncing or self._pending_rollbacks:
                self._cond.wait()
            if not self._unsynced:
                return
            target = self._unsynced[-1]
        self.commit(target)

    # -- maintenance ----------------------------------------------------

    def _cut(self, keep_bytes: int) -> None:
        """Keep the first ``keep_bytes`` (0 or the durable prefix) and
        forget everything unsynced; clears torn-write poisoning."""
        if self._closed:
            raise WalError("write-ahead log is closed")
        os.ftruncate(self._fd, keep_bytes)
        os.fsync(self._fd)
        self._written_bytes = self._durable_bytes = keep_bytes
        self._written_lsn = self._durable_lsn
        self._unsynced.clear()
        self._poisoned = False

    def truncate(self) -> None:
        """Drop every record (post-checkpoint).  LSNs keep counting from
        where they were, so later records still sort after the
        checkpoint; a poisoned tail is cleared along with the rest."""
        with self._cond:
            self._cut(0)

    def truncate_to_durable(self) -> int:
        """Drop the written-but-unsynced tail (promotion prologue).

        Exactly what crash recovery would do to these records: they
        were never acknowledged durable, so a replica promoting itself
        cuts them off rather than promoting a tail its deposed primary
        may never have committed.  Returns the number of records
        dropped.  Clears torn-write poisoning along with the tail.
        """
        with self._cond:
            dropped = len(self._unsynced)
            self._cut(self._durable_bytes)
            self._next_lsn = self._durable_lsn + 1
            return dropped

    def reset_to(self, lsn: int) -> None:
        """Empty the log and restart LSNs after ``lsn`` (bootstrap).

        Used when a follower installs a checkpoint snapshot shipped by
        the primary: the local history before ``lsn`` is superseded by
        the snapshot, and subsequent records continue at primary LSNs.
        """
        with self._cond:
            self._cut(0)
            self._written_lsn = self._durable_lsn = int(lsn)
            self._next_lsn = int(lsn) + 1

    def simulate_crash(self, keep_bytes: Optional[int] = None) -> int:
        """Test hook: die abruptly, keeping an arbitrary prefix.

        Closes the log and truncates the file to ``keep_bytes``, clamped
        to ``[durable_bytes, written_bytes]`` — the range of states the
        OS page cache could have left behind had the process been
        SIGKILLed.  Returns the byte count actually kept.
        """
        with self._cond:
            if self._closed:
                raise WalError("write-ahead log is closed")
            low, high = self._durable_bytes, self._written_bytes
            keep = high if keep_bytes is None else max(low, min(high,
                                                                keep_bytes))
            os.ftruncate(self._fd, keep)
            os.fsync(self._fd)
            os.close(self._fd)
            self._closed = True
            self._cond.notify_all()
            return keep

    def close(self) -> None:
        """Flush and close; idempotent.  A clean close fsyncs, so every
        written (non-torn) record survives a graceful shutdown."""
        with self._cond:
            if self._closed:
                return
            try:
                if not self._poisoned:
                    try:
                        os.fsync(self._fd)
                        self._durable_bytes = self._written_bytes
                        self._durable_lsn = self._written_lsn
                        self._unsynced.clear()
                    except OSError:
                        pass
            finally:
                os.close(self._fd)
                self._closed = True
                self._cond.notify_all()


# --------------------------------------------------------------------------
# WAL scanning (recovery's read side)
# --------------------------------------------------------------------------

@dataclass
class WalScan:
    """What a WAL file held: the valid record prefix and damage info."""

    records: List[Tuple[int, str, Any]] = field(default_factory=list)
    valid_bytes: int = 0
    total_bytes: int = 0
    last_lsn: int = 0
    torn: bool = False


def _frames(blob: bytes):
    """Walk length-chained records: ``(offset, end, lsn, crc_ok,
    payload)`` for each one wholly inside ``blob``."""
    offset = 0
    while offset + _HEADER.size <= len(blob):
        lsn, length, crc = _HEADER.unpack_from(blob, offset)
        end = offset + _HEADER.size + length
        if end > len(blob):
            return
        payload = blob[offset + _HEADER.size:end]
        yield offset, end, lsn, zlib.crc32(payload) == crc, payload
        offset = end


def scan_wal(path: str) -> WalScan:
    """Parse a WAL file up to the first torn/corrupt record.

    A record is rejected (and the scan stops — everything after it is
    unreachable because record boundaries are length-chained) when its
    header is short, its payload runs past EOF, its CRC mismatches, its
    payload fails to decode, its LSN is not strictly increasing, or a
    ``persist.recover:corrupt-record`` fault fires for it.

    Raises:
        WalError: the first record is intact but format 1 — an old log,
            not a torn tail, which must never be truncated away as one.
    """
    scan = WalScan()
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return scan
    scan.total_bytes = len(blob)
    plan = ACTIVE.plan
    for offset, end, lsn, crc_ok, payload in _frames(blob):
        if lsn <= scan.last_lsn or not crc_ok:
            break
        try:
            kind, data = decode_payload(payload)
        except WalError:
            if offset == 0 and payload.startswith(_FORMAT_1_MAGIC):
                raise WalError(
                    f"{path} is an old format-1 (binary payload) WAL; "
                    f"this build reads only format "
                    f"{CHECKPOINT_FORMAT} and will not truncate it"
                ) from None
            break
        if plan is not None:
            decision = plan.decide("persist.recover", detail=str(lsn))
            if decision is not None and decision.action == "corrupt-record":
                break
        scan.records.append((lsn, kind, data))
        scan.last_lsn = lsn
        scan.valid_bytes = end
    # every way out of the loop but exhaustion leaves bytes unaccounted
    # for, and so does a trailing partial header or payload
    scan.torn = scan.valid_bytes < scan.total_bytes
    return scan


def read_wal_records(path: str, from_lsn: int, durable_bytes: int,
                     limit_bytes: int = 256 * 1024
                     ) -> Tuple[List[Tuple[int, bytes]], bool, int]:
    """The log-follower cursor: committed records past a position.

    Reads the WAL file's durable prefix (``durable_bytes`` — never the
    unsynced tail, which could still be rolled back) and returns
    ``(records, more, pending_bytes)`` where ``records`` is
    ``[(lsn, payload), ...]`` for every record with ``lsn > from_lsn``,
    raw payload bytes exactly as written, capped at roughly
    ``limit_bytes`` of payload per call.  ``more`` is True when the cap
    stopped the read early, and ``pending_bytes`` counts the payload
    bytes left beyond the cap (a follower's byte lag after applying
    this batch).  CRCs are verified — a mismatch inside the durable
    prefix means the file was damaged underneath us and raises
    :class:`WalError`.
    """
    records: List[Tuple[int, bytes]] = []
    try:
        with open(path, "rb") as handle:
            blob = handle.read(durable_bytes)
    except FileNotFoundError:
        return records, False, 0
    taken = 0
    pending = 0
    capped = False
    for offset, _end, lsn, crc_ok, payload in _frames(blob):
        if not crc_ok:
            raise WalError(
                f"CRC mismatch at offset {offset} inside the durable "
                f"prefix of {path}")
        if lsn > from_lsn:
            if capped or (records and taken + len(payload) > limit_bytes):
                capped = True
                pending += len(payload)
            else:
                records.append((lsn, payload))
                taken += len(payload)
    return records, capped, pending


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

@dataclass
class CheckpointReport:
    """What one checkpoint holds: ``files`` column files of ``bytes`` in
    all, ``linked`` of them hard links to the previous checkpoint's."""

    path: str
    lsn: int
    files: int
    rows: int
    bytes: int
    linked: int = 0


def list_checkpoints(directory: str) -> List[Tuple[int, str]]:
    """(lsn, path) of every completed checkpoint, oldest first."""
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        match = _CHECKPOINT_RE.match(name)
        if match:
            found.append((int(match.group(1)),
                          os.path.join(directory, name)))
    found.sort()
    return found


def _snapshot_files(catalog: Catalog, lsn: int
                    ) -> Tuple[List[Tuple[str, bytes]], int]:
    """A catalog as checkpoint files: ``(name, bytes)`` for one ``.col``
    per column (the BAT's memoized ship payload) and, last, the manifest
    that names, types, counts and checksums them.  Also returns the
    total row count."""
    files: List[Tuple[str, bytes]] = []
    manifest: Dict[str, Any] = {"format": CHECKPOINT_FORMAT, "lsn": lsn,
                                "schemas": []}
    total_rows = 0
    for schema_name in sorted(catalog.schemas):
        schema = catalog.schemas[schema_name]
        schema_doc: Dict[str, Any] = {"name": schema.name, "tables": []}
        for table_name in sorted(schema.tables):
            table = schema.tables[table_name]
            table_doc: Dict[str, Any] = {"name": table.name, "columns": []}
            for column in table.columns.values():
                payload = column.bat.to_ship_bytes()
                file_name = f"c{len(files):05d}.col"
                files.append((file_name, payload))
                table_doc["columns"].append({
                    "name": column.name,
                    "type": column.mal_type.name,
                    "file": file_name,
                    "rows": column.bat.count(),
                    "crc32": zlib.crc32(payload),
                })
            total_rows += table.row_count()
            schema_doc["tables"].append(table_doc)
        manifest["schemas"].append(schema_doc)
    files.append((MANIFEST_FILENAME, json.dumps(manifest).encode("ascii")))
    return files, total_rows


def _column_files(manifest: bytes) -> Dict[Any, Tuple[Any, str]]:
    """``(schema, table, column) -> (crc32, file)`` for every column a
    checkpoint manifest lists."""
    return {(schema["name"], table["name"], column["name"]):
            (column["crc32"], column["file"])
            for schema in json.loads(manifest)["schemas"]
            for table in schema["tables"] for column in table["columns"]}


def _unchanged(directory: str, lsn: int, manifest: bytes) -> Dict[str, str]:
    """Link candidates for a new checkpoint with ``manifest``: each of
    its column files whose column the newest checkpoint below ``lsn``
    lists with the same CRC, mapped to that older file.  There are none
    when no checkpoint lies below ``lsn`` or its manifest is missing or
    unreadable; :func:`land_directory` checks each byte for byte."""
    older = [path for at, path in list_checkpoints(directory) if at < lsn]
    try:
        with open(os.path.join(older[-1], MANIFEST_FILENAME), "rb") as handle:
            then = _column_files(handle.read())
        return {file: os.path.join(older[-1], then[key][1])
                for key, (crc, file) in _column_files(manifest).items()
                if key in then and then[key][0] == crc}
    except (IndexError, OSError, KeyError, TypeError, ValueError,
            AttributeError):
        return {}


def _crash_after(files: List[Tuple[str, bytes]], name: str):
    """``files``, then the ``crash-before-rename`` fault: everything is
    written and fsynced, and the temp directory is abandoned."""
    yield from files
    raise CheckpointError(
        f"injected crash before renaming {name}.tmp into place")


def write_checkpoint(catalog: Catalog, directory: str,
                     lsn: int) -> CheckpointReport:
    """Write a checkpoint of ``catalog`` as of WAL position ``lsn``:
    :func:`_snapshot_files` landed by :func:`land_directory`.

    A column whose bytes the previous checkpoint already holds is
    unchanged since, and its file is hard-linked instead of written
    again (:func:`_unchanged`), whoever wrote that checkpoint.

    A valid checkpoint already present at this LSN is reused as-is —
    same LSN means same durable prefix, and replacing it would open a
    crash window with no checkpoint while its WAL coverage is already
    truncated; only a damaged one is replaced, and never by links into
    it.  Injected faults: ``partial-manifest`` truncates the manifest
    *and still renames* (recovery must detect and fall back);
    ``crash-before-rename`` abandons the temp directory.
    """
    name = f"checkpoint-{lsn:012d}"
    final = os.path.join(directory, name)
    if os.path.exists(final):
        try:
            _, _, existing_rows = load_checkpoint(final)
        except CheckpointError:
            pass
        else:
            sizes = [os.path.getsize(os.path.join(final, entry))
                     for entry in os.listdir(final)
                     if entry.endswith(".col")]
            return CheckpointReport(path=final, lsn=lsn, files=len(sizes),
                                    rows=existing_rows, bytes=sum(sizes))
    plan = ACTIVE.plan
    decision = (plan.decide("persist.checkpoint", detail=name)
                if plan is not None else None)
    fault = decision.action if decision is not None else None
    files, total_rows = _snapshot_files(catalog, lsn)
    columns = files[:-1]
    links = _unchanged(directory, lsn, files[-1][1])
    if fault == "partial-manifest":
        text = files[-1][1]
        files[-1] = (MANIFEST_FILENAME, text[:max(1, len(text) // 2)])
    linked = land_directory(final, _crash_after(files, name)
                            if fault == "crash-before-rename" else files,
                            links)
    if fault == "partial-manifest":
        raise CheckpointError(
            f"checkpoint {name} renamed with a torn manifest")
    return CheckpointReport(path=final, lsn=lsn, files=len(columns),
                            rows=total_rows,
                            bytes=sum(len(data) for _, data in columns),
                            linked=linked)


class _UnsupportedFormat(CheckpointError):
    """An intact manifest of a format this build does not read (the
    old format 1, or a newer one).  Unlike damage, recovery must not
    fall back past it: the data is there, in another layout."""


def load_checkpoint(path: str) -> Tuple[Catalog, int, int]:
    """Rebuild a catalog from a checkpoint directory.

    Returns ``(catalog, lsn, rows)``.  Raises :class:`CheckpointError`
    on any damage: unreadable/truncated manifest, wrong format version,
    missing column file, CRC mismatch, an undecodable column, ragged
    columns, or a row-count or type mismatch.
    """
    catalog = Catalog()
    total_rows = 0
    try:
        with open(os.path.join(path, MANIFEST_FILENAME), "rb") as handle:
            manifest = json.loads(handle.read())
        if manifest["format"] != CHECKPOINT_FORMAT:
            raise _UnsupportedFormat(
                f"{path} is checkpoint format {manifest['format']!r}; "
                f"this build reads only format {CHECKPOINT_FORMAT} "
                f"(format 1 is the old binary layout)")
        lsn = int(manifest["lsn"])
        for schema_doc in manifest["schemas"]:
            name = schema_doc["name"]
            if name.lower() in catalog.schemas:
                schema = catalog.schema(name)
            else:
                schema = catalog.create_schema(name)
            for table_doc in schema_doc["tables"]:
                spec = [(c["name"], type_by_name(c["type"]))
                        for c in table_doc["columns"]]
                table = schema.create_table(table_doc["name"], spec)
                for column_doc, column in zip(table_doc["columns"],
                                              table.columns.values()):
                    file_path = os.path.join(path, column_doc["file"])
                    with open(file_path, "rb") as handle:
                        payload = handle.read()
                    if zlib.crc32(payload) != column_doc["crc32"]:
                        raise CheckpointError(
                            f"checksum mismatch in {file_path}")
                    bat = BAT.from_ship_bytes(payload)
                    if bat.count() != column_doc["rows"] or \
                            bat.tail_type.name != column_doc["type"]:
                        raise CheckpointError(
                            f"column file {file_path} does not match "
                            f"its manifest entry")
                    column.bat = bat
                if len({c["rows"] for c in table_doc["columns"]}) > 1:
                    raise CheckpointError(
                        f"table {table_doc['name']!r} in {path} has "
                        f"ragged columns")
                total_rows += table.row_count()
    except CheckpointError:
        raise
    except (OSError, KeyError, TypeError, ValueError, AttributeError,
            RecursionError, StorageError) as exc:
        raise CheckpointError(
            f"damaged checkpoint {path}: {type(exc).__name__}: "
            f"{exc}") from None
    return catalog, lsn, total_rows


def save_catalog(catalog: Catalog, path: str) -> int:
    """Save ``catalog`` as the checkpoint directory ``path`` (LSN 0, no
    WAL beside it); returns total rows.  Atomic like any checkpoint:
    a crash mid-save leaves the previous directory intact."""
    files, total_rows = _snapshot_files(catalog, 0)
    land_directory(path, files)
    return total_rows


def load_catalog(path: str) -> Catalog:
    """Rebuild a catalog saved by :func:`save_catalog` (or point it at
    any checkpoint directory); raises :class:`CheckpointError`."""
    return load_checkpoint(path)[0]


def prune_checkpoints(directory: str, keep: int = KEEP_CHECKPOINTS) -> int:
    """Delete all but the newest ``keep`` checkpoints (plus any
    leftover ``.tmp``/``.stale`` directories); returns how many were
    removed."""
    removed = 0
    checkpoints = list_checkpoints(directory)
    for _, path in checkpoints[:-keep] if keep else checkpoints:
        shutil.rmtree(path, ignore_errors=True)
        removed += 1
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return removed
    for name in names:
        for suffix in (".tmp", ".stale"):
            if name.endswith(suffix) and \
                    _CHECKPOINT_RE.match(name[:-len(suffix)]):
                shutil.rmtree(os.path.join(directory, name),
                              ignore_errors=True)
                removed += 1
    return removed


# --------------------------------------------------------------------------
# replay and recovery
# --------------------------------------------------------------------------

def _bind(tables: Dict[str, Table], key: str, table: Optional[Table]) -> int:
    """Name ``table`` ``key``, or no table when None: a CREATE, a DROP
    and each one's undo."""
    if table is None:
        tables.pop(key, None)
    else:
        tables[key] = table
    return 0


def prepare_record(catalog: Catalog, kind: str, data: Dict[str, Any]
                   ) -> Tuple[Callable[[], int], Callable[[], None]]:
    """Check one record against ``catalog``; returns ``(apply, undo)``.

    Every check that can fail runs here and changes nothing, so
    ``apply()`` (which returns the rows it inserted) cannot fail, and
    ``undo()`` exactly reverses it.  A record that decodes but does not
    have its kind's shape raises :class:`WalError`.
    """
    try:
        if kind == "ddl":
            op = data["op"]
            schema = catalog.schema(data.get("schema"))
            name = data["table"]
            tables, key = schema.tables, name.lower()
            if op == "create":
                if key in tables:
                    raise CatalogError(
                        f"table {name!r} already exists in {schema.name!r}")
                before, after = None, Table(
                    name, [(column, type_by_name(type_name))
                           for column, type_name in data["columns"]])
            elif op == "drop":
                before, after = schema.table(name), None
            else:
                raise StorageError(f"unknown DDL op {op!r} in WAL record")
            return (lambda: _bind(tables, key, after),
                    lambda: _bind(tables, key, before))
        if kind == "insert":
            table = catalog.table(data["table"], data.get("schema"))
            rows = data["rows"]
            table.cast_columns(rows)
            columns = table.columns.values()
            lengths: List[int] = []

            def apply() -> int:
                lengths[:] = [column.bat.count() for column in columns]
                return table.insert_many(rows)

            def undo() -> None:
                # truncate-to-length: idempotent and safe under any
                # interleaving of same-batch rollbacks
                for column, length in zip(columns, lengths):
                    column.bat.truncate(length)

            return apply, undo
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise WalError(
            f"malformed {kind} record: {type(exc).__name__}: {exc}") \
            from None
    raise StorageError(f"unknown WAL record kind {kind!r}")


def apply_record(catalog: Catalog, kind: str, data: Dict[str, Any]) -> int:
    """Check and apply one record (recovery, a database without a WAL);
    returns rows inserted.  A logged record passed the same check, so
    replaying a valid WAL onto its checkpoint cannot fail."""
    return prepare_record(catalog, kind, data)[0]()


@dataclass
class RecoveryReport:
    """What one recovery pass found and rebuilt."""

    wal_dir: str
    checkpoint_path: Optional[str] = None
    checkpoint_lsn: int = 0
    checkpoint_rows: int = 0
    invalid_checkpoints: int = 0
    replayed_records: int = 0
    replayed_rows: int = 0
    torn_bytes_dropped: int = 0
    torn: bool = False
    last_lsn: int = 0

    @property
    def outcome(self) -> str:
        return "torn" if self.torn else "clean"

    @property
    def recovered_anything(self) -> bool:
        """True when the directory held prior state (checkpoint, WAL
        records, or damage evidence) — as opposed to a fresh database."""
        return (self.checkpoint_path is not None
                or self.invalid_checkpoints > 0
                or self.replayed_records > 0 or self.torn)

    def describe(self) -> str:
        lines = [f"recovery of {self.wal_dir}: {self.outcome}"]
        if self.checkpoint_path is not None:
            lines.append(
                f"  checkpoint {os.path.basename(self.checkpoint_path)}"
                f" (lsn {self.checkpoint_lsn}, "
                f"{self.checkpoint_rows} rows)")
        else:
            lines.append("  no checkpoint (fresh or WAL-only state)")
        if self.invalid_checkpoints:
            lines.append(
                f"  skipped {self.invalid_checkpoints} damaged "
                f"checkpoint(s)")
        lines.append(
            f"  replayed {self.replayed_records} WAL record(s), "
            f"{self.replayed_rows} row(s), up to lsn {self.last_lsn}")
        if self.torn:
            lines.append(
                f"  dropped a torn/corrupt WAL tail "
                f"({self.torn_bytes_dropped} byte(s); never "
                f"acknowledged)")
        return "\n".join(lines)


def recover(wal_dir: str) -> Tuple[Catalog, RecoveryReport]:
    """Rebuild the catalog a WAL directory describes.

    Loads the newest checkpoint that validates (skipping damaged ones),
    replays every WAL record with an LSN past the checkpoint, stops at
    the first torn/corrupt record, and truncates the WAL file to its
    valid prefix so subsequent appends continue cleanly.

    Raises:
        CheckpointError: a skipped checkpoint's history is gone — the
            WAL holds no record at or below its LSN past the checkpoint
            loaded instead, because a successful checkpoint truncated
            it.  Replaying what is left would yield a catalog missing
            acknowledged rows.
    """
    os.makedirs(wal_dir, exist_ok=True)
    report = RecoveryReport(wal_dir=wal_dir)
    catalog: Optional[Catalog] = None
    skipped: Optional[int] = None  # the oldest damaged checkpoint's lsn
    for lsn, path in reversed(list_checkpoints(wal_dir)):
        try:
            catalog, ckpt_lsn, rows = load_checkpoint(path)
        except _UnsupportedFormat:
            raise
        except CheckpointError:
            report.invalid_checkpoints += 1
            skipped = lsn
            continue
        report.checkpoint_path = path
        report.checkpoint_lsn = ckpt_lsn
        report.checkpoint_rows = rows
        break
    if catalog is None:
        catalog = Catalog()
    wal_path = os.path.join(wal_dir, WAL_FILENAME)
    scan = scan_wal(wal_path)
    if skipped is not None:
        # A checkpoint that failed as it was written (a torn manifest)
        # never truncated the WAL, which still holds the record at its
        # lsn; one that failed later may have, and then no fallback
        # target plus the WAL rebuilds what it held.
        first = next((lsn for lsn, _, _ in scan.records
                      if lsn > report.checkpoint_lsn), None)
        if first is None or first > skipped:
            raise CheckpointError(
                f"damaged checkpoint-{skipped:012d} in {wal_dir} held "
                f"history the WAL no longer has; refusing to rebuild a "
                f"catalog without it")
    for lsn, kind, data in scan.records:
        if lsn <= report.checkpoint_lsn:
            continue
        report.replayed_rows += apply_record(catalog, kind, data)
        report.replayed_records += 1
        PERSIST_RECOVERED_RECORDS.labels(kind=kind).inc()
    report.last_lsn = max(report.checkpoint_lsn, scan.last_lsn)
    report.torn = scan.torn
    if scan.torn:
        report.torn_bytes_dropped = scan.total_bytes - scan.valid_bytes
        PERSIST_TORN_RECORDS_DROPPED.inc()
        with open(wal_path, "r+b") as handle:
            handle.truncate(scan.valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())
    PERSIST_RECOVERIES.labels(outcome=report.outcome).inc()
    return catalog, report


# --------------------------------------------------------------------------
# the engine: WAL + checkpoints behind one write pipeline
# --------------------------------------------------------------------------

class DurableEngine:
    """Ties a catalog to its WAL directory.

    Opening the engine *is* recovery: the constructor rebuilds the
    catalog from the newest valid checkpoint plus the WAL tail (see
    :attr:`report`) and reopens the log where it left off.

    The write pipeline (:meth:`log`, and :meth:`log_shipped` for a
    replica's records) is the durability contract's enforcement point::

        with order_lock:  apply, undo = prepare_record(catalog, record)
                          lsn = wal.append(record); apply()
        wal.commit(lsn)            # group-commit fsync, outside the lock
        on WalError:  undo(); wal.acknowledge_rollback(lsn); re-raise

    Checking, appending and applying under one lock keeps the WAL's
    record order identical to the in-memory apply order, and checks each
    record against the catalog it will be replayed onto; committing
    outside it is what lets concurrent writers share an fsync.  Undos
    deliberately run *without* the order lock: a failed fsync makes the
    WAL block every new append (and checkpoint) until each failed
    statement acknowledges its rollback, so the only concurrent catalog
    mutators during an undo are the other undoers of the same batch —
    whose truncate-to-length semantics commute — and taking the lock
    would deadlock against an appender already blocked inside it.  A
    statement is acknowledged (returns) only after
    :meth:`~WriteAheadLog.commit`, and a failed commit rolls the
    in-memory effect back — so the catalog observable to readers only
    ever runs *ahead* of disk by statements whose fate is still
    undecided, never behind it.
    """

    def __init__(self, wal_dir: str, commit_window_ms: float = 2.0,
                 checkpoint_interval: int = 0) -> None:
        os.makedirs(wal_dir, exist_ok=True)
        self.wal_dir = wal_dir
        self.checkpoint_interval = max(int(checkpoint_interval), 0)
        self.order_lock = threading.Lock()
        self.catalog, self.report = recover(wal_dir)
        self.wal = WriteAheadLog(os.path.join(wal_dir, WAL_FILENAME),
                                 commit_window_ms=commit_window_ms,
                                 last_lsn=self.report.last_lsn)
        self._since_checkpoint = 0
        #: WAL position of the newest on-disk checkpoint — records at or
        #: below this are only reachable through the checkpoint (the WAL
        #: was truncated), so a follower behind it needs a bootstrap.
        self.checkpoint_lsn = self.report.checkpoint_lsn
        #: Replication epoch persisted in the WAL dir (0 = never part of
        #: a replicated topology, or the first primary of one).
        self.epoch = read_epoch(wal_dir)

    # -- the write pipeline ---------------------------------------------

    def log(self, kind: str, data: Dict[str, Any]) -> int:
        """Durably execute one statement's record; returns the rows it
        inserted once the record is fsynced.

        The check (:func:`prepare_record`) and the append share the
        log's quiet moment, so no check is passed by what a failed fsync
        is taking back.  The apply comes after the append: a failed
        fsync holds appends until its statements have undone themselves,
        and an INSERT's truncating undo would cut the rows of a
        statement that applied before its append waited.
        """
        with self.order_lock:
            with self.wal.quiesced():
                apply, undo = prepare_record(self.catalog, kind, data)
                lsn = self.wal.append(kind, data)
            result = apply()
        self._commit([(lsn, undo)])
        return result

    def log_shipped(self, records: Iterable[Tuple[int, bytes]]
                    ) -> List[str]:
        """:meth:`log` for a primary's ``(lsn, payload)`` records, each
        appended byte for byte at its LSN unless it is a duplicate
        delivery; returns the kinds applied."""
        logged: List[Tuple[int, Callable[[], None]]] = []
        kinds: List[str] = []
        with self.order_lock:
            for lsn, payload in records:
                if lsn <= self.wal.written_lsn:
                    continue
                kind, data = decode_payload(payload)
                apply, undo = prepare_record(self.catalog, kind, data)
                self.wal.append_raw(lsn, kind, payload)
                apply()
                logged.append((lsn, undo))
                kinds.append(kind)
        if logged:
            self._commit(logged)
        return kinds

    def _commit(self, logged: List[Tuple[int, Callable[[], None]]]
                ) -> None:
        """Wait for the newest ``(lsn, undo)`` to be fsynced, then
        :meth:`maybe_checkpoint`; on :class:`WalError` undo each, newest
        first, and re-raise."""
        try:
            self.wal.commit(logged[-1][0])
        except WalError:
            for lsn, undo in reversed(logged):
                try:
                    undo()
                finally:
                    self.wal.acknowledge_rollback(lsn)
            raise
        self._since_checkpoint += len(logged)
        self.maybe_checkpoint()

    # -- checkpointing ---------------------------------------------------

    def maybe_checkpoint(self) -> Optional[CheckpointReport]:
        """Checkpoint when the configured record interval has elapsed.

        A failed checkpoint (injected fault or real I/O error) returns
        None: the records before it are already fsynced to the WAL, and
        an unharvested WAL only means a longer replay on the next open.
        """
        if not self.checkpoint_interval:
            return None
        if self._since_checkpoint < self.checkpoint_interval:
            return None
        try:
            return self.checkpoint()
        except (CheckpointError, WalError):
            return None

    def checkpoint(self) -> CheckpointReport:
        """Write a checkpoint of the current catalog, then truncate the
        WAL.  Holding ``order_lock`` across ``sync_all`` + write means
        the snapshot equals the durable prefix exactly — no statement
        can apply between the fsync and the copy."""
        with self.order_lock:
            try:
                self.wal.sync_all()
                report = write_checkpoint(self.catalog, self.wal_dir,
                                          self.wal.durable_lsn)
            except (CheckpointError, WalError):
                PERSIST_CHECKPOINTS.labels(outcome="failed").inc()
                raise
            PERSIST_CHECKPOINTS.labels(outcome="ok").inc()
            self.wal.truncate()
            self._since_checkpoint = 0
            self.checkpoint_lsn = report.lsn
            prune_checkpoints(self.wal_dir)
            return report

    def adopt(self, catalog: Catalog) -> CheckpointReport:
        """Take ownership of an externally built catalog (e.g. the data
        generator's) and immediately checkpoint it, so the adopted
        baseline is durable before the first statement runs."""
        self.catalog = catalog
        return self.checkpoint()

    def install_snapshot(self, catalog: Catalog, lsn: int) -> None:
        """Adopt a bootstrap snapshot a primary shipped as of ``lsn``.

        The caller must already have landed a valid on-disk checkpoint
        at ``lsn`` in this WAL directory (the replication bootstrap
        writes the shipped column files through the normal tmp + rename
        path and validates them with :func:`load_checkpoint`) — this
        method only swaps the catalog in and restarts the WAL after
        ``lsn``, so a crash at any point recovers to either the old or
        the new snapshot, never a mix.
        """
        with self.order_lock:
            self.catalog = catalog
            self.wal.reset_to(lsn)
            self.checkpoint_lsn = lsn
            self._since_checkpoint = 0
            prune_checkpoints(self.wal_dir)

    # -- replication epochs ----------------------------------------------

    def adopt_epoch(self, epoch: int) -> int:
        """Persist ``epoch`` if it is newer than ours; returns the
        current epoch.  Epochs never regress."""
        if epoch > self.epoch:
            write_epoch(self.wal_dir, epoch)
            self.epoch = epoch
        return self.epoch

    def bump_epoch(self, above: int = 0) -> int:
        """Mint and persist a new epoch strictly greater than both our
        own and ``above`` (the highest epoch learned from peers) —
        promotion's fencing token."""
        new_epoch = max(self.epoch, above) + 1
        write_epoch(self.wal_dir, new_epoch)
        self.epoch = new_epoch
        return new_epoch

    # -- lifecycle -------------------------------------------------------

    def simulate_crash(self, keep_bytes: Optional[int] = None) -> int:
        """Test hook: crash the WAL, keeping ``keep_bytes`` of the file
        (clamped to the durable..written range).  The engine is dead
        afterwards; build a new one on the same directory to recover."""
        return self.wal.simulate_crash(keep_bytes)

    def close(self) -> None:
        """Flush and close the WAL; idempotent."""
        self.wal.close()


# --------------------------------------------------------------------------
# canonical catalog bytes (the chaos harness's equality witness)
# --------------------------------------------------------------------------

def catalog_canonical_bytes(catalog: Catalog) -> bytes:
    """A canonical byte serialization of a catalog's full contents:
    the files it would checkpoint to, concatenated.

    :func:`_snapshot_files` visits schemas and tables in sorted-name
    order (so dict insertion order — which replay does not preserve for
    re-created tables — cannot leak in) and columns in definition
    order.  Two catalogs with identical data produce identical bytes;
    the ``durability-chaos`` harness compares these across
    crash/recover cycles.
    """
    return b"".join(data for _, data in _snapshot_files(catalog, 0)[0])
