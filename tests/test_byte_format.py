"""The one byte format: column bytes (``BAT.to_ship_bytes``) and WAL
payloads (``encode_payload``) round-trip every atom, and every byte
that crosses a trust boundary — ship payload, WAL file, checkpoint
directory — fails *typed* under mutation: a ``StorageError`` (or its
``WalError``/``CheckpointError`` subclass), never a
``KeyError``/``TypeError`` and never a half-valid BAT.
"""

import datetime
import json
import os
import pickle
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import (
    CheckpointError,
    StorageError,
    WalError,
)
from repro.storage import BAT, Catalog, type_by_name
from repro.storage.durable import (
    _HEADER,
    MANIFEST_FILENAME,
    WAL_FILENAME,
    WriteAheadLog,
    apply_record,
    atomic_write,
    catalog_canonical_bytes,
    decode_payload,
    encode_payload,
    load_checkpoint,
    recover,
    save_catalog,
    scan_wal,
)

_ATOMS = {
    "bit": st.booleans(),
    "int": st.integers(-2 ** 31, 2 ** 31),
    # Python ints are unbounded and so are JSON's: no 64-bit special case
    "lng": st.integers(-2 ** 90, 2 ** 90),
    "oid": st.integers(0, 2 ** 70),
    "flt": st.floats(allow_nan=True, allow_infinity=True, width=32),
    "dbl": st.floats(allow_nan=True, allow_infinity=True),
    "str": st.text(max_size=12),
    "date": st.dates(),
}


@st.composite
def _bats(draw):
    name = draw(st.sampled_from(sorted(_ATOMS)))
    tail = draw(st.lists(st.none() | _ATOMS[name], max_size=12))
    bat = BAT(type_by_name(name), hseqbase=draw(st.integers(0, 2 ** 40)))
    bat.tail = tail
    if draw(st.booleans()):
        bat.head = draw(st.lists(st.integers(0, 2 ** 40),
                                 min_size=len(tail), max_size=len(tail)))
    return bat


def _image(bat: BAT):
    """Everything a BAT is, NaN- and signed-zero-safe (reprs)."""
    return (bat.tail_type.name, bat.hseqbase, bat.head,
            [(type(v).__name__, repr(v)) for v in bat.tail])


def _well_formed(bat: BAT) -> bool:
    return (isinstance(bat.tail, list)
            and all(bat.tail_type.is_valid(v) for v in bat.tail)
            and type(bat.hseqbase) is int and bat.hseqbase >= 0
            and (bat.head is None
                 or (len(bat.head) == len(bat.tail)
                     and all(type(h) is int for h in bat.head))))


class TestColumnBytesRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(bat=_bats())
    def test_every_atom_round_trips(self, bat):
        payload = bat.to_ship_bytes()
        back = BAT.from_ship_bytes(payload)
        assert _image(back) == _image(bat)
        assert back.to_ship_bytes() == payload  # one canonical encoding

    def test_memoized_until_mutation(self):
        """A checkpoint re-encodes only the columns that changed."""
        bat = BAT(type_by_name("int"))
        bat.extend([1, 2, 3])
        first = bat.to_ship_bytes()
        assert bat.to_ship_bytes() is first
        bat.append(4)
        assert bat.to_ship_bytes() is not first

    @pytest.mark.parametrize("name", sorted(_ATOMS))
    def test_empty_and_all_nil_columns(self, name):
        for tail in ([], [None, None]):
            bat = BAT(type_by_name(name), hseqbase=7)
            bat.tail = list(tail)
            assert _image(BAT.from_ship_bytes(bat.to_ship_bytes())) \
                == _image(bat)

    def test_the_corner_values_by_hand(self):
        cases = {
            "lng": [2 ** 64, -2 ** 100, 0, None],
            "dbl": [float("nan"), float("inf"), float("-inf"), -0.0, 1e-320],
            "str": ["", "naïve", "日本語", "\x00\n\"\\", "\U0001f600"],
            "date": [datetime.date.min, datetime.date.max, None],
            "bit": [True, False, None],
        }
        for name, tail in cases.items():
            bat = BAT(type_by_name(name))
            bat.tail = tail
            bat.head = list(range(100, 100 + len(tail)))
            assert _image(BAT.from_ship_bytes(bat.to_ship_bytes())) \
                == _image(bat)

    def test_a_value_with_no_byte_form_fails_typed(self):
        bat = BAT(type_by_name("str"))
        bat.tail = [object()]
        with pytest.raises(StorageError):
            bat.to_ship_bytes()

    @pytest.mark.parametrize("document", [
        ["int", 0, None, [1, "2"]],          # str in an int tail
        ["int", 0, None, [True]],            # bool is not an int here
        ["bit", 0, None, [1]],
        ["dbl", 0, None, [1]],
        ["str", 0, None, [["nested"]]],
        ["date", 0, None, [10 ** 9]],        # ordinal out of range
        ["date", 0, None, ["2020-01-01"]],
        ["int", -1, None, []],
        ["int", 0, [0], [1, 2]],             # head/tail length mismatch
        ["int", 0, [0.5], [1]],
        ["int", 0, None, {"0": 1}],
        ["blob", 0, None, []],
        [["int"], 0, None, []],
        ["int", 0, None],
        {"type": "int"},
        7,
    ])
    def test_wrong_shapes_and_element_types_fail_typed(self, document):
        with pytest.raises(StorageError):
            BAT.from_ship_bytes(json.dumps(document).encode())


_ROW_TYPES = ["bit", "int", "lng", "oid", "flt", "dbl", "str", "date"]
_rows = st.lists(
    st.tuples(*(st.none() | _ATOMS[name] for name in _ROW_TYPES)),
    max_size=6)


def _typed_catalog() -> Catalog:
    catalog = Catalog()
    catalog.schema().create_table(
        "t", [(f"c_{name}", type_by_name(name)) for name in _ROW_TYPES])
    return catalog


class TestWalPayloadRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(rows=_rows)
    def test_replayed_rows_equal_applied_rows(self, rows):
        data = {"schema": "sys", "table": "t",
                "rows": [list(row) for row in rows]}
        direct = _typed_catalog()
        apply_record(direct, "insert", data)
        kind, decoded = decode_payload(encode_payload("insert", data))
        assert kind == "insert"
        replayed = _typed_catalog()
        apply_record(replayed, kind, decoded)
        assert catalog_canonical_bytes(replayed) == \
            catalog_canonical_bytes(direct)

    def test_dates_are_logged_as_iso_strings(self):
        payload = encode_payload(
            "insert", {"rows": [[datetime.date(2012, 8, 27)]]})
        assert json.loads(payload) == ["insert", {"rows": [["2012-08-27"]]}]

    def test_unloggable_data_fails_typed(self):
        with pytest.raises(WalError):
            encode_payload("insert", {"rows": [[object()]]})

    @pytest.mark.parametrize("payload", [
        b"", b"[]", b'["insert"]', b'[1, {}]', b'["insert", []]',
        b'["insert", {}, 3]', b'{"kind": "insert"}', b"\xff\xfe",
        b"[" * 100000,
    ])
    def test_wrong_shapes_fail_typed(self, payload):
        with pytest.raises(WalError):
            decode_payload(payload)

    @pytest.mark.parametrize("kind,data", [
        ("ddl", {}),
        ("ddl", {"op": "create", "table": "u", "columns": [["a"]]}),
        ("ddl", {"op": "create", "table": "u", "columns": 7}),
        ("ddl", {"op": "explode"}),
        ("insert", {"table": "t"}),
        ("insert", {"table": "t", "rows": 5}),
        ("insert", {"table": "t", "rows": [[1]]}),
        ("insert", {"table": "t", "rows": [[{}] * 8]}),
        ("insert", {"table": ["t"], "rows": []}),
        ("vacuum", {}),
    ])
    def test_records_of_the_wrong_shape_replay_typed(self, kind, data):
        with pytest.raises(StorageError):
            apply_record(_typed_catalog(), kind, data)


# --------------------------------------------------------------------------
# mutation fuzz
# --------------------------------------------------------------------------

@st.composite
def _mutations(draw):
    """One byte-level corruption: ``f(blob) -> blob``."""
    kind = draw(st.sampled_from(["flip", "truncate", "splice", "insert"]))
    where = draw(st.floats(0.0, 1.0, exclude_max=True))
    junk = draw(st.binary(min_size=1, max_size=8)
                | st.sampled_from([b"null", b"[", b"]", b'"', b"{}",
                                   b"1e999", b"-", b"true", b"\x80\x04"]))
    bit = draw(st.integers(0, 7))

    def mutate(blob: bytes) -> bytes:
        if not blob:
            return junk
        at = int(where * len(blob))
        if kind == "flip":
            return blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1:]
        if kind == "truncate":
            return blob[:at]
        if kind == "splice":
            return blob[:at] + junk + blob[at + len(junk):]
        return blob[:at] + junk + blob[at:]

    return mutate


_FUZZ = settings(max_examples=400, deadline=None, derandomize=True)


def _sample_bats():
    out = []
    for name, tail in [
        ("int", [1, None, -5, 2 ** 31 - 1]),
        ("lng", [2 ** 70, 0, None]),
        ("dbl", [0.5, float("nan"), None, -1e300]),
        ("str", ["alpha", None, "naïve", ""]),
        ("date", [datetime.date(1998, 12, 1), None]),
        ("bit", [True, None, False]),
    ]:
        bat = BAT(type_by_name(name), hseqbase=3)
        bat.tail = tail
        out.append(bat)
    keyed = BAT(type_by_name("oid"))
    keyed.tail = [7, 8, 9]
    keyed.head = [40, 41, 45]
    out.append(keyed)
    return out


_SHIP_PAYLOADS = [bat.to_ship_bytes() for bat in _sample_bats()]


class TestShipBytesFuzz:
    """Column bytes as checkpoints and replication bootstrap ship them."""

    @_FUZZ
    @given(index=st.integers(0, len(_SHIP_PAYLOADS) - 1),
           mutate=_mutations())
    def test_mutated_payload_decodes_well_formed_or_fails_typed(
            self, index, mutate):
        try:
            bat = BAT.from_ship_bytes(mutate(_SHIP_PAYLOADS[index]))
        except StorageError:
            return
        assert _well_formed(bat)


def _write_wal(directory: str) -> str:
    """A WAL exercising DDL, every atom, nil and a dropped table."""
    path = os.path.join(directory, WAL_FILENAME)
    wal = WriteAheadLog(path, commit_window_ms=0.0)
    records = [
        ("ddl", {"op": "create", "schema": "sys", "table": "t",
                 "columns": [["a", "int"], ["s", "str"], ["d", "date"],
                             ["x", "dbl"]]}),
        ("insert", {"schema": "sys", "table": "t", "rows": [
            [1, "one", datetime.date(2020, 1, 1), 0.5],
            [None, None, None, None]]}),
        ("ddl", {"op": "create", "schema": "sys", "table": "gone",
                 "columns": [["k", "lng"]]}),
        ("insert", {"schema": "sys", "table": "gone", "rows": [[2 ** 70]]}),
        ("ddl", {"op": "drop", "schema": "sys", "table": "gone"}),
        ("insert", {"schema": "sys", "table": "t", "rows": [
            [2, "naïve", "1999-12-31", float("inf")]]}),
    ]
    for kind, data in records:
        wal.commit(wal.append(kind, data))
    wal.close()
    return path


def _reframe(blob: bytes, mutate) -> bytes:
    """Mutate one record's *payload* and re-frame it with a matching
    length and CRC, so the damage reaches the decoder and the replay."""
    records = []
    offset = 0
    while offset < len(blob):
        lsn, length, _crc = _HEADER.unpack_from(blob, offset)
        start = offset + _HEADER.size
        records.append((lsn, blob[start:start + length]))
        offset = start + length
    victim = len(blob) % len(records)
    out = []
    for index, (lsn, payload) in enumerate(records):
        if index == victim:
            payload = mutate(payload)
        out.append(_HEADER.pack(lsn, len(payload), zlib.crc32(payload))
                   + payload)
    return b"".join(out)


class TestWalFuzz:
    @pytest.fixture(scope="class")
    def wal_blob(self, tmp_path_factory):
        path = _write_wal(str(tmp_path_factory.mktemp("wal")))
        with open(path, "rb") as handle:
            return handle.read()

    def _recover(self, tmp_path_factory, blob):
        directory = str(tmp_path_factory.mktemp("fuzz"))
        with open(os.path.join(directory, WAL_FILENAME), "wb") as handle:
            handle.write(blob)
        try:
            catalog, report = recover(directory)
        except StorageError:
            return
        # whatever survived is a prefix of the history, never garbage
        assert report.replayed_records <= 6
        for table in catalog.schema("sys").tables.values():
            for column in table.columns.values():
                assert _well_formed(column.bat)

    @_FUZZ
    @given(mutate=_mutations())
    def test_raw_damage_recovers_a_prefix_or_fails_typed(
            self, tmp_path_factory, wal_blob, mutate):
        self._recover(tmp_path_factory, mutate(wal_blob))

    @_FUZZ
    @given(mutate=_mutations())
    def test_damage_behind_a_valid_crc_fails_typed(
            self, tmp_path_factory, wal_blob, mutate):
        self._recover(tmp_path_factory, _reframe(wal_blob, mutate))


class TestCheckpointFuzz:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        catalog = Catalog()
        table = catalog.schema().create_table(
            "t", [(f"c_{bat.tail_type.name}", bat.tail_type)
                  for bat in _sample_bats()[:4]])
        table.insert_many([[1, 2 ** 70, 0.5, "one"],
                           [None, None, None, None],
                           [3, 4, float("nan"), "naïve"]])
        path = str(tmp_path_factory.mktemp("ckpt") / "saved")
        save_catalog(catalog, path)
        return {name: open(os.path.join(path, name), "rb").read()
                for name in sorted(os.listdir(path))}

    def _load(self, tmp_path_factory, files):
        directory = str(tmp_path_factory.mktemp("fuzz"))
        for name, data in files.items():
            with open(os.path.join(directory, name), "wb") as handle:
                handle.write(data)
        try:
            catalog, _lsn, _rows = load_checkpoint(directory)
        except CheckpointError:
            return
        for table in catalog.schema("sys").tables.values():
            counts = {column.bat.count()
                      for column in table.columns.values()}
            assert len(counts) <= 1
            for column in table.columns.values():
                assert _well_formed(column.bat)

    @_FUZZ
    @given(which=st.integers(0, 4), mutate=_mutations())
    def test_any_damaged_file_fails_typed(self, tmp_path_factory, files,
                                          which, mutate):
        name = sorted(files)[which]
        self._load(tmp_path_factory, dict(files, **{name: mutate(files[name])}))

    @_FUZZ
    @given(which=st.integers(0, 3), mutate=_mutations())
    def test_column_damage_behind_a_valid_crc_fails_typed(
            self, tmp_path_factory, files, which, mutate):
        """The attacker owns the directory: the manifest CRC is fixed
        up to match, so only the column decoder is left."""
        name = sorted(n for n in files if n.endswith(".col"))[which]
        damaged = mutate(files[name])
        manifest = json.loads(files[MANIFEST_FILENAME])
        for column in manifest["schemas"][0]["tables"][0]["columns"]:
            if column["file"] == name:
                column["crc32"] = zlib.crc32(damaged)
        self._load(tmp_path_factory, dict(files, **{
            name: damaged,
            MANIFEST_FILENAME: json.dumps(manifest).encode()}))


# --------------------------------------------------------------------------
# the old formats are refused, never "repaired"
# --------------------------------------------------------------------------

#: a WAL payload exactly as the format-1 writer produced it
_FORMAT_1_PAYLOAD = pickle.dumps(("insert", {"i": 1}),
                                 protocol=pickle.HIGHEST_PROTOCOL)


class TestOldFormatsAreRefused:
    def test_format_1_wal_is_not_truncated_as_torn(self, tmp_path):
        path = str(tmp_path / WAL_FILENAME)
        record = _HEADER.pack(1, len(_FORMAT_1_PAYLOAD),
                              zlib.crc32(_FORMAT_1_PAYLOAD)) \
            + _FORMAT_1_PAYLOAD
        with open(path, "wb") as handle:
            handle.write(record)
        with pytest.raises(WalError, match="format-1"):
            recover(str(tmp_path))
        with pytest.raises(WalError, match="format-1"):
            scan_wal(path)
        # the data-destroying edge: the log must still be all there
        assert os.path.getsize(path) == len(record)

    def test_format_1_checkpoint_stops_recovery(self, tmp_path):
        from repro.server.database import Database

        db = Database(wal_dir=str(tmp_path), commit_window_ms=0.0)
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1)")
        report = db.checkpoint()
        db.close()
        manifest_path = os.path.join(report.path, MANIFEST_FILENAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format"] = 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        # not "one damaged checkpoint skipped, empty database recovered"
        with pytest.raises(CheckpointError, match="format 1"):
            recover(str(tmp_path))
        with pytest.raises(CheckpointError, match="format 1"):
            Database(wal_dir=str(tmp_path), commit_window_ms=0.0)
        assert os.path.isdir(report.path)


class TestAtomicWrite:
    def test_replaces_and_leaves_no_temp_file(self, tmp_path):
        path = str(tmp_path / "epoch")
        atomic_write(path, b"1\n")
        atomic_write(path, b"2\n")
        assert open(path, "rb").read() == b"2\n"
        assert os.listdir(str(tmp_path)) == ["epoch"]

    def test_failure_keeps_the_old_contents(self, tmp_path, monkeypatch):
        path = str(tmp_path / "epoch")
        atomic_write(path, b"1\n")

        def explode(fd):
            raise OSError("disk full")

        monkeypatch.setattr("repro.storage.durable.os.fsync", explode)
        with pytest.raises(OSError):
            atomic_write(path, b"2\n")
        monkeypatch.undo()
        assert open(path, "rb").read() == b"1\n"
        assert os.listdir(str(tmp_path)) == ["epoch"]
