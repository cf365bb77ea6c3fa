"""The wire protocol between MClient and Mserver: JSON lines, and packed
column frames behind the one response that carries a result.

One JSON object per line in each direction.  Requests carry an ``op``:

===========  ==========================================================
``ping``     liveness check → ``{"ok": true}``
``query``    execute SQL → rows / ddl / insert outcome, plus the
             server-assigned ``query_id``; accepts optional
             ``deadline_s`` (server-side wall-clock budget) and
             ``max_rss_bytes`` (simulated-RSS budget).  A ``rows``
             outcome is a header line followed by one frame of raw
             bytes per column (below)
``cancel``   cancel a running query by ``query_id`` → ``{"ok": true,
             "cancelled": bool, "state": ...}``
``queries``  list queued/running queries (id, sql, state, elapsed) and
             the recently finished ones
``explain``  optimized MAL plan text for a SELECT
``dot``      optimized plan's dot file for a SELECT
``set``      per-session settings: ``pipeline`` (optimizer pipe name),
             ``workers`` — applied at execute time, the shared
             database is never mutated; any other key is an error
``profiler`` stream trace events (and dot files) to a UDP endpoint;
             carries optional filter options (statuses, modules,
             min_usec)
``stats``    engine metrics snapshot → ``{"ok": true, "metrics":
             {...}}`` — every family in the ``repro.metrics`` registry
             (see ``docs/metrics_reference.md``)
``subscribe``  attach to the live trace broadcast hub; optional
             ``from_seq`` resumes from a sequence number, ``query_id``
             narrows to one query, ``buffer`` bounds the server-side
             queue.  The connection then interleaves entry lines
             (objects carrying ``seq``) with responses to pipelined
             requests — see ``docs/streaming.md``
``unsubscribe``  detach from the hub → delivery summary (``delivered``,
             ``dropped``, ``missed``)
``quit``     close the connection
``repl.status``  replication snapshot → role, epoch, durable LSN,
             primary address, lag (see ``docs/operations.md`` §11)
``repl.sync``  follower pull: committed WAL records past ``from_lsn``
             (or a checkpoint bootstrap for lagging followers),
             fenced by ``epoch``
``repl.promote``  promote this server to primary: bump the epoch and
             truncate any unacked divergent tail
===========  ==========================================================

Error responses are ``{"ok": false, "error": msg}`` plus an optional
``code`` that transports the lifecycle error *type* across the wire
(``cancelled``, ``deadline``, ``rss-budget``, ``overloaded``) and a
``query_id`` when the error concerns one query — so a cancelled query
surfaces client-side as a typed
:class:`~repro.errors.QueryCancelledError`, not a generic failure.

Result frames.  A ``kind == "rows"`` response is the only message that
is more than its line.  The line is the header: ``ok``, ``kind``,
``columns``, ``affected``, ``query_id``, ``row_count`` and ``frames``,
one ``[codec, byte length]`` pair per column; exactly that many raw
bytes follow it, one frame per column in column order, and the next
line starts right behind the last frame.  The codec is chosen by what
the column *holds*, never by its declared SQL type, so every cell
arrives equal in value and in type:

=======  ============================================================
``"q"``  every value an ``int`` that fits 64 bits: signed 64-bit
         little-endian integers, 8 bytes a row
``"d"``  every value a ``float``: IEEE 754 doubles, little-endian, 8
         bytes a row (``nan``, ``inf`` and ``-0.0`` keep their bits)
``"i"``  every value a ``datetime.date``: proleptic Gregorian ordinals
         as signed 32-bit little-endian integers, 4 bytes a row
``"j"``  anything else (strings, booleans, nils, integers beyond 64
         bits, a column that mixes types): one JSON array of
         ``row_count`` cells; a date inside it is ``{"date": ordinal}``
=======  ============================================================

A packed frame's length must equal ``row_count`` times its item size
and a JSON frame must hold ``row_count`` cells of the types above;
:func:`decode_rows` refuses anything else with a typed
:class:`~repro.errors.ServerError`.  Only :func:`encode_rows` and
:func:`decode_rows` know this layout.

This replaces MonetDB's binary MAPI protocol; the substitution is
documented in DESIGN.md.
"""

from __future__ import annotations

import datetime
import json
import sys
from array import array
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import (
    QueryBudgetError,
    QueryCancelledError,
    QueryDeadlineError,
    ReadOnlyReplicaError,
    ReplicationFencedError,
    ReproError,
    ServerError,
    ServerOverloadedError,
    WorkerCrashError,
)

#: Every request verb the server dispatches on.  ``docs/streaming.md``
#: must document each of these — the docs-consistency gate
#: (``tests/test_docs.py``) checks the doc against this tuple.
VERBS = (
    "ping", "query", "cancel", "queries", "explain", "dot", "set",
    "profiler", "stats", "subscribe", "unsubscribe", "quit",
    "repl.status", "repl.sync", "repl.promote",
)

#: Upper bound on one protocol line.  A peer that buffers more than
#: this without seeing a newline is framing garbage (or hostile); the
#: server answers with an error and drops the connection.
MAX_MESSAGE_BYTES = 1 << 20

#: Upper bound on a session's ``set`` ``workers``.  That number is both
#: the mitosis partition count and the workers the list schedule
#: models, so an unbounded one lets a peer make one query arbitrarily
#: expensive.
MAX_WORKERS = 64


def checked_workers(value: Any) -> int:
    """``value`` as a worker count: a typed :class:`ServerError` outside
    1 to :data:`MAX_WORKERS`, wherever the count comes from — a session's
    ``set``, ``Database(workers=…)`` or ``serve --workers``."""
    workers = int(value)
    if not 1 <= workers <= MAX_WORKERS:
        raise ServerError(f"workers must be between 1 and {MAX_WORKERS}")
    return workers


#: Built once: ``json.dumps`` with any non-default argument builds an
#: encoder per call, which a one-row response would feel.
_encode_line = json.JSONEncoder(separators=(",", ":")).encode


def encode_message(message: Dict[str, Any],
                   frames: Sequence[bytes] = ()) -> bytes:
    """Serialise one protocol message: its line, then the column frames
    a ``rows`` header announces."""
    line = (_encode_line(message) + "\n").encode("utf-8")
    return b"".join((line, *frames)) if frames else line


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line.

    Raises:
        ServerError: on malformed JSON or a non-object payload.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an integer of more digits than int() takes,
        # brackets nested past the recursion limit
        raise ServerError(f"bad protocol line: {exc}") from None
    if not isinstance(message, dict):
        raise ServerError("protocol message must be a JSON object")
    return message


#: Wire code ↔ typed lifecycle error.  Order matters for encoding:
#: subclasses before their bases so the most precise code wins.
_ERROR_CODES = (
    ("deadline", QueryDeadlineError),
    ("rss-budget", QueryBudgetError),
    ("cancelled", QueryCancelledError),
    ("overloaded", ServerOverloadedError),
    ("worker-crash", WorkerCrashError),
    ("read-only-replica", ReadOnlyReplicaError),
    ("repl-fenced", ReplicationFencedError),
)
_CODE_TO_ERROR = {code: cls for code, cls in _ERROR_CODES}

#: The wire error codes, in encoding-priority order — the docs gate
#: checks ``docs/streaming.md`` documents every one of these.
ERROR_CODES = tuple(code for code, _cls in _ERROR_CODES)


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """Encode an exception as an error response, keeping its type.

    Lifecycle errors carry a ``code`` (and ``query_id`` when set) so
    the client can re-raise the same class; anything else becomes a
    plain ``{"ok": false, "error": ...}``.
    """
    payload: Dict[str, Any] = {"ok": False, "error": str(exc)}
    for code, cls in _ERROR_CODES:
        if isinstance(exc, cls):
            payload["code"] = code
            break
    query_id = getattr(exc, "query_id", "")
    if query_id:
        payload["query_id"] = query_id
    primary = getattr(exc, "primary", "")
    if primary:
        payload["primary"] = primary
    return payload


def error_from_payload(payload: Dict[str, Any]) -> ReproError:
    """Rebuild the typed error an ``{"ok": false}`` response encodes."""
    message = payload.get("error", "request failed")
    cls = _CODE_TO_ERROR.get(payload.get("code", ""))
    if cls is None:
        return ServerError(message)
    if issubclass(cls, QueryCancelledError):
        return cls(message, query_id=payload.get("query_id", ""))
    if issubclass(cls, ReadOnlyReplicaError):
        return cls(message, primary=payload.get("primary", ""))
    return cls(message)


#: Packed codecs: the ``array`` typecode that is the codec tag, by the
#: one type a column holds, and the bytes an item has on the wire.
_DATE = "i"
_PACKED = {int: "q", float: "d", datetime.date: _DATE}
_ITEM_BYTES = {"q": 8, "d": 8, _DATE: 4}
_JSON = "j"
_CELL_TYPES = {int, float, str, bool, type(None), datetime.date}
_SWAP = sys.byteorder == "big"


def _date_document(value: Any) -> Dict[str, int]:
    """How a JSON frame spells the one cell type JSON lacks."""
    if type(value) is datetime.date:
        return {"date": value.toordinal()}
    raise TypeError(f"{type(value).__name__} value has no wire form")


def _date_from_document(document: Dict[str, Any]) -> datetime.date:
    (key, ordinal), = document.items()
    if key != "date" or type(ordinal) is not int:
        raise ValueError("not a date cell")
    return datetime.date.fromordinal(ordinal)


_encode_cells = json.JSONEncoder(separators=(",", ":"),
                                 default=_date_document).encode
_decode_cells = json.JSONDecoder(object_hook=_date_from_document).decode


def encode_rows(vectors: Sequence[Sequence[Any]]
                ) -> Tuple[List[List[Any]], List[bytes]]:
    """Encode a result's column vectors for transport.

    Returns the header's ``frames`` field — ``[codec, byte length]`` per
    column — and the frames themselves.  The codec follows the element
    types actually present (module docstring).
    """
    specs: List[List[Any]] = []
    frames: List[bytes] = []
    for values in vectors:
        kinds = set(map(type, values))
        codec = _PACKED.get(kinds.pop()) if len(kinds) == 1 else None
        if codec is not None:
            try:
                column = array(codec, map(datetime.date.toordinal, values)
                               if codec == _DATE else values)
            except OverflowError:  # an integer beyond 64 bits
                codec = None
        if codec is None:
            codec = _JSON
            frame = _encode_cells(values).encode("ascii")
        else:
            if _SWAP:
                column.byteswap()
            frame = column.tobytes()
        specs.append([codec, len(frame)])
        frames.append(frame)
    return specs, frames


def decode_rows(header: Dict[str, Any],
                read: Callable[[int], Any]) -> List[Tuple[Any, ...]]:
    """Read the column frames a ``rows`` header announces and rebuild
    the row tuples.

    ``read(n)`` returns the next ``n`` bytes of the response (any
    bytes-like object).  The header's shape and each frame's length are
    checked before the frame is asked for, each frame's content after.

    Raises:
        ServerError: on a header or frame that is not what
            :func:`encode_rows` writes.
    """
    names = header.get("columns")
    count = header.get("row_count")
    specs = header.get("frames")
    if not (type(count) is int and count >= 0
            and type(names) is list and type(specs) is list
            and len(names) == len(specs)
            and set(map(type, names)) <= {str}):
        raise ServerError("malformed rows header")
    vectors = []
    for name, spec in zip(names, specs):
        if not (type(spec) is list and len(spec) == 2
                and type(spec[0]) is str
                and type(spec[1]) is int and spec[1] >= 0):
            raise ServerError(f"malformed frame entry for column {name!r}")
        codec, length = spec
        try:
            if codec == _JSON:
                values = _decode_cells(str(read(length), "ascii"))
                if not (type(values) is list and len(values) == count
                        and set(map(type, values)) <= _CELL_TYPES):
                    raise ValueError(f"not an array of {count} cells")
            else:
                item = _ITEM_BYTES.get(codec)
                if item is None or length != count * item:
                    raise ValueError(
                        f"{length} bytes are not {count} {codec!r} items")
                column = array(codec)
                column.frombytes(read(length))
                if _SWAP:
                    column.byteswap()
                values = list(map(datetime.date.fromordinal, column)) \
                    if codec == _DATE else column.tolist()
        except (ValueError, OverflowError, RecursionError) as exc:
            raise ServerError(
                f"undecodable frame for column {name!r}: {exc}") from None
        vectors.append(values)
    return list(zip(*vectors))
