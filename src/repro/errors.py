"""Exception hierarchy for the Stethoscope reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch a single base class at API boundaries while tests can
assert on precise subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class StorageError(ReproError):
    """Errors from the columnar storage layer (BATs, catalog)."""


class TypeMismatchError(StorageError):
    """An operation received a value or BAT of the wrong type."""


class CatalogError(StorageError):
    """Unknown schema/table/column, duplicate definitions, and similar."""


class WalError(StorageError):
    """The write-ahead log could not make a record durable.

    Raised for torn writes (the record's bytes only partially reached
    the file; the log is poisoned until recovery truncates the tail)
    and for failed fsyncs (the whole group-commit batch is rolled back
    and the unsynced tail truncated).  A statement that dies with this
    error was **never acknowledged** — recovery will not resurrect it.
    """


class CheckpointError(StorageError):
    """A checkpoint could not be written or validated.

    A failed checkpoint never truncates the WAL, so durability is
    unaffected — recovery falls back to the previous valid checkpoint
    plus a longer replay.
    """


class MalError(ReproError):
    """Errors from the MAL layer (parser, interpreter, optimizer)."""


class MalParseError(MalError):
    """The MAL text parser rejected its input."""


class MalTypeError(MalError):
    """A MAL instruction was invoked with incompatible argument types."""


class MalRuntimeError(MalError):
    """A MAL instruction failed during interpretation."""


class OptimizerError(MalError):
    """An optimizer pass could not transform the plan."""


class WorkerCrashError(MalRuntimeError):
    """A dataflow worker crashed mid-plan.

    Raised by the dataflow scheduler for an injected
    ``scheduler.worker:crash`` fault: the in-flight query fails typed
    (wire code ``worker-crash``) and the next query runs normally.
    """


class FaultSpecError(ReproError):
    """A fault-injection plan spec or config could not be parsed."""


class SqlError(ReproError):
    """Errors from the SQL front end."""


class SqlParseError(SqlError):
    """The SQL parser rejected its input."""


class BindError(SqlError):
    """Name resolution failed (unknown table, column, ambiguous name)."""


class ServerError(ReproError):
    """Errors from the Mserver simulator and its client protocol."""


class ConnectionFailedError(ServerError):
    """A client could not establish (or handshake) a server connection."""


class ConnectionLostError(ServerError):
    """The server connection died mid-request (reset, premature close)."""


class RequestTimeoutError(ServerError):
    """A client request exceeded its per-request deadline."""


class QueryCancelledError(ServerError):
    """A running (or queued) query was cancelled before it finished.

    Instances raised by the lifecycle layer carry a ``query_id``
    attribute so clients can tell *which* query died.
    """

    def __init__(self, message: str, query_id: str = "") -> None:
        super().__init__(message)
        self.query_id = query_id


class QueryDeadlineError(QueryCancelledError):
    """A query ran past its server-side deadline and was cancelled at
    its next instruction boundary (or while it waited for a slot)."""


class QueryBudgetError(QueryCancelledError):
    """A query exceeded its resource budget (simulated RSS) mid-plan."""


class ServerOverloadedError(ServerError):
    """Admission control shed the query: the execution slots were full
    and the wait queue was at capacity (or the queue wait timed out).

    The query never started executing, so re-submitting it is always
    safe — :class:`~repro.server.client.MClient` retries these with
    backoff.
    """


class ReplicationError(ServerError):
    """Errors from the WAL-shipping replication layer."""


class ReplicationFencedError(ReplicationError):
    """A replication request carried a stale epoch and was fenced.

    Raised by a follower that sees a deposed primary's stream (the
    follower's persisted epoch is higher), and by a deposed primary
    that learns of a newer epoch from a peer.  The deposed node must
    stop shipping and rejoin as a replica — its unacked tail is
    truncated exactly as crash recovery would.
    """


class ReadOnlyReplicaError(ReplicationError):
    """A write statement was sent to a read-only replica.

    Carries the current ``primary`` address (``"host:port"``, may be
    empty if unknown) so clients can re-route the write.  The write
    was rejected before execution, so re-submitting it against the
    primary is always safe.
    """

    def __init__(self, message: str, primary: str = "") -> None:
        super().__init__(message)
        self.primary = primary


class ProfilerError(ReproError):
    """Errors from the profiler and trace I/O."""


class TraceFormatError(ProfilerError):
    """A trace line or trace file could not be parsed."""


class DotError(ReproError):
    """Errors from the DOT language writer/parser."""


class DotParseError(DotError):
    """The DOT parser rejected its input."""


class LayoutError(ReproError):
    """Errors from the graph layout engine."""


class SvgError(ReproError):
    """Errors from the SVG writer/parser."""


class VizError(ReproError):
    """Errors from the visualization toolkit."""


class StethoscopeError(ReproError):
    """Errors from the Stethoscope core (mapping, replay, online mode)."""


class MappingError(StethoscopeError):
    """Trace and dot file could not be reconciled (pc without node, ...)."""
