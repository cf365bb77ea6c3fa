"""Runtime statistics: the feedback store behind adaptive optimization.

Every executed plan leaves a trail of :class:`~repro.mal.interpreter.
InstructionRun` records — input and output cardinalities per
instruction, exactly what the profiler streams to the Stethoscope.
:class:`StatsStore` ingests those completed traces and keeps the
EWMA-smoothed *selectivity* of every selection, keyed by a normalized
signature: the column it touches and the constants it compares against
(``algebra.select(sys.lineitem.l_quantity;24)``), not the variable
names of one particular compile, so the same logical operator
accumulates statistics across compiles, plan-cache generations and
mitosis partitions.  A selectivity is a count over a count; it needs no
clock.

Two consumers close the loop:

* the ``adaptive_order`` optimizer pass asks :meth:`StatsStore.
  selectivity` to run commutable select chains most-selective-first;
* deadline-carrying queries ask :meth:`StatsStore.choose_pipeline` for
  the cheapest plan variant predicted to fit (Maliva-style
  time-constrained planning), from the whole-query latencies
  :meth:`StatsStore.observe_query` keeps per variant.

Entries are additionally keyed by the *scope* of the plan they were
observed under — the tables it reads and their row counts
(:attr:`repro.storage.catalog.Observed.scope`) — so what was learned
about one table survives a write to another, and what was learned about
a table that has since changed steers nothing.  Memory is bounded (LRU
over signatures); the whole store round-trips through a CRC-trailed JSON
snapshot (``stats.json`` in the WAL directory), written with
:func:`repro.storage.durable.atomic_write`.
"""

from __future__ import annotations

import json
import math
import threading
import zlib
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.mal.ast import Const, MalProgram, Var
from repro.metrics.families import (
    STATS_ENTRIES, STATS_EVICTIONS, STATS_OBSERVATIONS, STATS_SNAPSHOTS,
)
from repro.storage.durable import atomic_write

_FORMAT_VERSION = 3
#: whole-file checksum trailer after the JSON document
_CRC_PREFIX = "\n#crc32="
#: EWMA smoothing factor: the weight of the newest observation
_ALPHA = 0.3

#: instructions whose output/input ratio is an observed selectivity
_SELECT_FUNCTIONS = frozenset((
    "algebra.select", "algebra.thetaselect", "algebra.likeselect",
))

#: def-chain hops the signature resolver follows from a selection's
#: source back to the ``sql.bind`` naming its column
_RESOLVE_THROUGH = frozenset((
    "algebra.leftjoin", "algebra.semijoin",
    "bat.mirror", "algebra.markT", "bat.reverse", "algebra.slice",
))


def _format_const(value: Any) -> str:
    if value is None:
        return "nil"
    return repr(value)


def program_signatures(program: MalProgram) -> Dict[int, str]:
    """Normalized signature per pc of each selection in ``program``.

    A selection resolves its source variable back through
    projection/candidate plumbing (leftjoin, semijoin, mirror, slice) to
    the ``sql.bind`` that names the underlying column; the signature is
    then ``module.function(schema.table.column;consts)`` — stable across
    compiles, optimizer pipelines and mitosis partitioning.  Every other
    instruction has no signature: nothing reads what it would record.
    """
    instructions = program.instructions
    sites = program.derived(MalProgram.def_use).sites

    def defining(var_name: str) -> Optional[Any]:
        site = sites.get(var_name)
        return None if site is None else instructions[site]

    def column_of(var_name: str) -> Optional[str]:
        instr = defining(var_name)
        hops = 0
        while instr is not None and hops < 16:
            qname = instr.qualified_name
            if qname == "sql.bind" and len(instr.args) >= 4:
                parts = []
                for arg in instr.args[1:4]:
                    if not isinstance(arg, Const):
                        return None
                    parts.append(str(arg.value))
                return ".".join(parts)
            if qname not in _RESOLVE_THROUGH:
                return None
            # leftjoin projects the *column* side (arg 1); the candidate
            # plumbing (semijoin, mirror, markT, ...) follows arg 0
            position = 1 if qname == "algebra.leftjoin" else 0
            if position >= len(instr.args):
                return None
            source = instr.args[position]
            if not isinstance(source, Var):
                return None
            instr = defining(source.name)
            hops += 1
        return None

    signatures: Dict[int, str] = {}
    for instr in program.instructions:
        qname = instr.qualified_name
        if qname in _SELECT_FUNCTIONS and instr.args:
            source = instr.args[0]
            column = (column_of(source.name)
                      if isinstance(source, Var) else None)
            consts = ",".join(
                _format_const(arg.value) for arg in instr.args[1:]
                if isinstance(arg, Const)
            )
            signatures[instr.pc] = f"{qname}({column or '?'};{consts})"
    return signatures


def select_signature(qname: str, column: str,
                     const_args: Sequence[Const]) -> str:
    """The signature :func:`program_signatures` would assign a selection
    on ``column`` with the given constant arguments (compile-time
    mirror, used by the ``adaptive_order`` pass for lookups)."""
    consts = ",".join(_format_const(arg.value) for arg in const_args)
    return f"{qname}({column};{consts})"


def _ewma(old: Optional[float], new: float) -> float:
    if old is None:
        return new
    return old + _ALPHA * (new - old)


def _finite(value: Any) -> Optional[float]:
    """``value`` as a finite float, or None when it is no such number."""
    if type(value) not in (int, float):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


class _Entry:
    """EWMA state for one key: a selection's selectivity (None until a
    run of it saw an input row) or a query variant's latency."""

    __slots__ = ("value", "observations")

    def __init__(self, value: Optional[float] = None,
                 observations: int = 0) -> None:
        self.value = value
        self.observations = observations


def _selection_fields(entry: _Entry) -> Dict[str, Any]:
    """A selection entry as the snapshot and ``top_entries`` show it."""
    return {"sel": None if entry.value is None else round(entry.value, 9),
            "n": entry.observations}


class StatsStore:
    """Thread-safe, bounded, persistable runtime statistics.

    Args:
        capacity: maximum signature entries kept (LRU beyond it); the
            query-variant table is bounded by ``capacity // 4``.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("stats capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._queries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.observations = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------

    @staticmethod
    def _query_key(scope: str, nsql: str, pipeline: str,
                   workers: int) -> str:
        return f"{scope}|{pipeline}|{workers}|{nsql}"

    def _touch(self, table: "OrderedDict[str, _Entry]", key: str,
               capacity: int) -> _Entry:
        entry = table.get(key)
        if entry is None:
            entry = _Entry()
            table[key] = entry
            while len(table) > capacity:
                table.popitem(last=False)
                self.evictions += 1
                STATS_EVICTIONS.inc()
        else:
            table.move_to_end(key)
        return entry

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def observe_program(self, program: MalProgram, runs: Sequence,
                        scope: str) -> int:
        """Ingest one completed execution's instruction-run trace.

        ``runs`` are the :class:`~repro.mal.interpreter.InstructionRun`
        records an execution produced (what the profiler saw); the
        observed selectivity of every selection run among them is folded
        into its signature's EWMA entry.  Returns the number of
        selection runs ingested.
        """
        signatures = program.derived(program_signatures)
        prefix = scope + "|"
        entries = self._entries
        ingested = 0
        with self._lock:
            for run in runs:
                signature = signatures.get(run.pc)
                if signature is None:
                    continue
                key = prefix + signature
                entry = entries.get(key)
                if entry is None:
                    entry = self._touch(entries, key, self.capacity)
                else:
                    entries.move_to_end(key)
                if run.rows_in > 0:
                    entry.value = _ewma(entry.value,
                                        run.rows / float(run.rows_in))
                entry.observations += 1
                ingested += 1
            self.observations += ingested
            STATS_ENTRIES.set(len(self._entries) + len(self._queries))
        if ingested:
            STATS_OBSERVATIONS.labels(kind="instruction").inc(ingested)
        return ingested

    def observe_query(self, nsql: str, pipeline: str, workers: int,
                      usec: float, scope: str) -> None:
        """Fold one whole-query latency into its (sql, variant) entry."""
        with self._lock:
            entry = self._touch(
                self._queries,
                self._query_key(scope, nsql, pipeline, workers),
                max(1, self.capacity // 4))
            entry.value = _ewma(entry.value, float(usec))
            entry.observations += 1
            self.observations += 1
            STATS_ENTRIES.set(len(self._entries) + len(self._queries))
        STATS_OBSERVATIONS.labels(kind="query").inc()

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def selectivity(self, signature: str, scope: str) -> Optional[float]:
        """Observed selectivity of a selection signature, or None."""
        with self._lock:
            entry = self._entries.get(f"{scope}|{signature}")
            if entry is None:
                return None
            return entry.value

    def query_variants(self, nsql: str, workers: int,
                       scope: str) -> Dict[str, float]:
        """Every observed pipeline variant of ``nsql`` with its
        predicted (EWMA) latency in microseconds."""
        prefix = scope + "|"
        suffix = f"|{workers}|{nsql}"
        variants: Dict[str, float] = {}
        with self._lock:
            for key, entry in self._queries.items():
                if key.startswith(prefix) and key.endswith(suffix):
                    pipeline = key[len(prefix):-len(suffix)]
                    variants[pipeline] = entry.value
        return variants

    def choose_pipeline(self, nsql: str, workers: int, scope: str,
                        deadline_usec: float,
                        default: str) -> Tuple[str, bool]:
        """Maliva-style cheapest-feasible variant selection.

        Returns ``(pipeline, rerouted)``.  The default pipeline wins
        whenever its predicted latency fits the deadline (or was never
        observed); otherwise the cheapest observed variant is chosen —
        feasible if any variant fits, cheapest-overall if none does.
        """
        variants = self.query_variants(nsql, workers, scope)
        if not variants:
            return default, False
        predicted_default = variants.get(default)
        if predicted_default is None or predicted_default <= deadline_usec:
            return default, False
        cheapest = min(variants, key=variants.get)
        if cheapest == default:
            return default, False
        return cheapest, True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries) + len(self._queries)

    def summary(self) -> Dict[str, Any]:
        """Counters and occupancy for the ``stats`` verb / CLI view."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "query_entries": len(self._queries),
                "capacity": self.capacity,
                "observations": self.observations,
                "evictions": self.evictions,
            }

    def top_entries(self, limit: int = 20) -> List[Dict[str, Any]]:
        """The ``limit`` most observed selection signatures."""
        with self._lock:
            ranked = sorted(self._entries.items(),
                            key=lambda kv: kv[1].observations,
                            reverse=True)[:limit]
            return [dict(key=key, **_selection_fields(entry))
                    for key, entry in ranked]

    # ------------------------------------------------------------------
    # persistence (CRC-trailed JSON, alongside the catalog)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The whole store as one JSON-serializable document."""
        with self._lock:
            return {
                "version": _FORMAT_VERSION,
                "capacity": self.capacity,
                "observations": self.observations,
                "entries": {key: _selection_fields(entry)
                            for key, entry in self._entries.items()},
                "queries": {key: {"lat": round(entry.value, 3),
                                  "n": entry.observations}
                            for key, entry in self._queries.items()},
            }

    def save(self, path: str) -> int:
        """Atomically write the snapshot to ``path``; returns entry count.

        The ``#crc32=`` trailer lets a bit-rotted snapshot be detected
        at load instead of half-read.
        """
        document = self.snapshot()
        text = json.dumps(document)
        text += f"{_CRC_PREFIX}{zlib.crc32(text.encode('utf-8')):08x}\n"
        atomic_write(path, text.encode("utf-8"))
        STATS_SNAPSHOTS.labels(op="save").inc()
        return len(document["entries"]) + len(document["queries"])

    @classmethod
    def load(cls, path: str) -> "StatsStore":
        """Rebuild a store saved by :meth:`save`.

        Raises:
            StorageError: whatever the file holds that :meth:`save`
                would not have written — text that is not UTF-8, a
                missing or mismatched checksum trailer, malformed JSON,
                a format version other than this one, or a field of the
                wrong type or range.
        """
        def corrupt(why: str) -> StorageError:
            return StorageError(f"corrupt stats snapshot {path!r}: {why}")

        with open(path, "rb") as handle:
            raw = handle.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise corrupt("not UTF-8 text") from None
        body, found, trailer = text.rpartition(_CRC_PREFIX)
        if not found:
            raise corrupt("no checksum trailer")
        try:
            expected = int(trailer.strip(), 16)
        except ValueError:
            raise corrupt("malformed checksum trailer") from None
        actual = zlib.crc32(body.encode("utf-8"))
        if actual != expected:
            raise corrupt(f"checksum mismatch (expected {expected:08x}, "
                          f"computed {actual:08x})")
        try:
            document = json.loads(body)
        except (ValueError, RecursionError) as exc:
            raise corrupt(str(exc)) from None
        version = (document.get("version")
                   if isinstance(document, dict) else None)
        if version != _FORMAT_VERSION:
            raise StorageError(
                f"unsupported stats snapshot version {version!r} in "
                f"{path!r}")

        def count(fields: dict, name: str, minimum: int) -> int:
            value = fields.get(name)
            if type(value) is not int or value < minimum:
                raise corrupt(f"{name} is {value!r}, not an integer "
                              f">= {minimum}")
            return value

        def table(name: str, field: str, optional: bool
                  ) -> "OrderedDict[str, _Entry]":
            saved = document.get(name)
            if not isinstance(saved, dict):
                raise corrupt(f"{name} is not an object")
            loaded: "OrderedDict[str, _Entry]" = OrderedDict()
            for key, fields in saved.items():
                if not isinstance(fields, dict):
                    raise corrupt(f"entry {key!r} is not an object")
                value = fields.get(field)
                if value is not None or not optional:
                    value = _finite(value)
                    if value is None:
                        raise corrupt(f"entry {key!r}: {field} is "
                                      f"{fields.get(field)!r}")
                loaded[key] = _Entry(value, count(fields, "n", 1))
            return loaded

        store = cls(capacity=count(document, "capacity", 1))
        store._entries = table("entries", "sel", optional=True)
        store._queries = table("queries", "lat", optional=False)
        store.observations = count(document, "observations", 0)
        STATS_SNAPSHOTS.labels(op="load").inc()
        STATS_ENTRIES.set(len(store))
        return store
