"""The metric primitives: counters, gauges, histograms, and the registry.

The data model follows the Prometheus client core: a *family* has a
name, a type, a help string, an optional unit and a fixed tuple of label
names; each distinct label-value combination is a *child* carrying the
actual value.  Families with no labels expose the child operations
(``inc``/``set``/``observe``) directly.

Everything is thread-safe: one lock per family guards its children and
their values, so instrumented hot paths pay one uncontended lock
acquisition per update.  Setting ``Registry.enabled = False`` (or using
the :func:`disabled` context manager) turns every update into an early
return — that is how the overhead benchmark measures the uninstrumented
baseline without unwiring anything.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError


class MetricError(ReproError):
    """Raised on metric misuse (duplicate family, bad labels, ...)."""


#: Default histogram bucket upper bounds (generic latency-ish spread).
DEFAULT_BUCKETS = (1.0, 5.0, 25.0, 100.0, 500.0, 2_500.0, 10_000.0,
                   100_000.0)


class _Child:
    """Base for the per-label-set value holders."""

    __slots__ = ("_family",)

    def __init__(self, family: "MetricFamily") -> None:
        self._family = family


class Counter(_Child):
    """A monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self, family: "MetricFamily") -> None:
        super().__init__(family)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if not self._family.registry.enabled:
            return
        if amount < 0:
            raise MetricError("counters only go up")
        with self._family.lock:
            self._value += amount

    def value(self) -> float:
        """Current value."""
        with self._family.lock:
            return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Gauge(_Child):
    """A value that can go up and down (depths, active counts)."""

    __slots__ = ("_value",)

    def __init__(self, family: "MetricFamily") -> None:
        super().__init__(family)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        if not self._family.registry.enabled:
            return
        with self._family.lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        if not self._family.registry.enabled:
            return
        with self._family.lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)

    def value(self) -> float:
        """Current value."""
        with self._family.lock:
            return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Histogram(_Child):
    """Observations bucketed against fixed upper bounds.

    Tracks the observation count, the running sum, and one counter per
    configured bucket boundary (exposed cumulatively, Prometheus-style,
    with an implicit ``+Inf`` bucket).
    """

    __slots__ = ("_counts", "_sum", "_count")

    def __init__(self, family: "MetricFamily") -> None:
        super().__init__(family)
        self._counts = [0] * (len(family.buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        family = self._family
        if not family.registry.enabled:
            return
        # the first bound >= value; past the last one, the +Inf bucket
        index = bisect_left(family.buckets, value)
        with family.lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations under one lock acquisition.

        Bucketing happens outside the lock; use this from paths that
        record whole runs at once (the MAL post-run accounting)."""
        family = self._family
        if not family.registry.enabled:
            return
        bounds = family.buckets
        increments = [0] * (len(bounds) + 1)
        total = 0.0
        count = 0
        for value in values:
            increments[bisect_left(bounds, value)] += 1
            total += value
            count += 1
        if not count:
            return
        with family.lock:
            for i, n in enumerate(increments):
                if n:
                    self._counts[i] += n
            self._sum += total
            self._count += count

    def count(self) -> int:
        """Number of observations."""
        with self._family.lock:
            return self._count

    def sum(self) -> float:
        """Sum of all observed values."""
        with self._family.lock:
            return self._sum

    def cumulative_buckets(self) -> List[Tuple[Any, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        with self._family.lock:
            counts = list(self._counts)
        pairs: List[Tuple[Any, int]] = []
        running = 0
        for bound, count in zip(self._family.buckets, counts):
            running += count
            pairs.append((bound, running))
        pairs.append(("+Inf", running + counts[-1]))
        return pairs

    def _reset(self) -> None:
        self._counts = [0] * len(self._counts)
        self._sum = 0.0
        self._count = 0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with a fixed label schema and typed children.

    Obtain children with :meth:`labels`; families declared without
    labels proxy ``inc``/``dec``/``set``/``observe``/``value`` and the
    histogram accessors straight to their single child.
    """

    def __init__(self, registry: "Registry", name: str, kind: str,
                 help_text: str, label_names: Sequence[str] = (),
                 unit: str = "", buckets: Sequence[float] = ()) -> None:
        if kind not in _KINDS:
            raise MetricError(f"unknown metric kind {kind!r}")
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self.unit = unit
        self.buckets = tuple(sorted(buckets)) if kind == "histogram" else ()
        if kind == "histogram" and not self.buckets:
            self.buckets = DEFAULT_BUCKETS
        self.lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}
        if not self.label_names:
            self._children[()] = _KINDS[kind](self)

    # ------------------------------------------------------------------

    def labels(self, *values: str, **kwargs: str) -> Any:
        """The child for one label-value combination (created on first
        use and cached)."""
        if kwargs:
            if values:
                raise MetricError("pass labels positionally or by name, "
                                  "not both")
            try:
                values = tuple([kwargs[n] for n in self.label_names])
            except KeyError as exc:
                raise MetricError(
                    f"{self.name}: missing label {exc.args[0]!r}"
                ) from None
        try:  # values that are already strings are the key: probe first
            child = self._children.get(values)
        except TypeError:  # an unhashable value still has a str()
            child = None
        if child is None:
            values = tuple([str(v) for v in values])
            if len(values) != len(self.label_names):
                raise MetricError(
                    f"{self.name} expects labels {self.label_names}, "
                    f"got {values!r}"
                )
            child = self._children.get(values)
            if child is None:
                with self.lock:
                    child = self._children.setdefault(
                        values, _KINDS[self.kind](self))
        return child

    def children(self) -> Dict[Tuple[str, ...], Any]:
        """All materialised children, keyed by label values."""
        with self.lock:
            return dict(self._children)

    def _single(self) -> Any:
        if self.label_names:
            raise MetricError(f"{self.name} is labeled; call .labels() first")
        return self._children[()]

    # unlabeled convenience proxies ------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        """Proxy to the single child of an unlabeled family."""
        self._single().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Proxy to the single child of an unlabeled gauge."""
        self._single().dec(amount)

    def set(self, value: float) -> None:
        """Proxy to the single child of an unlabeled gauge."""
        self._single().set(value)

    def observe(self, value: float) -> None:
        """Proxy to the single child of an unlabeled histogram."""
        self._single().observe(value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Proxy to the single child of an unlabeled histogram."""
        self._single().observe_many(values)

    def value(self) -> float:
        """Proxy to the single child of an unlabeled counter/gauge."""
        return self._single().value()

    def count(self) -> int:
        """Proxy to the single child of an unlabeled histogram."""
        return self._single().count()

    def sum(self) -> float:
        """Proxy to the single child of an unlabeled histogram."""
        return self._single().sum()

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe description of this family and its current samples."""
        samples: List[Dict[str, Any]] = []
        for values, child in sorted(self.children().items()):
            labels = dict(zip(self.label_names, values))
            if self.kind == "histogram":
                samples.append({
                    "labels": labels,
                    "count": child.count(),
                    "sum": child.sum(),
                    "buckets": [[le, n] for le, n
                                in child.cumulative_buckets()],
                })
            else:
                samples.append({"labels": labels, "value": child.value()})
        return {
            "type": self.kind,
            "help": self.help_text,
            "unit": self.unit,
            "labels": list(self.label_names),
            "samples": samples,
        }

    def _reset(self) -> None:
        with self.lock:
            if self.label_names:
                self._children.clear()
            else:
                self._children[()]._reset()


class Registry:
    """Holds metric families and produces snapshots and expositions.

    A process-wide default lives at :data:`REGISTRY`; subsystems declare
    their families against it in :mod:`repro.metrics.families`.  Tests
    and benchmarks may build private registries, or flip
    :attr:`enabled` to pause all recording.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()
        #: master switch — False makes every metric update a no-op
        self.enabled = True

    # ------------------------------------------------------------------

    def _register(self, name: str, kind: str, help_text: str,
                  labels: Sequence[str], unit: str,
                  buckets: Sequence[float] = ()) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise MetricError(
                        f"{name} already registered as {existing.kind}"
                    )
                return existing
            family = MetricFamily(self, name, kind, help_text, labels,
                                  unit, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str,
                labels: Sequence[str] = (), unit: str = "") -> MetricFamily:
        """Declare (or fetch) a counter family."""
        return self._register(name, "counter", help_text, labels, unit)

    def gauge(self, name: str, help_text: str,
              labels: Sequence[str] = (), unit: str = "") -> MetricFamily:
        """Declare (or fetch) a gauge family."""
        return self._register(name, "gauge", help_text, labels, unit)

    def histogram(self, name: str, help_text: str,
                  labels: Sequence[str] = (), unit: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> MetricFamily:
        """Declare (or fetch) a histogram family with fixed buckets."""
        return self._register(name, "histogram", help_text, labels, unit,
                              buckets)

    # ------------------------------------------------------------------

    def families(self) -> Dict[str, MetricFamily]:
        """All registered families, by name."""
        with self._lock:
            return dict(self._families)

    def get(self, name: str) -> Optional[MetricFamily]:
        """One family by name, or None."""
        with self._lock:
            return self._families.get(name)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain JSON-safe dict of every family and its samples — the
        payload of the server's ``stats`` protocol verb."""
        return {name: family.snapshot()
                for name, family in sorted(self.families().items())}

    def render_text(self) -> str:
        """This registry's state in the text exposition format."""
        return render_snapshot(self.snapshot())

    def reset(self) -> None:
        """Zero every child (labeled children are dropped). For tests
        and benchmarks; production code never resets."""
        for family in self.families().values():
            family._reset()


#: The process-wide default registry.
REGISTRY = Registry()


@contextmanager
def disabled(registry: Registry = REGISTRY):
    """Context manager: suspend all recording on ``registry``."""
    previous = registry.enabled
    registry.enabled = False
    try:
        yield registry
    finally:
        registry.enabled = previous


# ---------------------------------------------------------------------------
# text exposition (Prometheus-flavoured)
# ---------------------------------------------------------------------------


def _format_value(value: Any) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _format_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_snapshot(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Render a :meth:`Registry.snapshot` dict (local or fetched over
    the wire via the ``stats`` verb) in the text exposition format::

        # HELP repro_server_requests_total Protocol requests, by op.
        # TYPE repro_server_requests_total counter
        repro_server_requests_total{op="query"} 3
    """
    lines: List[str] = []
    for name, family in sorted(snapshot.items()):
        help_text = family.get("help", "")
        unit = family.get("unit", "")
        if unit:
            help_text = f"{help_text} [{unit}]"
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family.get("samples", []):
            labels = sample.get("labels", {})
            if family["type"] == "histogram":
                for le, cumulative in sample["buckets"]:
                    label_text = _format_labels(
                        labels, f'le="{_format_value(le)}"'
                    )
                    lines.append(f"{name}_bucket{label_text} {cumulative}")
                label_text = _format_labels(labels)
                lines.append(
                    f"{name}_sum{label_text} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{label_text} {sample['count']}"
                )
            else:
                label_text = _format_labels(labels)
                lines.append(
                    f"{name}{label_text} "
                    f"{_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"
