"""Engine-wide metrics and instrumentation (counters, gauges,
histograms, and a labeled-family registry).

Stethoscope's premise is observability of *query* execution; this
package makes the engine itself observable the same way.  The data model
is the Prometheus client core, scaled to this codebase: a process-wide
:class:`~repro.metrics.core.Registry` of labeled metric families
(:class:`~repro.metrics.core.Counter`,
:class:`~repro.metrics.core.Gauge`,
:class:`~repro.metrics.core.Histogram` with fixed bucket boundaries),
updated from the hot paths of the server, the MAL interpreter and
dataflow scheduler, the UDP profiler stream, the online monitor, and
the render queue.

Three ways out:

* :func:`snapshot` — a plain JSON-safe dict (also served by the
  Mserver's ``stats`` protocol verb);
* :func:`render_text` / ``python -m repro metrics`` — the text
  exposition format;
* :class:`~repro.metrics.reporter.PeriodicReporter` — a background
  thread snapshotting on an interval, used by the benches.

Every family is declared in :mod:`repro.metrics.families` and documented
in ``docs/metrics_reference.md``; ``tests/test_docs.py`` keeps the two
in lockstep.  ``python -m repro metrics`` in a fresh process prints the
whole catalog at zero.
"""

from repro.metrics import families  # noqa: F401  (registers every family)
from repro.metrics.core import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricFamily,
    REGISTRY,
    Registry,
    disabled,
    render_snapshot,
)
from repro.metrics.reporter import PeriodicReporter


def snapshot():
    """JSON-safe dict of every family in the process registry."""
    return REGISTRY.snapshot()


def render_text():
    """The process registry in the text exposition format."""
    return REGISTRY.render_text()


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricFamily",
    "PeriodicReporter",
    "REGISTRY",
    "Registry",
    "disabled",
    "render_snapshot",
    "render_text",
    "snapshot",
]
