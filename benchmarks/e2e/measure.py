"""The untraced run: end-to-end metrics of one workload.

Closed loop, one connection (two for ``ingest_mixed``): the next
operation is sent when the previous one has been answered and checked.
The window is ``seconds`` long and ends on a round boundary, so every
run executes whole rounds of the same mix.  When the box is so slow that
the window ends short of the samples p95 needs, it runs on until it has
them, for at most another ``seconds``.

Between rounds, while the process under test is idle, the harness times
the reference loop (``reference.py``) on the core they share.  Every
time of a round is multiplied by the core speed read before and after
it, so the metrics are times on a core of reference speed; the raw times
are kept beside them in the result's ``detail``.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence

import harness
import metrics
from workloads import Round, Workload

UNITS = {name: unit for name, unit, _better, _bound in metrics.END_TO_END}

#: groups of consecutive rounds whose percentiles give ``op_p50_ms`` and
#: ``op_p95_ms`` their spread within the run
BLOCKS = 5


def run_window(workload: Workload, seconds: float, min_samples: int
               ) -> List[Round]:
    rounds: List[Round] = []
    samples = 0
    before = harness.core_speed()
    began = time.perf_counter()
    while True:
        current = workload.run_round()
        after = harness.core_speed()
        current.speed = (before + after) / 2
        before = after
        rounds.append(current)
        samples += len(current.latencies_ns)
        elapsed = time.perf_counter() - began
        if elapsed >= seconds and (samples >= min_samples
                                   or elapsed >= 2 * seconds):
            return rounds


def latencies_ms(rounds: Sequence[Round], writes: bool = False
                 ) -> List[float]:
    """Every latency of ``rounds`` at reference speed."""
    return [ns * r.speed / 1e6 for r in rounds
            for ns in (r.writes_ns if writes else r.latencies_ns)]


def round_rates(rounds: Sequence[Round]) -> List[float]:
    """Completed operations per second of busy time, round by round."""
    return [r.completed / (r.busy_ns * r.speed / 1e9)
            for r in rounds if r.busy_ns]


def window_values(rounds: Sequence[Round]) -> Dict[str, float]:
    """The timing metrics of a window at reference speed (raw, when the
    rounds' speed is 1).  The ones only some workloads have are left
    out, not reported as 0."""
    pooled = latencies_ms(rounds)
    values = {
        "op_p50_ms": harness.percentile(pooled, 0.50),
        "op_p95_ms": harness.percentile(pooled, 0.95),
        "ops_per_s": statistics.median(round_rates(rounds)),
    }
    writes = latencies_ms(rounds, writes=True)
    if writes:
        values["write_p50_ms"] = harness.percentile(writes, 0.50)
        values["write_p95_ms"] = harness.percentile(writes, 0.95)
    rows = sum(r.rows for r in rounds)
    if rows:
        values["rows_per_s"] = rows / (
            sum(r.busy_ns * r.speed for r in rounds) / 1e9)
    return values


def blocks(rounds: Sequence[Round], count: int) -> List[Sequence[Round]]:
    """``rounds`` cut into ``count`` runs of consecutive rounds, as even
    as they come; fewer when there are fewer rounds."""
    count = min(count, len(rounds))
    edges = [round(i * len(rounds) / count) for i in range(count + 1)]
    return [rounds[a:b] for a, b in zip(edges, edges[1:])]


def p50_by_label(rounds: Sequence[Round]) -> Dict[str, float]:
    by_label: Dict[str, List[float]] = {}
    for r in rounds:
        for label, ns in zip(r.labels, r.latencies_ns):
            by_label.setdefault(label, []).append(ns * r.speed / 1e6)
    return {label: harness.percentile(samples, 0.5)
            for label, samples in sorted(by_label.items())}


def measure(workload: Workload, seconds: float, setups: int,
            min_samples: int) -> Dict[str, Any]:
    """Set up ``setups`` times (``setup_s`` is their median), measure one
    window on the last, check, tear down."""
    began = time.perf_counter()
    workload.prepare()
    workload.reference_s += time.perf_counter() - began
    # the expected rows live as long as the run: keep the collector from
    # re-walking them each time result decoding fills a generation
    gc.freeze()
    setup_raw_s: List[float] = []
    setup_s: List[float] = []
    setup_rss_mb: List[float] = []
    try:
        for repeat in range(setups):
            if repeat:
                workload.teardown()
            before = harness.core_speed()
            began = time.perf_counter()
            workload.setup()
            setup_raw_s.append(time.perf_counter() - began)
            setup_s.append(setup_raw_s[-1]
                           * (before + harness.core_speed()) / 2)
            setup_rss_mb.append(workload.child.peak_rss_mb())
        warm_attempted = workload.attempted
        rounds = run_window(workload, seconds, min_samples)
        timed_attempted = workload.attempted - warm_attempted
        peak_rss_mb = workload.child.peak_rss_mb()
        extras = workload.finish()
        config = workload.config()
    finally:
        workload.teardown()

    samples = sum(len(r.latencies_ns) for r in rounds)
    if not samples:
        raise RuntimeError(f"{workload.name}: no operation completed")
    speeds = [r.speed for r in rounds]
    values = window_values(rounds)
    raw = window_values([dataclasses.replace(r, speed=1.0) for r in rounds])
    values["peak_rss_mb"] = peak_rss_mb
    values["setup_s"] = statistics.median(setup_s)
    raw["setup_s"] = statistics.median(setup_raw_s)
    extras.update({name: values[name] for name in values
                   if name not in UNITS})
    if "write_p50_ms" in values:
        extras["write_samples"] = sum(len(r.writes_ns) for r in rounds)
    extras["p50_ms"] = p50_by_label(rounds)
    in_blocks = [latencies_ms(block)
                 for block in blocks(rounds, BLOCKS)
                 if any(r.latencies_ns for r in block)]
    spreads: Dict[str, Optional[float]] = {
        "op_p50_ms": harness.quartile_spread(
            [harness.percentile(block, 0.50) for block in in_blocks]),
        "op_p95_ms": harness.quartile_spread(
            [harness.percentile(block, 0.95) for block in in_blocks]),
        "ops_per_s": harness.quartile_spread(round_rates(rounds)),
        "peak_rss_mb": harness.quartile_spread(setup_rss_mb),
        "setup_s": harness.quartile_spread(setup_s),
    }
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": workload.errors,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in UNITS.items()},
        "detail": {
            "samples": samples,
            "timed_attempted": timed_attempted,
            "rounds": len(rounds),
            "samples_beyond_p95": harness.samples_beyond(samples, 0.95),
            "p95_supported": harness.tail_supported(samples, 0.95),
            # within this run; None where it has too few values to say
            "spread": spreads,
            "raw": raw,
            "core_speed": {
                "median": statistics.median(speeds),
                "min": min(speeds),
                "max": max(speeds),
            },
            "setup_samples_s": setup_s,
            "setup_raw_samples_s": setup_raw_s,
            "reference_s": workload.reference_s,
            "config": config,
            "extras": extras,
        },
    }
