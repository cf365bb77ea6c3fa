"""Run-time analysis over execution traces: one fold, many views.

The paper's offline demo shows "utilization distribution of threads,
memory usage by operators, and costly instruction clustering", a
"birds eye view of the entire trace", and names "an analytic interface
for micro analysis of trace" as future work; the online demo adds
"multi-core utilisation analysis [that] exhibits degree of
multi-threaded parallelization of MAL instructions".

Every one of those is a method of :class:`TraceAnalyzer`, which is fed
one event at a time (:meth:`TraceAnalyzer.push`) and groups done events
by thread, operator and pc as they arrive.  A view reads what the
pushes accumulated, so the same analyzer serves a trace file, a replay
window and a live stream, and a view read after ``k`` pushes equals the
view of the first ``k`` events of a file.  :meth:`sequential_anomaly`
captures the reported finding of "sequential execution of a MAL plan
where multithreaded execution was expected".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.profiler.events import TraceEvent


@dataclass
class ThreadUtilization:
    """Busy time and share of the query makespan for one worker thread."""

    thread: int
    busy_usec: int
    instructions: int
    utilization: float  # busy / makespan


@dataclass
class OperatorStats:
    """Time and memory of one MAL operator (module.function)."""

    operator: str
    calls: int
    total_usec: int
    share: float  # of total trace busy time
    peak_rss_bytes: int
    mean_rss_bytes: float


@dataclass
class InstructionStats:
    """Aggregate statistics of one instruction (pc) across a trace."""

    pc: int
    stmt: str
    executions: int
    total_usec: int
    min_usec: int
    max_usec: int
    mean_usec: float


@dataclass
class CostCluster:
    """A run of consecutive costly instructions (plan hot region)."""

    pcs: List[int]
    total_usec: int

    @property
    def span(self) -> Tuple[int, int]:
        return (self.pcs[0], self.pcs[-1])


@dataclass
class ParallelismProfile:
    """Degree of multi-threaded parallelisation of a trace."""

    threads_used: int
    max_concurrency: int
    mean_concurrency: float
    makespan_usec: int
    busy_usec: int

    @property
    def speedup_vs_serial(self) -> float:
        """Observed speedup against running every instruction serially."""
        if self.makespan_usec == 0:
            return 1.0
        return self.busy_usec / self.makespan_usec


@dataclass
class SequentialAnomaly:
    """Diagnosis of a plan that failed to parallelise."""

    detected: bool
    threads_used: int
    expected_threads: int
    max_concurrency: int
    explanation: str


@dataclass
class OperatorSlowdown:
    """How much slower one operator ran in the loaded trace."""

    operator: str
    baseline_usec: int
    loaded_usec: int

    @property
    def slowdown(self) -> float:
        if self.baseline_usec == 0:
            return 1.0
        return self.loaded_usec / self.baseline_usec


@dataclass
class InterferenceReport:
    """Comparison of the same query traced idle vs. under load.

    The paper's online mode provides "insight in the total system
    behavior.  For example, influence of concurrent processes competing
    with the resources" — this report quantifies that influence: overall
    makespan inflation and the per-operator slowdowns, sorted worst
    first.
    """

    baseline_makespan_usec: int
    loaded_makespan_usec: int
    operators: List[OperatorSlowdown]

    @property
    def makespan_inflation(self) -> float:
        if self.baseline_makespan_usec == 0:
            return 1.0
        return self.loaded_makespan_usec / self.baseline_makespan_usec

    def worst(self, top: int = 5) -> List[OperatorSlowdown]:
        return self.operators[:top]


@dataclass
class TraceSegment:
    """A maximal run of consecutive done-events from one MAL module."""

    module: str
    first_event: int  # sequence number of first event in segment
    count: int
    total_usec: int
    start_clock_usec: int
    end_clock_usec: int


class TraceAnalyzer:
    """The fold every trace view reads.

    ``TraceAnalyzer(events)`` pushes a whole trace; an empty analyzer
    fed by :meth:`push` follows a live one.
    """

    def __init__(self, events: Iterable[TraceEvent] = ()) -> None:
        self.events: List[TraceEvent] = []
        self.done: List[TraceEvent] = []
        self.makespan_usec = 0
        self.busy_usec = 0
        # done events grouped in first-seen order, which breaks ties
        self._by_thread: Dict[int, List[TraceEvent]] = {}
        self._by_operator: Dict[str, List[TraceEvent]] = {}
        self._by_pc: Dict[int, List[TraceEvent]] = {}
        for event in events:
            self.push(event)

    def push(self, event: TraceEvent) -> None:
        """Fold one event in."""
        self.events.append(event)
        self.makespan_usec = max(self.makespan_usec, event.clock_usec)
        if event.status != "done":
            return
        self.done.append(event)
        self.busy_usec += event.usec
        self._by_thread.setdefault(event.thread, []).append(event)
        self._by_operator.setdefault(
            f"{event.module}.{event.function}", []).append(event)
        self._by_pc.setdefault(event.pc, []).append(event)

    # ------------------------------------------------------------------
    # threads and parallelism
    # ------------------------------------------------------------------

    def thread_utilization(self) -> List[ThreadUtilization]:
        """Per-thread busy time over the trace (done events carry usec)."""
        out = []
        for thread in sorted(self._by_thread):
            busy = sum(e.usec for e in self._by_thread[thread])
            out.append(ThreadUtilization(
                thread=thread, busy_usec=busy,
                instructions=len(self._by_thread[thread]),
                utilization=(busy / self.makespan_usec)
                if self.makespan_usec else 0.0,
            ))
        return out

    def parallelism_profile(self) -> ParallelismProfile:
        """Concurrency statistics from start/done event interleaving."""
        # sweep the start/end intervals for concurrency
        boundary: List[Tuple[int, int]] = []
        for event in self.done:
            boundary.append((event.clock_usec - event.usec, +1))
            boundary.append((event.clock_usec, -1))
        boundary.sort()
        concurrency = 0
        max_concurrency = 0
        weighted = 0
        previous_clock = None
        for clock, delta in boundary:
            if previous_clock is not None and concurrency > 0:
                weighted += concurrency * (clock - previous_clock)
            concurrency += delta
            max_concurrency = max(max_concurrency, concurrency)
            previous_clock = clock
        makespan = self.makespan_usec
        return ParallelismProfile(
            threads_used=len(self._by_thread),
            max_concurrency=max_concurrency,
            mean_concurrency=(weighted / makespan) if makespan else 0.0,
            makespan_usec=makespan,
            busy_usec=self.busy_usec,
        )

    def sequential_anomaly(self, expected_threads: int) -> SequentialAnomaly:
        """Flag sequential execution where multi-threading was expected.

        The paper: "using Stethoscope we have uncovered several unusual
        cases, such as sequential execution of a MAL plan where
        multithreaded execution was expected."
        """
        profile = self.parallelism_profile()
        detected = expected_threads > 1 and profile.threads_used <= 1
        if detected:
            explanation = (
                f"plan ran on {profile.threads_used} thread(s) although "
                f"{expected_threads} workers were available — check whether "
                "the dataflow optimizer ran (e.g. sequential_pipe selected)"
            )
        else:
            explanation = (
                f"{profile.threads_used} thread(s) used, max concurrency "
                f"{profile.max_concurrency}"
            )
        return SequentialAnomaly(
            detected=detected,
            threads_used=profile.threads_used,
            expected_threads=expected_threads,
            max_concurrency=profile.max_concurrency,
            explanation=explanation,
        )

    # ------------------------------------------------------------------
    # operators and instructions
    # ------------------------------------------------------------------

    def _operator_stats(self) -> List[OperatorStats]:
        total = self.busy_usec or 1
        out = []
        for operator, group in self._by_operator.items():
            usec = sum(e.usec for e in group)
            rss = [e.rss_bytes for e in group]
            out.append(OperatorStats(
                operator=operator, calls=len(group), total_usec=usec,
                share=usec / total, peak_rss_bytes=max(rss),
                mean_rss_bytes=sum(rss) / len(rss),
            ))
        return out

    def per_operator(self) -> List[OperatorStats]:
        """Statistics per operator, ordered by total time descending."""
        return sorted(self._operator_stats(),
                      key=lambda s: s.total_usec, reverse=True)

    def memory_by_operator(self) -> List[OperatorStats]:
        """Memory usage by operator, sorted by peak rss (offline demo)."""
        return sorted(self._operator_stats(),
                      key=lambda s: s.peak_rss_bytes, reverse=True)

    def per_instruction(self) -> List[InstructionStats]:
        """Statistics per pc, ordered by total time descending."""
        out = []
        for pc, group in self._by_pc.items():
            usecs = [e.usec for e in group]
            out.append(InstructionStats(
                pc=pc, stmt=group[-1].stmt, executions=len(group),
                total_usec=sum(usecs), min_usec=min(usecs),
                max_usec=max(usecs), mean_usec=sum(usecs) / len(usecs),
            ))
        out.sort(key=lambda s: s.total_usec, reverse=True)
        return out

    def costly_instructions(self, top: int = 10) -> List[TraceEvent]:
        """The top-N most expensive done events."""
        return sorted(self.done, key=lambda e: e.usec, reverse=True)[:top]

    def costly_clusters(self, fraction: float = 0.8) -> List[CostCluster]:
        """Cluster costly instructions by pc adjacency.

        Instructions are taken in decreasing cost until ``fraction`` of
        the total time is covered, then grouped into maximal runs of
        consecutive pcs — the "costly instruction clustering" view, which
        shows *where in the plan* the time goes rather than just which
        instruction.
        """
        total = self.busy_usec
        if total == 0:
            return []
        chosen: Dict[int, int] = {}
        covered = 0
        for event in sorted(self.done, key=lambda e: e.usec, reverse=True):
            if covered >= total * fraction:
                break
            chosen[event.pc] = chosen.get(event.pc, 0) + event.usec
            covered += event.usec
        clusters: List[CostCluster] = []
        for pc in sorted(chosen):
            if clusters and pc == clusters[-1].pcs[-1] + 1:
                clusters[-1].pcs.append(pc)
                clusters[-1].total_usec += chosen[pc]
            else:
                clusters.append(CostCluster([pc], chosen[pc]))
        clusters.sort(key=lambda c: c.total_usec, reverse=True)
        return clusters

    def compare(self, loaded: "TraceAnalyzer") -> InterferenceReport:
        """Quantify interference between this trace (the baseline) and a
        ``loaded`` trace of the *same* plan.

        Operators present in only one trace are skipped (a different
        plan is a user error this analysis cannot repair).
        """
        load = {s.operator: s.total_usec for s in loaded._operator_stats()}
        operators = [
            OperatorSlowdown(operator=s.operator, baseline_usec=s.total_usec,
                             loaded_usec=load[s.operator])
            for s in self._operator_stats() if s.operator in load
        ]
        operators.sort(key=lambda o: o.slowdown, reverse=True)
        return InterferenceReport(
            baseline_makespan_usec=self.makespan_usec,
            loaded_makespan_usec=loaded.makespan_usec,
            operators=operators,
        )

    # ------------------------------------------------------------------
    # memory over time
    # ------------------------------------------------------------------

    def rss_timeline(self, buckets: int = 60) -> List[Tuple[int, int]]:
        """Resident-set size over the query's lifetime.

        Returns (clock_usec, rss_bytes) samples — the peak rss observed
        in each of ``buckets`` equal time windows — the data behind a
        memory timeline in the analytic panel.
        """
        if not self.events:
            return []
        makespan = self.makespan_usec or 1
        samples = [0] * buckets
        for event in self.events:
            index = min(buckets - 1, event.clock_usec * buckets // makespan)
            samples[index] = max(samples[index], event.rss_bytes)
        # carry the last known value through empty windows
        current = 0
        out: List[Tuple[int, int]] = []
        for index, value in enumerate(samples):
            current = value if value else current
            out.append(((index + 1) * makespan // buckets, current))
        return out

    def rss_sparkline(self, width: int = 60) -> str:
        """The rss timeline as a one-line text sparkline."""
        timeline = self.rss_timeline(buckets=width)
        if not timeline:
            return "(empty trace)"
        levels = " _.-=#%@"
        peak = max(v for _t, v in timeline) or 1
        chars = [
            levels[min(len(levels) - 1, v * (len(levels) - 1) // peak)]
            for _t, v in timeline
        ]
        return "".join(chars) + f"  (peak {peak} bytes)"

    # ------------------------------------------------------------------
    # bird's-eye view
    # ------------------------------------------------------------------

    def segments(self) -> List[TraceSegment]:
        """Cluster the done-event sequence by module: consecutive
        instructions from the same module merge into one segment, which
        is how plan stages (binds, selections, joins, aggregation,
        result export) show up as bands."""
        segments: List[TraceSegment] = []
        for event in self.done:
            if segments and segments[-1].module == event.module:
                current = segments[-1]
                current.count += 1
                current.total_usec += event.usec
                current.end_clock_usec = event.clock_usec
            else:
                segments.append(TraceSegment(
                    module=event.module, first_event=event.event, count=1,
                    total_usec=event.usec,
                    start_clock_usec=event.clock_usec - event.usec,
                    end_clock_usec=event.clock_usec,
                ))
        return segments

    # ------------------------------------------------------------------
    # micro-analysis table
    # ------------------------------------------------------------------

    def percentile(self, q: float) -> int:
        """The q-th percentile (0..100) of done-event durations."""
        if not (0 <= q <= 100):
            raise ValueError("percentile must be in 0..100")
        if not self.done:
            return 0
        ordered = sorted(e.usec for e in self.done)
        rank = (q / 100) * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return ordered[low]
        fraction = rank - low
        return round(ordered[low] * (1 - fraction) + ordered[high] * fraction)

    def window(self, start_usec: int, end_usec: int) -> "TraceAnalyzer":
        """A sub-analyzer over one time window of the trace."""
        return TraceAnalyzer(
            e for e in self.events if start_usec <= e.clock_usec <= end_usec
        )

    def summary(self) -> Dict[str, float]:
        """Headline numbers for the analytic panel."""
        return {
            "events": len(self.events),
            "instructions": len(self._by_pc),
            "makespan_usec": self.makespan_usec,
            "busy_usec": self.busy_usec,
            "p50_usec": self.percentile(50),
            "p95_usec": self.percentile(95),
            "p99_usec": self.percentile(99),
        }

    def to_csv(self) -> str:
        """Per-instruction table as CSV (export for external tooling)."""
        lines = ["pc,executions,total_usec,min_usec,max_usec,mean_usec,stmt"]
        for stats in self.per_instruction():
            stmt = stats.stmt.replace('"', '""')
            lines.append(
                f"{stats.pc},{stats.executions},{stats.total_usec},"
                f"{stats.min_usec},{stats.max_usec},{stats.mean_usec:.1f},"
                f'"{stmt}"'
            )
        return "\n".join(lines)


def render_birdseye(segments: Sequence[TraceSegment],
                    width: int = 72) -> str:
    """Render segments as a proportional text band — one glance shows
    where the time went."""
    total = sum(s.total_usec for s in segments)
    if total == 0:
        return "(empty trace)"
    lines = []
    bar = []
    for segment in segments:
        share = segment.total_usec / total
        cells = max(1, round(share * width))
        bar.append((segment.module[:1] or "?") * cells)
    lines.append("".join(bar))
    for segment in segments:
        share = 100.0 * segment.total_usec / total
        lines.append(
            f"{segment.module:<10} x{segment.count:<5} "
            f"{segment.total_usec:>8} usec  {share:5.1f}%"
        )
    return "\n".join(lines)
