"""Measurement plumbing shared by every workload: order statistics,
result comparison, child-process control and the span tracer."""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
OUT = os.path.join(HERE, "out")

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


# ---------------------------------------------------------------------
# order statistics


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    share ``q`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile share {q} outside (0, 1]")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q`` percentile."""
    return count - math.ceil(q * count)


def tail_supported(count: int, q: float) -> bool:
    """The reporting rule: a percentile stands only on
    :data:`MIN_TAIL_SAMPLES` samples beyond it."""
    return samples_beyond(count, q) >= MIN_TAIL_SAMPLES


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """Distance between first and third quartile as a share of the
    median — the steadiness measure the bounds are judged against.
    None when there are too few values to have one."""
    if len(values) < 2:
        return None
    first, _mid, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


# ---------------------------------------------------------------------
# result comparison


def _close(got: Any, want: Any) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        if got is None or want is None:
            return got is want
        # partitioned and sequential plans add floats in another order
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    return got == want


def _sort_key(row: Sequence[Any]) -> tuple:
    return tuple("" if v is None else
                 f"{v:.6g}" if isinstance(v, float) else str(v)
                 for v in row)


def rows_match(got: Sequence[Sequence[Any]], want: Sequence[Sequence[Any]],
               ordered: bool) -> bool:
    """Row-set equality with float tolerance; ``ordered`` is False for
    statements without ORDER BY, whose rows are compared sorted."""
    if len(got) != len(want):
        return False
    if not ordered:
        got = sorted(got, key=_sort_key)
        want = sorted(want, key=_sort_key)
    return all(len(g) == len(w) and all(map(_close, g, w))
               for g, w in zip(got, want))


def is_ordered(sql: str) -> bool:
    return "order by" in sql.lower()


# ---------------------------------------------------------------------
# the process under test


def pin_to_one_core() -> None:
    """Pin this process, and so every child it starts, to one core.

    The loops are closed, so generator and process under test take turns
    anyway; on two cores each turn is a wake-up of an idle virtual CPU,
    which on the box this was built on costs ~0.2 ms and varies (an
    ``adhoc_small`` statement took 2.3-2.9 ms across cores, 1.9-2.1 ms on
    one; ten runs spread by 7.4 % across cores, 3.3 % on one).  One core
    also gives the reference loop (:func:`core_speed`) the same
    neighbours as everything it corrects.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Child:
    """One child process running a script of this directory.

    The script prints one JSON line when ready and runs until its stdin
    closes; further lines written to stdin are requests answered with
    one JSON line each (``replay_proc.py``).
    """

    def __init__(self, script: str, *args: Any) -> None:
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *map(str, args)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env)
        try:
            self.ready = self._read()
        except BaseException:
            self.kill()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read(self) -> Dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"child {self.process.args[1]} exited with "
                f"{self.process.wait()} before answering")
        return json.loads(line)

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.process.stdin.write(json.dumps(message) + "\n")
        self.process.stdin.flush()
        return self._read()

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the child: its resident-set high-water mark."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Close stdin (the child's signal to exit) and wait for it."""
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL — the crash the durability check recovers from."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            with contextlib.suppress(OSError):
                pipe.close()


def directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _dirs, names in os.walk(path) for name in names)


# ---------------------------------------------------------------------
# reference speed

#: A core on which the reference loop takes this long has speed 1.
SPIN_REFERENCE_NS = 6_000_000
#: loops per reading; their median is the reading
SPINS = 3


def speed_of(spin_ns: Sequence[int]) -> float:
    return SPIN_REFERENCE_NS / statistics.median(spin_ns)


def core_speed() -> float:
    """How fast the core runs right now, read while the process under
    test is idle.  A time multiplied by the speed read beside it is the
    time the work would have taken on a core where the reference loop
    takes :data:`SPIN_REFERENCE_NS`: the box's speed episodes cancel, a
    change to the program does not."""
    return speed_of([reference.spin() for _ in range(SPINS)])


# ---------------------------------------------------------------------
# tracing


class Tracer:
    """Spans ``[name, op_id, parent, start_ns, end_ns, count]`` kept in
    memory and written out when the run ends.

    ``parent`` is the index of the enclosing span (-1 for an operation's
    root) and ``count`` an optional amount of work seen at the same
    boundary (instructions, bytes); every per-layer view is a fold over
    this one list.  A Tracer with ``enabled=False`` records nothing,
    which is how the untraced in-process run shares the traced run's
    code.

    Each thread nests its own spans.  The outermost span of a thread
    other than the one running the operation (the in-process server's
    loop and executor threads, working while the client blocks in
    ``recv``) becomes a child of the operation thread's innermost open
    span; a wrapped call made while no operation is open is not
    recorded.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self.op_id = -1
        self._lock = threading.Lock()
        self._op_stack: List[int] = []
        self._threads = threading.local()

    def _stack(self) -> List[int]:
        try:
            return self._threads.stack
        except AttributeError:
            self._threads.stack = []
            return self._threads.stack

    def _open(self, name: str, stack: List[int]) -> list:
        parent = stack[-1] if stack else \
            self._op_stack[-1] if self._op_stack else -1
        record = [name, self.op_id, parent, 0, 0, None]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        record = self._open(name, stack)
        record[3] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record[4] = time.perf_counter_ns()
            stack.pop()

    @contextlib.contextmanager
    def op(self):
        """Root span of one user-visible operation; the calling thread
        is the operation thread."""
        self.op_id += 1
        self._threads.stack = self._op_stack
        with self.span("op") as record:
            yield record

    def wrap(self, function: Callable, name: Any,
             count: Optional[Callable[[Any], Any]] = None) -> Callable:
        """``function`` bracketed by a span.  ``name`` may be a callable
        deriving the span name from the call's arguments; ``count``
        derives the span's work count from the call's result."""
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            if not stack and not self._op_stack:
                return function(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            record = self._open(label, stack)
            record[3] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if count is not None:
                record[5] = count(result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, patches: Iterable[tuple]):
        """Install span wrappers around public calls for the duration of
        the block.  A patch is ``(owner, attribute, span name)`` plus an
        optional count function and an optional stand-in for the
        original (used to make a generator finish inside its span)."""
        saved = []
        try:
            for owner, attribute, name, *rest in patches:
                original = owner.__dict__[attribute]
                count = rest[0] if rest else None
                target = rest[1](original) if len(rest) > 1 else original
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(target, name, count))
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for name, op_id, parent, start, end, count in self.spans:
                record = {"name": name, "op_id": op_id, "parent": parent,
                          "start_ns": start, "end_ns": end}
                if count is not None:
                    record["count"] = count
                handle.write(json.dumps(record) + "\n")


def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Per-span self time: duration minus what direct children cover."""
    own = [span[4] - span[3] for span in spans]
    for span in spans:
        if span[2] >= 0:
            own[span[2]] -= span[4] - span[3]
    return own
