"""Node-colouring algorithms for execution-state display (paper §4.2.1).

"A node is colored RED or GREEN based on the instruction status of
'start' or 'done' respectively.  ...  A consecutive 'start' and 'done'
event status for the same instruction, with presence of more instructions
afterwards, indicates that the instruction under analysis executed in
least time.  Hence, it is not a costly instruction.  All such
instructions are not colored."

Two algorithms, exactly as the paper offers:

* :class:`PairSequenceColorizer` — the default: an instruction whose
  start/done events arrive as an adjacent pair is *fast* and stays
  uncoloured; one whose start is followed by some other instruction's
  event is *long-running* and turns RED, then GREEN when its done event
  finally arrives.  The paper's worked example — six statements
  ``{start,1},{done,1},{start,2},{done,2},{start,3},{start,4}`` — leaves
  pcs 1 and 2 uncoloured and paints pc 3 RED (pc 4's fate is still
  unknown: nothing arrived after its start).
* :class:`ThresholdColorizer` — "another algorithm which allows the user
  to specify an instruction execution threshold time".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.profiler.events import TraceEvent
from repro.viz.color import Color, GREEN, RED


class ColorAction(NamedTuple):
    """One colouring decision: paint node ``n<pc>`` with ``color``.  A
    named tuple, cheap to build: a replay makes one per colour change
    and the painter keeps every one."""

    pc: int
    color: Color
    reason: str

    @property
    def node_id(self) -> str:
        return f"n{self.pc}"


class PairSequenceColorizer:
    """The paper's streaming pair-detection algorithm.

    Feed events with :meth:`push`; each call returns the colour actions
    the event triggers (possibly none).  State per pc: *open* (start
    seen, nothing after it yet), *red* (start seen, other events arrived
    before its done).  Interleaved (multi-threaded) traces are supported:
    every open instruction that an unrelated event overtakes turns RED.
    """

    def __init__(self) -> None:
        #: pcs whose start arrived and nothing has overtaken them yet
        self._open: List[int] = []
        #: pcs currently painted RED (long-running, not yet done)
        self._red: set = set()

    def push(self, event: TraceEvent) -> List[ColorAction]:
        """Process one event; returns the triggered colour actions."""
        out: List[ColorAction] = []
        if event.status == "start":
            # anything still open has now been overtaken -> RED
            out.extend(self._overtake(exclude=None))
            self._open.append(event.pc)
        else:  # done
            if self._open and self._open[-1] == event.pc and \
                    event.pc not in self._red:
                # adjacent start/done pair: fast instruction, no colour
                self._open.pop()
            else:
                # the done of a long-running instruction
                out.extend(self._overtake(exclude=event.pc))
                if event.pc in self._open:
                    self._open.remove(event.pc)
                if event.pc in self._red:
                    self._red.discard(event.pc)
                    out.append(ColorAction(event.pc, GREEN, "long done"))
                else:
                    # done without its start being overtaken first —
                    # e.g. trace filtered; treat as fast, no colour
                    pass
        return out

    def _overtake(self, exclude: Optional[int]) -> List[ColorAction]:
        out: List[ColorAction] = []
        for pc in self._open:
            if pc == exclude or pc in self._red:
                continue
            self._red.add(pc)
            out.append(ColorAction(pc, RED, "overtaken while running"))
        return out

    def finish(self) -> List[ColorAction]:
        """End of trace: instructions still open never finished; paint
        them RED (they are exactly where a hung query is stuck)."""
        return self._overtake(exclude=None)

    @property
    def currently_red(self) -> set:
        """pcs painted RED right now (long-running, unfinished)."""
        return set(self._red)


def color_buffer(events: Iterable[TraceEvent]) -> List[ColorAction]:
    """Run the pair-sequence algorithm over a buffered trace fragment
    (the paper's run-time analysis applies it to the sampled buffer)."""
    colorizer = PairSequenceColorizer()
    out: List[ColorAction] = []
    for event in events:
        out.extend(colorizer.push(event))
    return out


class ThresholdColorizer:
    """User-specified execution-time threshold colouring.

    On a done event: RED when ``usec >= threshold`` (costly), GREEN
    otherwise.  :meth:`overdue` additionally reports instructions whose
    start is older than the threshold against a supplied clock — live
    RED candidates while they are still running.
    """

    def __init__(self, threshold_usec: int) -> None:
        if threshold_usec <= 0:
            raise ValueError("threshold must be positive")
        self.threshold_usec = threshold_usec
        self._started: Dict[int, int] = {}

    def push(self, event: TraceEvent) -> List[ColorAction]:
        """Process one event; returns the triggered colour actions."""
        out: List[ColorAction] = []
        if event.status == "start":
            self._started[event.pc] = event.clock_usec
        else:
            self._started.pop(event.pc, None)
            if event.usec >= self.threshold_usec:
                out.append(ColorAction(
                    event.pc, RED, f"usec {event.usec} >= threshold"
                ))
            else:
                out.append(ColorAction(
                    event.pc, GREEN, f"usec {event.usec} < threshold"
                ))
        return out

    def finish(self) -> List[ColorAction]:
        """End of trace: every done event was coloured as it arrived."""
        return []

    def overdue(self, clock_usec: int) -> List[ColorAction]:
        """Still-running instructions already over the threshold."""
        out = []
        for pc, started in self._started.items():
            if clock_usec - started >= self.threshold_usec:
                out.append(ColorAction(pc, RED, "running over threshold"))
        return out
