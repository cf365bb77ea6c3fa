"""Applying colour actions to the glyph scene, paced like the paper's EDT.

"Coloring graph nodes in an online stream is a complex task due to
rendering limitations from the Java system.  The Stethoscope uses the
Java Event Dispatch thread queuing framework for queuing up nodes to
render.  This introduces a delay of up-to 150ms between rendering of
consecutive nodes." (§4.2.1)

:class:`GraphPainter` is that queue: colour changes never touch glyphs
directly, they wait in the painter and are painted at most one per
:data:`RENDER_INTERVAL_MS` of (virtual or wall) time.  Time is explicit
— callers advance it with :meth:`GraphPainter.pump` — which keeps tests
and benchmarks deterministic.  The online monitor reads the backlog to
decide when to sample the trace instead of painting every event
(benchmark E5).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.coloring import ColorAction
from repro.metrics.families import (
    RENDER_QUEUE_DEPTH,
    RENDER_QUEUE_WAIT_MS,
    RENDER_TASKS_EXECUTED,
    RENDER_TASKS_POSTED,
)
from repro.viz.color import Color, WHITE
from repro.viz.vspace import VirtualSpace

#: the paper's pacing: at most one node painted per 150 ms
RENDER_INTERVAL_MS = 150.0

# the four families are unlabeled: updating their one child directly is
# one call instead of the family's proxy and its lookup
_POSTED = RENDER_TASKS_POSTED.labels()
_EXECUTED = RENDER_TASKS_EXECUTED.labels()
_DEPTH = RENDER_QUEUE_DEPTH.labels()
_WAIT_MS = RENDER_QUEUE_WAIT_MS.labels()


class GraphPainter:
    """Queues node-colour changes, paints them paced, and tracks state."""

    def __init__(self, space: VirtualSpace) -> None:
        self.space = space
        #: colour already *rendered* per node (painted, not just queued)
        self.rendered: Dict[str, Color] = {}
        #: every action ever accepted, for the analysis views
        self.history: List[ColorAction] = []
        #: (node id, colour, posted at ms) waiting to be painted
        self._queue: Deque[Tuple[str, Color, float]] = deque()
        self.clock_ms = 0.0
        self._next_slot_ms = 0.0
        self._max_wait_ms = 0.0

    def apply(self, action: ColorAction) -> None:
        """Queue one colour action for rendering."""
        self.apply_all((action,))

    def apply_all(self, actions) -> None:
        """Queue colour actions for rendering, in order; the queue
        metrics are updated once for the batch."""
        space = self.space
        queue = self._queue
        posted = len(queue)
        for action in actions:
            node_id = action.node_id
            if f"shape:{node_id}" not in space:
                # colouring a node that is not in the (possibly pruned)
                # view is a no-op, matching ZGrviewer's behaviour for
                # hidden glyphs
                continue
            self.history.append(action)
            queue.append((node_id, action.color, self.clock_ms))
        posted = len(queue) - posted
        if posted:
            _POSTED.inc(posted)
            _DEPTH.set(len(queue))

    def pump(self, clock_ms: float) -> int:
        """Advance time to ``clock_ms``, painting what is due; returns how
        many colours were painted."""
        if clock_ms < self.clock_ms:
            return 0
        queue = self._queue
        shape_of = self.space.shape_of
        rendered = self.rendered
        next_slot_ms = self._next_slot_ms
        waits = []
        while queue and next_slot_ms <= clock_ms:
            node_id, color, posted_at = queue[0]
            paint_at = max(next_slot_ms, posted_at)
            if paint_at > clock_ms:
                break
            queue.popleft()
            shape_of(node_id).fill = color
            rendered[node_id] = color
            next_slot_ms = paint_at + RENDER_INTERVAL_MS
            waits.append(paint_at - posted_at)
        self._next_slot_ms = next_slot_ms
        if waits:
            self._max_wait_ms = max(self._max_wait_ms, max(waits))
            _WAIT_MS.observe_many(waits)
            _EXECUTED.inc(len(waits))
            _DEPTH.set(len(queue))
        self.clock_ms = clock_ms
        return len(waits)

    def flush(self) -> int:
        """Paint everything still queued regardless of pacing (end of
        query); advances the clock to the last slot used."""
        painted = 0
        while self._queue:
            horizon = self._next_slot_ms + RENDER_INTERVAL_MS * (
                len(self._queue) + 1
            )
            painted += self.pump(max(self.clock_ms, horizon))
        return painted

    def reset(self) -> None:
        """Wipe the display: paint what is queued, then repaint every
        painted glyph white and forget the colours and the history."""
        self.flush()
        for node_id in self.rendered:
            self.space.shape_of(node_id).fill = WHITE
        self.rendered.clear()
        self.history.clear()

    def color_of(self, node_id: str) -> Optional[Color]:
        """The rendered colour of a node (None = never painted)."""
        return self.rendered.get(node_id)

    def backlog(self) -> int:
        """Unrendered colour actions — the sampling trigger."""
        return len(self._queue)

    def max_latency_ms(self) -> float:
        """Worst queue latency (painting - posting) among painted colours."""
        return self._max_wait_ms
