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
        node_id = action.node_id
        if f"shape:{node_id}" not in self.space:
            # colouring a node that is not in the (possibly pruned) view
            # is a no-op, matching ZGrviewer's behaviour for hidden glyphs
            return
        self.history.append(action)
        self._queue.append((node_id, action.color, self.clock_ms))
        RENDER_TASKS_POSTED.inc()
        RENDER_QUEUE_DEPTH.set(len(self._queue))

    def apply_all(self, actions) -> None:
        for action in actions:
            self.apply(action)

    def pump(self, clock_ms: float) -> int:
        """Advance time to ``clock_ms``, painting what is due; returns how
        many colours were painted."""
        if clock_ms < self.clock_ms:
            return 0
        queue = self._queue
        painted = 0
        while queue and self._next_slot_ms <= clock_ms:
            node_id, color, posted_at = queue[0]
            paint_at = max(self._next_slot_ms, posted_at)
            if paint_at > clock_ms:
                break
            queue.popleft()
            self.space.shape_of(node_id).fill = color
            self.rendered[node_id] = color
            self._next_slot_ms = paint_at + RENDER_INTERVAL_MS
            painted += 1
            wait = paint_at - posted_at
            if wait > self._max_wait_ms:
                self._max_wait_ms = wait
            RENDER_QUEUE_WAIT_MS.observe(wait)
        if painted:
            RENDER_TASKS_EXECUTED.inc(painted)
            RENDER_QUEUE_DEPTH.set(len(queue))
        self.clock_ms = clock_ms
        return painted

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
