"""Applying colour actions to the glyph scene through the render queue.

Colour changes never touch glyphs directly: they are posted to the
:class:`~repro.viz.events.EventDispatchQueue`, reproducing the paper's
constraint that node recolouring is throttled (~150 ms per node) by the
Java Event Dispatch thread.  The online monitor reads the queue backlog
to decide when to sample the trace instead of painting every event.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.coloring import ColorAction
from repro.viz.color import Color
from repro.viz.events import EventDispatchQueue
from repro.viz.vspace import VirtualSpace


class GraphPainter:
    """Posts node-colour changes to the render queue and tracks state."""

    def __init__(self, space: VirtualSpace,
                 queue: Optional[EventDispatchQueue] = None) -> None:
        self.space = space
        self.queue = queue or EventDispatchQueue()
        #: colour already *rendered* per node (after queue execution)
        self.rendered: Dict[str, Color] = {}
        #: every action ever posted, for the analysis views
        self.history: List[ColorAction] = []

    def apply(self, action: ColorAction) -> None:
        """Queue one colour action for rendering."""
        node_id = action.node_id
        if f"shape:{node_id}" not in self.space:
            # colouring a node that is not in the (possibly pruned) view
            # is a no-op, matching ZGrviewer's behaviour for hidden glyphs
            return
        self.history.append(action)
        # the task must not hold ``self``: the queue keeps it until it
        # runs, and painter -> queue -> task -> painter would be a cycle
        # that only a full collection frees
        space, rendered, color = self.space, self.rendered, action.color

        def render() -> None:
            space.shape_of(node_id).fill = color
            rendered[node_id] = color

        self.queue.post(f"paint {node_id} {color.to_hex()}", render)

    def apply_all(self, actions) -> None:
        for action in actions:
            self.apply(action)

    def pump(self, clock_ms: float) -> int:
        """Advance the render queue to ``clock_ms``."""
        return self.queue.run_until(clock_ms)

    def flush(self) -> int:
        """Render everything that is still queued."""
        return self.queue.drain()

    def color_of(self, node_id: str) -> Optional[Color]:
        """The rendered colour of a node (None = never painted)."""
        return self.rendered.get(node_id)

    def backlog(self) -> int:
        """Unrendered colour actions — the sampling trigger."""
        return self.queue.pending()
