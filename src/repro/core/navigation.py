"""Interactive navigation strategies over the plan graph.

Paper §3: "Stethoscope uses this graph structure representation to setup
different navigational strategies"; §4.1 names the prominent click
actions: "navigate to the next node in the graph, change color of a
node, and display tool-tip text"; §5 demonstrates "interactive animated
navigation in complex query plans".

The :class:`Navigator` keeps a current node, moves along dataflow edges
(downstream/upstream), across siblings within a rank, jumps to
interesting nodes (next RED, most expensive), and keeps a history for
back/forward — every move optionally animating the camera.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dot.graph import Digraph
from repro.errors import StethoscopeError
from repro.layout.geometry import Layout
from repro.viz.animation import Animator
from repro.viz.view import View


#: The camera altitude a move to a node zooms to.
FOCUS_ALTITUDE = 25.0


class Navigator:
    """Keyboard/mouse-style navigation over a laid-out plan.

    Args:
        graph: the plan DAG.
        layout: its geometry (for sibling order and camera targets).
        view: optional view to move the camera with.
        animator: optional animator; when given with a view, moves are
            smooth zoom/pan animations instead of jumps.
    """

    def __init__(self, graph: Digraph, layout: Layout,
                 view: Optional[View] = None,
                 animator: Optional[Animator] = None) -> None:
        self.graph = graph
        self.layout = layout
        #: node id -> its number in the layout's columns
        self._number = {node_id: number
                        for number, node_id in enumerate(layout.node_ids)}
        self.view = view
        self.animator = animator
        roots = graph.roots()
        # prefer a root that actually leads somewhere (administrative
        # markers like language.dataflow are isolated nodes)
        connected = [r for r in roots if graph.out_degree(r) > 0]
        if connected:
            self.current: Optional[str] = connected[0]
        elif roots:
            self.current = roots[0]
        else:
            self.current = next(iter(graph.nodes)) if graph.nodes else None
        self._history: List[str] = []
        self._future: List[str] = []

    # ------------------------------------------------------------------

    def _move_to(self, node_id: str, record: bool = True) -> str:
        if not self.graph.has_node(node_id):
            raise StethoscopeError(f"no node {node_id!r}")
        if record and self.current is not None and self.current != node_id:
            self._history.append(self.current)
            self._future.clear()
        self.current = node_id
        self._update_camera()
        return node_id

    def _update_camera(self) -> None:
        number = self._number.get(self.current)
        if self.view is None or number is None:
            return
        x, y = self.layout.xs[number], self.layout.ys[number]
        if self.animator is not None:
            self.animator.animate_camera_to(
                self.view.camera, x, y, FOCUS_ALTITUDE
            )
        else:
            self.view.camera.look_at(x, y)
            self.view.camera.altitude = FOCUS_ALTITUDE

    # ------------------------------------------------------------------
    # dataflow moves
    # ------------------------------------------------------------------

    def goto(self, node_id: str) -> str:
        """Jump straight to a node (a mouse click)."""
        return self._move_to(node_id)

    def downstream(self, index: int = 0) -> Optional[str]:
        """Follow the index-th outgoing dataflow edge (consumer)."""
        if self.current is None:
            return None
        successors = self.graph.successors(self.current)
        if not successors:
            return None
        return self._move_to(successors[min(index, len(successors) - 1)])

    def upstream(self, index: int = 0) -> Optional[str]:
        """Follow the index-th incoming dataflow edge (producer)."""
        if self.current is None:
            return None
        predecessors = self.graph.predecessors(self.current)
        if not predecessors:
            return None
        return self._move_to(predecessors[min(index, len(predecessors) - 1)])

    def sibling(self, offset: int = 1) -> Optional[str]:
        """Move left/right within the current node's rank, in x order."""
        number = self._number.get(self.current)
        if number is None:
            return None
        layout = self.layout
        rank = layout.ranks[number]
        row = [other for other, other_rank in enumerate(layout.ranks)
               if other_rank == rank]
        row.sort(key=layout.xs.__getitem__)
        ids = [layout.node_ids[other] for other in row]
        position = ids.index(self.current) + offset
        if not (0 <= position < len(ids)):
            return None
        return self._move_to(ids[position])

    # ------------------------------------------------------------------
    # semantic jumps
    # ------------------------------------------------------------------

    def next_in_plan(self) -> Optional[str]:
        """Next node in pc order (the step-through strategy)."""
        if self.current is None:
            return None
        try:
            from repro.core.mapping import node_for_pc, pc_for_node

            target = node_for_pc(pc_for_node(self.current) + 1)
        except StethoscopeError:
            return None
        if not self.graph.has_node(target):
            return None
        return self._move_to(target)

    def next_colored(self, painter, color=None) -> Optional[str]:
        """Jump to the next painted node after the current pc — "find
        the next RED one" during a live run."""
        from repro.core.mapping import pc_for_node

        try:
            here = pc_for_node(self.current) if self.current else -1
        except StethoscopeError:
            here = -1
        candidates = []
        for node_id, node_color in painter.rendered.items():
            if color is not None and node_color != color:
                continue
            try:
                pc = pc_for_node(node_id)
            except StethoscopeError:
                continue
            if pc > here:
                candidates.append(pc)
        if not candidates:
            return None
        return self._move_to(f"n{min(candidates)}")

    def most_expensive(self, trace_map) -> Optional[str]:
        """Jump to the node with the largest done-event duration."""
        best = None
        best_usec = -1
        for node_id in self.graph.nodes:
            done = trace_map.done_event_of(node_id)
            if done is not None and done.usec > best_usec:
                best, best_usec = node_id, done.usec
        if best is None:
            return None
        return self._move_to(best)

    # ------------------------------------------------------------------
    # history
    # ------------------------------------------------------------------

    def back(self) -> Optional[str]:
        """Return to the previously visited node."""
        if not self._history:
            return None
        if self.current is not None:
            self._future.append(self.current)
        return self._move_to(self._history.pop(), record=False)

    def forward(self) -> Optional[str]:
        """Undo a :meth:`back`."""
        if not self._future:
            return None
        if self.current is not None:
            self._history.append(self.current)
        return self._move_to(self._future.pop(), record=False)
