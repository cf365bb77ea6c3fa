"""Trace ↔ dot-file mapping (paper §3.3).

"The program counter (pc) is an important field in the trace, and is used
to map pc to a node number in a dot file.  For example, an instruction
execution trace statement with pc=1 maps to the node 'n1' in the dot
file.  The 'stmt' field in instruction execution trace represents a MAL
instruction and maps to the 'label' field in the dot file."
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro.dot.graph import Digraph
from repro.errors import MappingError
from repro.metrics.families import MAPPING_LOOKUPS
from repro.profiler.events import TraceEvent

_NODE_RE = re.compile(r"^n(\d+)$")


def node_for_pc(pc: int) -> str:
    """Dot node name for a program counter (pc=1 → ``n1``)."""
    if pc < 0:
        raise MappingError(f"negative pc {pc}")
    return f"n{pc}"


def pc_for_node(node_id: str) -> int:
    """Program counter encoded in a dot node name (``n1`` → 1)."""
    match = _NODE_RE.match(node_id)
    if match is None:
        raise MappingError(f"node id {node_id!r} does not encode a pc")
    return int(match.group(1))


class PlanTraceMap:
    """Associates a plan graph with its execution trace.

    Construction validates every event's pc against the graph (an event
    without a node means the trace and dot file belong to different
    plans) and indexes events per node for tool-tips and replay.
    """

    def __init__(self, graph: Digraph, events: List[TraceEvent],
                 strict_labels: bool = False) -> None:
        self.graph = graph
        self.events = list(events)
        self._by_node: Dict[str, List[TraceEvent]] = {}
        by_node = self._by_node
        nodes = graph.nodes
        hits = 0
        for event in self.events:
            node_id = node_for_pc(event.pc)
            if node_id not in nodes:
                MAPPING_LOOKUPS.labels(result="hit").inc(hits)
                raise _unmapped(event, node_id)
            hits += 1
            if strict_labels:
                label = graph.node(node_id).label
                if label and event.stmt and label != event.stmt:
                    raise MappingError(
                        f"stmt/label mismatch at pc={event.pc}: "
                        f"{event.stmt!r} vs {label!r}"
                    )
            events_of_node = by_node.get(node_id)
            if events_of_node is None:
                by_node[node_id] = [event]
            else:
                events_of_node.append(event)
        if hits:
            MAPPING_LOOKUPS.labels(result="hit").inc(hits)

    def push(self, event: TraceEvent) -> None:
        """Map and index one more event (a live stream's next one)."""
        node_id = node_for_pc(event.pc)
        if node_id not in self.graph.nodes:
            raise _unmapped(event, node_id)
        MAPPING_LOOKUPS.labels(result="hit").inc()
        self.events.append(event)
        self._by_node.setdefault(node_id, []).append(event)

    def clear(self) -> None:
        """Forget every event (the list is emptied in place, so whoever
        shares it sees the empty trace too)."""
        self.events.clear()
        self._by_node.clear()

    # ------------------------------------------------------------------

    def events_of(self, node_id: str) -> List[TraceEvent]:
        """All events of one node, in trace order."""
        return list(self._by_node.get(node_id, []))

    def done_event_of(self, node_id: str) -> Optional[TraceEvent]:
        """The (last) done event of a node, if it finished."""
        for event in reversed(self._by_node.get(node_id, [])):
            if event.status == "done":
                return event
        return None

    def executed_nodes(self) -> List[str]:
        """Nodes that appear in the trace, in first-appearance order."""
        seen = []
        visited = set()
        for event in self.events:
            node_id = node_for_pc(event.pc)
            if node_id not in visited:
                visited.add(node_id)
                seen.append(node_id)
        return seen

    def unexecuted_nodes(self) -> List[str]:
        """Plan nodes that never appear in the trace (e.g. the query was
        interrupted, or the trace was filtered)."""
        return [n for n in self.graph.nodes if n not in self._by_node]

    def coverage(self) -> float:
        """Fraction of plan nodes with at least one trace event."""
        if not self.graph.nodes:
            return 1.0
        return len(self._by_node) / len(self.graph.nodes)

    def total_usec(self) -> int:
        """Clock of the last event (query makespan)."""
        return max((e.clock_usec for e in self.events), default=0)


def _unmapped(event: TraceEvent, node_id: str) -> MappingError:
    MAPPING_LOOKUPS.labels(result="miss").inc()
    return MappingError(
        f"trace event pc={event.pc} has no node {node_id!r} "
        "in the dot file — trace/plan mismatch?"
    )
