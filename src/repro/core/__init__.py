"""Stethoscope: interactive visual analysis of query execution plans.

The paper's contribution — everything above the substrates: the textual
Stethoscope (UDP trace client), trace↔dot mapping, the §4.2.1 colouring
algorithms, offline replay (step / fast-forward / rewind / pause),
online monitoring, tool-tips and debug windows, gradient colouring and
administrative-instruction pruning.  One session type,
:class:`OfflineSession`, serves both modes: an online run pushes the
live stream into it, its three threads the receiver's (the textual
Stethoscope), the query's and the caller, which monitors.  Every
run-time analysis — thread utilisation, memory per
operator, costly-instruction clustering, the bird's-eye view, the
micro-analysis table — is a view of one fold, :class:`TraceAnalyzer`,
which sessions of both modes and ``repro analyze`` feed.
"""

from repro.core.analysis import TraceAnalyzer
from repro.core.coloring import (
    ColorAction,
    PairSequenceColorizer,
    ThresholdColorizer,
)
from repro.core.inspect import DebugWindow, tooltip_text
from repro.core.mapping import PlanTraceMap, node_for_pc, pc_for_node
from repro.core.navigation import Navigator
from repro.core.options import FilterOptionsWindow
from repro.core.painter import GraphPainter
from repro.core.pruning import prune_administrative
from repro.core.replay import ReplayController
from repro.core.session import OfflineSession, Stethoscope
from repro.core.textual import ServerConnection, TextualStethoscope

__all__ = [
    "ColorAction",
    "DebugWindow",
    "FilterOptionsWindow",
    "GraphPainter",
    "Navigator",
    "OfflineSession",
    "PairSequenceColorizer",
    "PlanTraceMap",
    "ReplayController",
    "ServerConnection",
    "Stethoscope",
    "TextualStethoscope",
    "ThresholdColorizer",
    "TraceAnalyzer",
    "node_for_pc",
    "pc_for_node",
    "prune_administrative",
    "tooltip_text",
]
