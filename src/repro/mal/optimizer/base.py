"""Shared helpers for optimizer passes.

A pass's ``run(program)`` edits the instruction list of the program it
is given and returns that program; a pass with nothing to change
touches nothing.  Passes name instructions by their index in the list:
``pc`` is assigned once, by :meth:`Pipeline.apply
<repro.mal.optimizer.Pipeline.apply>` after the last pass, and is stale
in between (AdaptiveOrder, which works by pc, numbers the program first).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.mal.ast import Argument, MalInstruction, Var

#: Instructions whose execution has effects beyond their result variables.
#: Passes must never remove, duplicate or reorder these relative to each
#: other.
SIDE_EFFECTS: Set[str] = {
    "sql.resultSet",
    "sql.rsColumn",
    "sql.exportResult",
    "sql.affectedRows",
    "sql.append",
    "bat.append",
    "bat.insert",
    "language.dataflow",
}

#: Pure-but-stateful allocators: safe to remove when dead, unsafe to merge.
ALLOCATORS: Set[str] = {"bat.new", "sql.mvc", "sql.resultSet"}


def substitute_args(instr: MalInstruction,
                    replacements: Dict[str, Argument]) -> None:
    """Rewrite the instruction's Var arguments through a replacement map
    (applied transitively for Var→Var chains)."""
    new_args = []
    for arg in instr.args:
        while isinstance(arg, Var) and arg.name in replacements:
            replacement = replacements[arg.name]
            if isinstance(replacement, Var) and replacement.name == arg.name:
                break
            arg = replacement
        new_args.append(arg)
    instr.args = new_args
