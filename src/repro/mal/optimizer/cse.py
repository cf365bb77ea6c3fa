"""Common-subexpression elimination for pure MAL instructions.

Two instructions compute the same value when they call the same function
over the same arguments and neither has side effects nor allocates fresh
mutable state.  The second occurrence is removed and its result variables
aliased to the first's.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.mal.ast import Argument, Const, MalProgram, Var
from repro.mal.optimizer.base import (
    ALLOCATORS,
    SIDE_EFFECTS,
    substitute_args,
)


def _signature(instr) -> Tuple:
    """Equal for two instructions exactly when they call the same
    function over the same arguments: a variable by name, a literal by
    its ``repr`` (``1``, ``1.0`` and ``True`` are equal and hash alike)."""
    parts: List = [instr.qualified_name]
    for arg in instr.args:
        if arg.__class__ is Var:
            parts.append(arg.name)
        else:
            parts.append(("c", repr(arg.value)))
    return tuple(parts)


class CommonSubexpression:
    """Deduplicate identical pure instructions."""

    name = "cse"

    def run(self, program: MalProgram) -> MalProgram:
        seen: Dict[Tuple, List[str]] = {}
        replacements: Dict[str, Argument] = {}
        merged: List[int] = []
        for index, instr in enumerate(program.instructions):
            if replacements:
                substitute_args(instr, replacements)
            qname = instr.qualified_name
            if qname in SIDE_EFFECTS or qname in ALLOCATORS \
                    or not instr.results:
                continue
            signature = _signature(instr)
            prior = seen.get(signature)
            if prior is None:
                seen[signature] = instr.results
                continue
            for mine, theirs in zip(instr.results, prior):
                replacements[mine] = Var(theirs)
            merged.append(index)
        for index in reversed(merged):
            del program.instructions[index]
        return program
