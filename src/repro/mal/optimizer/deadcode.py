"""Dead-code elimination: drop instructions whose results nothing uses.

A backward liveness sweep keeps side-effecting instructions and anything
(transitively) feeding them; everything else disappears.  This is the pass
that shrinks plans most visibly in the Stethoscope's graph view.
"""

from __future__ import annotations

from typing import Set

from repro.mal.ast import MalProgram, Var
from repro.mal.optimizer.base import SIDE_EFFECTS


class DeadCode:
    """Remove instructions with unused results and no side effects."""

    name = "deadcode"

    def run(self, program: MalProgram) -> MalProgram:
        instructions = program.instructions
        live_vars: Set[str] = set()
        for index in range(len(instructions) - 1, -1, -1):
            instr = instructions[index]
            if instr.qualified_name in SIDE_EFFECTS or \
                    not live_vars.isdisjoint(instr.results):
                for arg in instr.args:
                    if arg.__class__ is Var:
                        live_vars.add(arg.name)
            else:
                del instructions[index]
        return program
