"""The garbage-collector pass: release BATs right after their last use.

MonetDB's ``garbageCollector`` optimizer appends ``language.pass(X)``
statements so the interpreter can free intermediate BATs as early as
possible.  These administrative instructions are prominent in real plans
— they are a large part of what the paper's *selective pruning* feature
removes from the display — so the pass matters for plan-shape fidelity
even though our interpreter's memory accounting treats them as no-ops.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.mal.ast import ANY, MalInstruction, MalProgram, Var


class GarbageCollector:
    """Insert ``language.pass`` after the last use of each variable."""

    name = "garbage_collector"

    #: results of these functions must never be "freed" (result plumbing
    #: and transaction context live until the end of the plan)
    _PROTECTED_SOURCES = {
        "sql.mvc", "sql.resultSet", "sql.rsColumn",
    }

    def run(self, program: MalProgram) -> MalProgram:
        instructions = program.instructions
        walk = program.def_use()
        already_passed: Set[str] = {
            instr.args[0].name
            for instr in instructions
            if instr.qualified_name == "language.pass" and instr.args
            and isinstance(instr.args[0], Var)
        }
        sites, types = walk.sites, program.var_types
        releases_after: Dict[int, List[str]] = {}
        for name, index in walk.last_use.items():
            producer = instructions[sites[name]]
            if producer.qualified_name in self._PROTECTED_SOURCES:
                continue
            if name in already_passed:
                continue
            # only BAT-typed variables are worth releasing
            if not types.get(name, ANY).is_bat:  # ``program.type_of``
                continue
            releases_after.setdefault(index, []).append(name)
        if not releases_after:
            return program
        rebuilt: List[MalInstruction] = []
        for index, instr in enumerate(instructions):
            rebuilt.append(instr)
            for name in releases_after.get(index, ()):  # in order of first use
                rebuilt.append(MalInstruction(
                    [], "language", "pass", [Var(name)]
                ))
        program.instructions = rebuilt
        return program
