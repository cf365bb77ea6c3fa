"""Constant folding: evaluate scalar ``calc``/``mtime`` operations whose
arguments are all literals, replacing their uses with the literal result,
typed by the result's declared type, so a folded nil keeps it.

TPC-H predicates profit directly: ``date '1998-12-01' - interval '90'
day`` compiles to an ``mtime.adddays`` over constants, which this pass
collapses so the selection runs against a plain literal.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mal.ast import ANY, Argument, Const, MalProgram, Var
from repro.mal.modules import lookup, value_atom
from repro.mal.optimizer.base import substitute_args
from repro.storage.types import cast_value, infer_type, nil


class ConstantFold:
    """Fold ``calc.*`` and ``mtime.*`` instructions over literal args."""

    name = "constant_fold"

    FOLDABLE_MODULES = ("calc", "mtime")

    def run(self, program: MalProgram) -> MalProgram:
        replacements: Dict[str, Argument] = {}
        folded: List[int] = []
        for index, instr in enumerate(program.instructions):
            if replacements:
                substitute_args(instr, replacements)
            if (
                instr.module in self.FOLDABLE_MODULES
                and len(instr.results) == 1
                and all(isinstance(a, Const) for a in instr.args)
            ):
                try:
                    value = lookup(instr.module, instr.function)(
                        None, instr, [a.value for a in instr.args])
                except Exception:
                    continue  # unknown or failing: left for runtime
                mal_type = value_atom(
                    program.var_types.get(instr.results[0], ANY))
                if mal_type is None and value is not nil:
                    mal_type = infer_type(value)
                replacements[instr.results[0]] = Const(
                    value if mal_type is None else cast_value(value, mal_type),
                    mal_type)
                folded.append(index)
        for index in reversed(folded):
            del program.instructions[index]
        return program
