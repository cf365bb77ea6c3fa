"""Constant folding: evaluate scalar ``calc``/``mtime`` operations whose
arguments are all literals, replacing their uses with the literal result.

TPC-H predicates profit directly: ``date '1998-12-01' - interval '90'
day`` compiles to an ``mtime.adddays`` over constants, which this pass
collapses so the selection runs against a plain literal.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mal.ast import Argument, Const, MalProgram, Var
from repro.mal.modules import is_registered, lookup
from repro.mal.optimizer.base import substitute_args
from repro.storage.types import infer_type, nil


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
                and is_registered(instr.module, instr.function)
                and all(isinstance(a, Const) for a in instr.args)
            ):
                impl = lookup(instr.module, instr.function)
                try:
                    value = impl(None, instr, [a.value for a in instr.args])
                except Exception:
                    continue  # fold failure: leave for runtime
                mal_type = None if value is nil else infer_type(value)
                replacements[instr.results[0]] = Const(value, mal_type)
                folded.append(index)
        for index in reversed(folded):
            del program.instructions[index]
        return program
