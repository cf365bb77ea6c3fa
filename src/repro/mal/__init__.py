"""The MonetDB Assembly Language (MAL) substrate.

MAL is MonetDB's intermediate language: SQL queries compile to MAL plans,
optimizers rewrite them, and an interpreter executes them over BATs.  The
Stethoscope consumes MAL plans (as dot-file DAGs) and their execution
traces, so this package provides everything needed to produce both:

* :mod:`repro.mal.ast` — variables, instructions, programs;
* :mod:`repro.mal.parser` / :mod:`repro.mal.printer` — the MAL text format;
* :mod:`repro.mal.modules` — the instruction set (algebra, bat, aggr, ...);
* :mod:`repro.mal.interpreter` — the executor core (one per-instruction
  step with profiler hooks) and the sequential reference interpreter;
* :mod:`repro.mal.dataflow` — multi-worker dataflow list scheduling
  over that core, on a deterministic virtual clock;
* :mod:`repro.mal.optimizer` — the optimizer pipeline (constant folding,
  dead code, CSE, mitosis, mergetable, dataflow).
"""

from repro.mal.ast import (
    Const,
    MalInstruction,
    MalProgram,
    TypeSpec,
    Var,
    bat_of,
    scalar_of,
)
from repro.mal.interpreter import ExecutionResult, Interpreter
from repro.mal.parser import parse_program
from repro.mal.printer import format_instruction, format_program

__all__ = [
    "Const",
    "ExecutionResult",
    "Interpreter",
    "MalInstruction",
    "MalProgram",
    "TypeSpec",
    "Var",
    "bat_of",
    "format_instruction",
    "format_program",
    "parse_program",
    "scalar_of",
]
