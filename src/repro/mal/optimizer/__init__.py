"""The MAL optimizer pipeline.

MonetDB rewrites a freshly generated MAL plan through a configurable
sequence of optimizer passes before interpretation; the Stethoscope exists
partly to let you *see* what those passes did (the paper: "how optimizers
perform").  The passes provided here mirror the well-known MonetDB ones:

* :class:`ConstantFold`   — evaluate scalar ``calc`` ops over literals;
* :class:`CommonSubexpression` — deduplicate pure instructions;
* :class:`DeadCode`       — drop instructions whose results are unused;
* :class:`AdaptiveOrder`  — reorder commutable select chains
  most-selective-first using observed runtime statistics (inert until a
  stats store is injected);
* :class:`Mitosis`        — partition the largest table horizontally and
  replicate the dependent plan fragment per partition (with ``mat.pack``
  glue), the main source of intra-query parallelism;
* :class:`GarbageCollector` — insert ``language.pass`` release
  statements after each BAT's last use (plan-shape fidelity; these are
  the administrative instructions the pruning feature removes);
* :class:`Dataflow`       — admit multi-worker interpretation.

Predefined pipelines match MonetDB's vocabulary: ``minimal_pipe``,
``sequential_pipe`` (no parallelism — the configuration under which the
paper's authors observed their "sequential plan" anomaly) and
``default_pipe``; ``static_pipe`` is ``default_pipe`` without the
adaptive reordering, pinning today's feedback-free plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import OptimizerError
from repro.mal.ast import MalProgram
from repro.mal.optimizer.adaptive_order import AdaptiveOrder
from repro.mal.optimizer.constant_fold import ConstantFold
from repro.mal.optimizer.cse import CommonSubexpression
from repro.mal.optimizer.deadcode import DeadCode
from repro.mal.optimizer.dataflowpass import Dataflow
from repro.mal.optimizer.garbage import GarbageCollector
from repro.mal.optimizer.mitosis import Mitosis


@dataclass
class PassReport:
    """What one optimizer pass did to the plan."""

    name: str
    instructions_before: int
    instructions_after: int

    @property
    def delta(self) -> int:
        return self.instructions_after - self.instructions_before


class Pipeline:
    """An ordered sequence of optimizer passes.

    Calling :meth:`apply` runs every pass and returns the rewritten
    program; :attr:`reports` records per-pass instruction counts, which
    the ablation benchmarks use.
    """

    def __init__(self, name: str, passes: Sequence) -> None:
        self.name = name
        self.passes = list(passes)
        self.reports: List[PassReport] = []

    def apply(self, program: MalProgram) -> MalProgram:
        """Run all passes in order over ``program`` and finish it:
        numbered, validated, frozen with the one def-use walk that took.

        ``program`` is consumed — the passes edit it in place and it is
        what comes back — so a caller that wants anything of the
        unoptimised plan reads it first.
        """
        self.reports = []
        for opt_pass in self.passes:
            before = len(program.instructions)
            program = opt_pass.run(program)
            self.reports.append(
                PassReport(opt_pass.name, before, len(program.instructions))
            )
        program.renumber()
        program.freeze()
        program.derived(MalProgram.validate)  # the verdict a run asks for
        return program


def minimal_pipe() -> Pipeline:
    """Constant folding and dead-code removal only."""
    return Pipeline("minimal_pipe", [ConstantFold(), DeadCode()])


def sequential_pipe() -> Pipeline:
    """Full scalar optimization but *no* parallelism: the plan stays
    sequential.  Analysing a query run under this pipe is how Stethoscope
    surfaces the paper's "sequential execution where multithreaded
    execution was expected" anomaly."""
    return Pipeline(
        "sequential_pipe",
        [ConstantFold(), CommonSubexpression(), DeadCode(),
         GarbageCollector()],
    )


def default_pipe(nparts: int = 4, mitosis_threshold: int = 1000) -> Pipeline:
    """The standard pipeline: scalar passes, adaptive reordering (inert
    until a stats store is injected), mitosis and dataflow."""
    return Pipeline(
        "default_pipe",
        [
            ConstantFold(),
            CommonSubexpression(),
            DeadCode(),
            AdaptiveOrder(),
            Mitosis(nparts=nparts, threshold_rows=mitosis_threshold),
            GarbageCollector(),
            Dataflow(),
        ],
    )


def static_pipe(nparts: int = 4, mitosis_threshold: int = 1000) -> Pipeline:
    """``default_pipe`` minus adaptive reordering: plans keep their
    syntactic selection order no matter what the stats store has seen.
    Selecting this pipeline restores the pre-feedback plans exactly."""
    return Pipeline(
        "static_pipe",
        [
            ConstantFold(),
            CommonSubexpression(),
            DeadCode(),
            Mitosis(nparts=nparts, threshold_rows=mitosis_threshold),
            GarbageCollector(),
            Dataflow(),
        ],
    )


_PIPES: Dict[str, Callable[[], Pipeline]] = {
    "minimal_pipe": minimal_pipe,
    "sequential_pipe": sequential_pipe,
    "default_pipe": default_pipe,
    "static_pipe": static_pipe,
}


def pipeline_by_name(name: str, **kwargs) -> Pipeline:
    """Instantiate a predefined pipeline by MonetDB-style name."""
    try:
        factory = _PIPES[name]
    except KeyError:
        raise OptimizerError(f"unknown optimizer pipeline {name!r}") from None
    return factory(**kwargs) if kwargs else factory()


__all__ = [
    "AdaptiveOrder",
    "CommonSubexpression",
    "ConstantFold",
    "Dataflow",
    "DeadCode",
    "GarbageCollector",
    "Mitosis",
    "PassReport",
    "Pipeline",
    "default_pipe",
    "minimal_pipe",
    "pipeline_by_name",
    "sequential_pipe",
    "static_pipe",
]
