"""The dataflow admission pass.

MonetDB wraps the side-effect-free region of a plan in a
``language.dataflow`` barrier, allowing the interpreter to run it with a
worker pool.  Here the pass inserts the marker instruction at the top of
the plan (for plan-shape fidelity — it shows up as a node in the dot file,
like the administrative instructions the paper's pruning feature targets)
and sets :attr:`MalProgram.dataflow_enabled`, which the executor
consults.  Skipping this pass is precisely how a plan ends up running
sequentially on a multi-core box — the anomaly the paper reports finding
with Stethoscope.
"""

from __future__ import annotations

from repro.mal.ast import MalInstruction, MalProgram


class Dataflow:
    """Admit parallel interpretation of the plan."""

    name = "dataflow"

    def run(self, program: MalProgram) -> MalProgram:
        if not any(
            i.qualified_name == "language.dataflow"
            for i in program.instructions
        ):
            program.instructions.insert(
                0, MalInstruction([], "language", "dataflow", []))
        program.dataflow_enabled = True
        return program
