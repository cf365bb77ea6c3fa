"""The MAL ``language`` module: plan administration instructions.

These carry no data; they exist so that plans keep the administrative
instructions real MonetDB plans have — which is exactly what the paper's
planned *selective pruning* feature (reproduced in
:mod:`repro.core.pruning`) removes from the visualization.
"""

from __future__ import annotations

from repro.mal.modules import register, returns


@register("language.pass", returns())
def pass_(ctx, instr, args):
    """``language.pass(v)``: MonetDB's early release of ``v``; a no-op
    here that returns nothing.  A run drops each value once every
    instruction that reads it has run, the pass included
    (``Execution.step``): the list schedule may run a pass before
    another reader of ``v``, and many variables have no pass."""
    return None


@register("language.dataflow", returns())
def dataflow(ctx, instr, args):
    """``language.dataflow()``: marker admitting parallel interpretation of
    the instructions that follow; a no-op for the sequential interpreter."""
    return None
