"""Mitosis: horizontal partitioning of the plan's dominant table.

MonetDB's mitosis optimizer splits the largest table into fragments and
replicates the dependent plan fragment once per partition; the mergetable
logic then glues partitioned intermediates back together with ``mat.pack``
wherever an operator cannot work partition-wise.  Together with the
dataflow pass this is what turns a single query into multi-core work — and
what makes plans balloon past 1000 nodes (paper Figure 2), since every
partition clones a slice of the plan.

This implementation folds both roles into one pass:

* ``sql.bind`` on the chosen table becomes *nparts* partition binds
  (the 7-argument ``sql.bind(..., part, nparts)`` form);
* *partition-transparent* operators (selections, batcalc, mirror,
  left joins against unpartitioned columns) are replicated per partition;
* scalar aggregates over a partitioned input become per-partition
  aggregates plus a fold chain (``calc.add``/``min``/``max``);
* every other consumer of a partitioned variable receives a ``mat.pack``
  of the partitions (inserted once and cached).

Correctness rests on ``mat.pack`` preserving head oids, so packing the
partition results of a partition-transparent operator reproduces exactly
the unpartitioned result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import OptimizerError
from repro.mal.ast import Const, MalInstruction, MalProgram, Var
from repro.storage.types import OID

_SELECTIONS = {"algebra.select", "algebra.thetaselect", "algebra.likeselect"}
_LEFT_PARTITIONED_JOINS = {"algebra.leftjoin", "algebra.join"}
_AGG_FOLD = {"sum": "add", "count": "add", "min": "min", "max": "max"}


class Mitosis:
    """Partition the dominant table over ``nparts`` plan fragments.

    Args:
        nparts: number of horizontal partitions (usually the worker count).
        threshold_rows: with a catalog attached, tables smaller than this
            are left alone (partitioning tiny tables only adds overhead).
        catalog: optional catalog used to pick the largest table by actual
            row count; without one the table referenced by the most
            ``sql.bind`` instructions is chosen.
    """

    name = "mitosis"

    def __init__(self, nparts: int = 4, threshold_rows: int = 1000,
                 catalog=None) -> None:
        if nparts < 1:
            raise OptimizerError("mitosis needs nparts >= 1")
        self.nparts = nparts
        self.threshold_rows = threshold_rows
        self.catalog = catalog

    # ------------------------------------------------------------------

    def run(self, program: MalProgram) -> MalProgram:
        if self.nparts == 1:
            return program
        target = self._choose_target(program)
        if target is None:
            return program
        source = program.instructions
        program.instructions = []  # rewritten from ``source``
        partitions: Dict[str, List[str]] = {}
        packed: Dict[str, Var] = {}
        for instr in source:
            if instr.qualified_name == "sql.bind" \
                    and self._is_target_bind(instr, target):
                partitions[instr.results[0]] = self._emit_partition_binds(
                    program, instr
                )
                continue
            for arg in instr.args:
                if arg.__class__ is Var and arg.name in partitions:
                    break
            else:  # reads nothing partitioned: kept as it is
                program.instructions.append(instr)
                continue
            if self._partition_transparent(instr, partitions, program):
                self._emit_replicas(program, instr, partitions)
                continue
            if self._foldable_aggregate(instr, partitions, program):
                self._emit_folded_aggregate(program, instr, partitions)
                continue
            self._emit_with_packs(program, instr, partitions, packed)
        return program

    # ------------------------------------------------------------------
    # target choice
    # ------------------------------------------------------------------

    def _choose_target(self, program: MalProgram) -> Optional[Tuple[str, str]]:
        counts: Dict[Tuple[str, str], int] = {}
        for instr in program.instructions:
            if instr.qualified_name == "sql.bind":
                key = self._bind_key(instr)
                if key is not None:
                    counts[key] = counts.get(key, 0) + 1
        if not counts:
            return None
        if self.catalog is not None:
            best, best_rows = None, -1
            for schema, table in counts:
                try:
                    rows = self.catalog.schema(schema).table(table).row_count()
                except Exception:
                    continue
                if rows > best_rows:
                    best, best_rows = (schema, table), rows
            if best is None or best_rows < self.threshold_rows:
                return None
            return best
        return max(counts, key=lambda k: (counts[k], k))

    @staticmethod
    def _bind_key(instr: MalInstruction) -> Optional[Tuple[str, str]]:
        if instr.qualified_name != "sql.bind" or len(instr.args) != 5:
            return None
        schema_arg, table_arg, access = instr.args[1], instr.args[2], instr.args[4]
        if not all(isinstance(a, Const) for a in (schema_arg, table_arg, access)):
            return None
        if access.value != 0:
            return None
        return str(schema_arg.value), str(table_arg.value)

    def _is_target_bind(self, instr: MalInstruction,
                        target: Tuple[str, str]) -> bool:
        return self._bind_key(instr) == target and len(instr.results) == 1

    # ------------------------------------------------------------------
    # rewriting
    # ------------------------------------------------------------------

    def _emit_partition_binds(self, out: MalProgram,
                              instr: MalInstruction) -> List[str]:
        return [out.call("sql", "bind",
                         list(instr.args) + [Const(index), Const(self.nparts)],
                         out.type_of(instr.results[0])).name
                for index in range(self.nparts)]

    def _partition_transparent(self, instr: MalInstruction,
                               partitions: Dict[str, List[str]],
                               program: MalProgram) -> bool:
        qname = instr.qualified_name
        args = instr.args
        #: which arguments are partitioned variables
        parted = [arg.__class__ is Var and arg.name in partitions
                  for arg in args]

        if qname in _SELECTIONS:
            return parted[0] and not any(parted[1:])
        if qname == "bat.mirror":
            return parted[0]
        if qname in _LEFT_PARTITIONED_JOINS:
            if len(args) != 2 or not parted[0]:
                return False
            if not parted[1]:
                return True  # projection against the full column
            # both sides partitioned: only safe when the left side is a
            # candidate list (oid tails) matching the same oid ranges
            spec = program.type_of(args[0].name)
            return spec.is_bat and spec.tail is not None \
                and spec.tail.name == "oid"
        if qname == "algebra.semijoin":
            # semijoin filters by head membership; heads of both sides
            # live in the same partition's oid range
            return len(args) == 2 and parted[0] and parted[1]
        if instr.module == "batcalc":
            return all(
                is_part or isinstance(arg, Const)
                for arg, is_part in zip(args, parted)
            )
        return False

    def _emit_replicas(self, out: MalProgram, instr: MalInstruction,
                       partitions: Dict[str, List[str]]) -> None:
        result_parts: Dict[str, List[str]] = {r: [] for r in instr.results}
        for index in range(self.nparts):
            new_args = []
            for arg in instr.args:
                if isinstance(arg, Var) and arg.name in partitions:
                    new_args.append(Var(partitions[arg.name][index]))
                else:
                    new_args.append(arg)
            new_results = []
            for res in instr.results:
                var = out.new_var(out.type_of(res))
                new_results.append(var)
                result_parts[res].append(var)
            out.add(instr.module, instr.function, new_args, new_results)
        partitions.update(result_parts)

    def _foldable_aggregate(self, instr: MalInstruction,
                            partitions: Dict[str, List[str]],
                            program: MalProgram) -> bool:
        """A scalar sum/count/min/max of a partitioned BAT, typed (its
        partials are folded in a BAT of its type)."""
        return (
            instr.module == "aggr"
            and instr.function in _AGG_FOLD
            and len(instr.args) == 1
            and isinstance(instr.args[0], Var)
            and instr.args[0].name in partitions
            and len(instr.results) == 1
            and program.type_of(instr.results[0]).kind == "scalar"
        )

    def _emit_folded_aggregate(self, out: MalProgram, instr: MalInstruction,
                               partitions: Dict[str, List[str]]) -> None:
        """Per-partition aggregates folded through a partials BAT of the
        aggregate's own type.

        An empty partition yields a nil partial (except ``count``), so
        the fold must skip nils — re-aggregating a BAT of partials does
        exactly that, mirroring MonetDB's mergetable rewrite.
        """
        partials = [out.call("aggr", instr.function, [Var(part)])
                    for part in partitions[instr.args[0].name]]
        accumulator = out.call("bat", "new", [
            Const(None, OID),
            Const(None, out.type_of(instr.results[0]).tail)])
        for partial in partials:
            accumulator = out.call("bat", "append", [accumulator, partial])
        # partial counts are summed; sums/mins/maxes re-aggregate; the
        # final value lands in the original result name so downstream
        # instructions keep working untouched
        fold = "sum" if instr.function == "count" else instr.function
        out.add("aggr", fold, [accumulator], [instr.results[0]])

    def _emit_with_packs(self, out: MalProgram, instr: MalInstruction,
                         partitions: Dict[str, List[str]],
                         packed: Dict[str, Var]) -> None:
        new_args = []
        for arg in instr.args:
            if isinstance(arg, Var) and arg.name in partitions:
                pack_var = packed.get(arg.name)
                if pack_var is None:
                    pack_var = packed[arg.name] = out.call(
                        "mat", "pack",
                        [Var(p) for p in partitions[arg.name]])
                new_args.append(pack_var)
            else:
                new_args.append(arg)
        instr.args = new_args
        out.instructions.append(instr)
