"""Adaptive selection ordering: observed selectivity drives plan shape.

The SQL front end emits pushable predicates as a *select chain* over one
table's candidate list, in syntactic order::

    sel0  := algebra.select(bind_a, ...)        # link 0
    cand0 := bat.mirror(sel0)
    src1  := algebra.leftjoin(cand0, bind_b)    # link 1
    sel1  := algebra.select(src1, ...)
    cand1 := algebra.semijoin(cand0, sel1)
    ...

Each link intersects the running candidate list with one predicate's
matching positions, so the links commute: every order produces the same
final candidate set — the ascending list of row ids passing *all*
predicates.  (Selection kernels return ascending positions, ``mirror``
and ``semijoin`` preserve ascending order and the tail==head candidate
invariant, hence the final candidate is ``sorted(intersection)``
regardless of link order; ``tests/test_adaptive.py`` pins this down.)
What order *does* change is cost: running the most selective predicate
first shrinks the candidate list — and with it every later link's
``leftjoin``/``semijoin`` input — as early as possible.

This pass reorders chain links most-selective-first using the observed
selectivities the :class:`~repro.stats.StatsStore` accumulated from
profiler traces (LOGER-style learned cardinalities rather than a static
estimator).  With no stats — or when the observed order is already
optimal — the program is returned *unchanged and identical*, so running
without feedback reproduces today's plans byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.mal.ast import Const, MalInstruction, MalProgram, Var
from repro.metrics.families import ADAPTIVE_REORDERS
from repro.stats import StatsStore, select_signature

_SELECTS = frozenset((
    "algebra.select", "algebra.thetaselect", "algebra.likeselect",
))


class _Link:
    """One predicate of a select chain, in re-emittable form."""

    __slots__ = ("pcs", "bind_var", "qname", "consts", "cand_var")

    def __init__(self, pcs: Set[int], bind_var: Var, qname: str,
                 consts: Sequence[Const], cand_var: str) -> None:
        self.pcs = pcs              # chain-owned pcs (not the bind)
        self.bind_var = bind_var    # the sql.bind result feeding the link
        self.qname = qname          # algebra.select / thetaselect / like
        self.consts = list(consts)  # the constant predicate arguments
        self.cand_var = cand_var    # candidate produced by this link


class _Rewrite:
    __slots__ = ("chain_pcs", "insert_at", "moved_bind_pcs", "emit")

    def __init__(self, chain_pcs: Set[int], insert_at: int,
                 moved_bind_pcs: List[int],
                 emit: List[MalInstruction]) -> None:
        self.chain_pcs = chain_pcs
        self.insert_at = insert_at
        self.moved_bind_pcs = moved_bind_pcs
        self.emit = emit


class AdaptiveOrder:
    """Reorder commutable select chains by observed selectivity.

    Attributes:
        stats: the :class:`~repro.stats.StatsStore` to consult; injected
            by ``Database._pipeline`` (like ``Mitosis.catalog``).  With
            no store the pass is inert.
        scope: the tables the statement reads and their row counts
            (:attr:`repro.storage.catalog.Observed.scope`), which the
            lookups are keyed by; injected the same way.
        unknown: whether the last :meth:`run` met a chain with no
            observed selectivity at all (``outcome="unknown"``), which
            so kept its syntactic order; the plan cache re-plans such a
            plan once, after its first run has been observed.
    """

    name = "adaptive_order"

    def __init__(self, stats: Optional[StatsStore] = None,
                 scope: Optional[str] = None) -> None:
        self.stats = stats
        self.scope = scope
        self.unknown = False

    # ------------------------------------------------------------------

    def run(self, program: MalProgram) -> MalProgram:
        self.unknown = False
        if self.stats is None or self.scope is None:
            return program
        names = {instr.qualified_name for instr in program.instructions}
        if not {"bat.mirror", "algebra.semijoin"} <= names:
            return program  # a chain of two links has one of each
        program.renumber()  # chains are found and rewritten by pc
        chains = self._find_chains(program)
        rewrites: List[_Rewrite] = []
        for links in chains:
            rewrite = self._plan_rewrite(program, links)
            if rewrite is not None:
                rewrites.append(rewrite)
        if not rewrites:
            return program
        return self._apply(program, rewrites)

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------

    def _find_chains(self, program: MalProgram) -> List[List[_Link]]:
        defs: Dict[str, MalInstruction] = {}
        for instr in program.instructions:
            for res in instr.results:
                defs[res] = instr
        users = program.users()
        chains: List[List[_Link]] = []
        claimed: Set[int] = set()

        for instr in program.instructions:
            if instr.qualified_name != "bat.mirror" or instr.pc in claimed:
                continue
            if len(instr.args) != 1 or not isinstance(instr.args[0], Var):
                continue
            sel = defs.get(instr.args[0].name)
            first = self._as_select(sel, defs, users)
            if first is None:
                continue
            bind_var, qname, consts = first
            # the selection must feed this mirror and nothing else
            if users.get(sel.results[0], []) != [instr.pc]:
                continue
            links = [_Link({sel.pc, instr.pc}, bind_var, qname, consts,
                           instr.results[0])]
            while True:
                link = self._extend(program, links[-1], defs, users)
                if link is None:
                    break
                links.append(link)
            if len(links) >= 2:
                chains.append(links)
                for link in links:
                    claimed.update(link.pcs)
        return chains

    @staticmethod
    def _as_select(sel: Optional[MalInstruction], defs, users):
        """(bind_var, qname, consts) when ``sel`` is a
        selection reading a ``sql.bind`` directly; else None."""
        if sel is None or sel.qualified_name not in _SELECTS:
            return None
        if not sel.args or not isinstance(sel.args[0], Var):
            return None
        if not all(isinstance(arg, Const) for arg in sel.args[1:]):
            return None
        bind = defs.get(sel.args[0].name)
        if bind is None or bind.qualified_name != "sql.bind":
            return None
        return (sel.args[0], sel.qualified_name, sel.args[1:])

    def _extend(self, program: MalProgram, prev: _Link,
                defs: Dict[str, MalInstruction],
                users: Dict[str, List[int]]) -> Optional[_Link]:
        """The next link consuming ``prev.cand_var``, or None.

        A candidate is extendable only when it is consumed by exactly one
        ``leftjoin`` + ``semijoin`` pair of the canonical shape, with all
        intermediates private to the link — otherwise reordering could
        change what some outside consumer observes.
        """
        reader_pcs = users.get(prev.cand_var, [])
        if len(reader_pcs) != 2:
            return None
        join = semi = None
        for candidate in (program.instructions[pc] for pc in reader_pcs):
            if candidate.qualified_name == "algebra.leftjoin":
                join = candidate
            elif candidate.qualified_name == "algebra.semijoin":
                semi = candidate
        if join is None or semi is None:
            return None
        if len(join.args) != 2 or len(semi.args) != 2:
            return None
        if not (isinstance(join.args[0], Var)
                and join.args[0].name == prev.cand_var
                and isinstance(semi.args[0], Var)
                and semi.args[0].name == prev.cand_var):
            return None
        if not isinstance(join.args[1], Var):
            return None
        bind = defs.get(join.args[1].name)
        if bind is None or bind.qualified_name != "sql.bind":
            return None
        # the projection must feed exactly one selection
        src_var = join.results[0]
        src_readers = users.get(src_var, [])
        if len(src_readers) != 1:
            return None
        sel = program.instructions[src_readers[0]]
        if sel.qualified_name not in _SELECTS:
            return None
        if not (sel.args and isinstance(sel.args[0], Var)
                and sel.args[0].name == src_var):
            return None
        if not all(isinstance(arg, Const) for arg in sel.args[1:]):
            return None
        # the selection must feed exactly the semijoin
        if users.get(sel.results[0], []) != [semi.pc]:
            return None
        if not (isinstance(semi.args[1], Var)
                and semi.args[1].name == sel.results[0]):
            return None
        return _Link({join.pc, sel.pc, semi.pc}, join.args[1],
                     sel.qualified_name, sel.args[1:], semi.results[0])

    # ------------------------------------------------------------------
    # decision + rewrite
    # ------------------------------------------------------------------

    def _plan_rewrite(self, program: MalProgram,
                      links: List[_Link]) -> Optional[_Rewrite]:
        defs = program.def_sites()
        selectivities: List[float] = []
        observed = 0
        for link in links:
            column = self._column_of(program, defs, link.bind_var)
            estimate = None
            if column is not None:
                estimate = self.stats.selectivity(
                    select_signature(link.qname, column, link.consts),
                    self.scope)
            if estimate is not None:
                observed += 1
            selectivities.append(1.0 if estimate is None else estimate)
        if observed == 0:
            self.unknown = True
            ADAPTIVE_REORDERS.labels(outcome="unknown").inc()
            return None
        order = sorted(range(len(links)), key=lambda i: selectivities[i])
        if order == list(range(len(links))):
            ADAPTIVE_REORDERS.labels(outcome="kept").inc()
            return None
        ADAPTIVE_REORDERS.labels(outcome="reordered").inc()
        return self._build_rewrite(program, defs, links, order)

    @staticmethod
    def _column_of(program: MalProgram, defs: Dict[str, int],
                   bind_var: Var) -> Optional[str]:
        pc = defs.get(bind_var.name)
        if pc is None:
            return None
        bind = program.instructions[pc]
        if len(bind.args) < 4:
            return None
        parts = []
        for arg in bind.args[1:4]:
            if not isinstance(arg, Const):
                return None
            parts.append(str(arg.value))
        return ".".join(parts)

    def _build_rewrite(self, program: MalProgram, defs: Dict[str, int],
                       links: List[_Link],
                       order: List[int]) -> _Rewrite:
        chain_pcs: Set[int] = set()
        for link in links:
            chain_pcs.update(link.pcs)
        insert_at = min(chain_pcs)

        # binds defined after the insertion point must be hoisted up to
        # it (they depend only on the mvc and constants, so this is
        # SSA-safe); binds already above the insertion point stay put
        moved_bind_pcs: List[int] = []
        seen_binds: Set[str] = set()
        for link in links:
            name = link.bind_var.name
            if name in seen_binds:
                continue
            seen_binds.add(name)
            bind_pc = defs[name]
            if bind_pc > insert_at:
                moved_bind_pcs.append(bind_pc)
        moved_bind_pcs.sort()

        final_cand = links[-1].cand_var
        emit: List[MalInstruction] = []

        def link_step(qname: str, args: List, result: str) -> str:
            """A re-emitted instruction, its fresh result typed by its
            kernel (the chain's last candidate keeps its name)."""
            module, function = qname.split(".")
            instr = MalInstruction([result], module, function, args, pc=0)
            program.type_results(instr)
            emit.append(instr)
            return result

        prev_cand: Optional[str] = None
        for position, index in enumerate(order):
            link = links[index]
            is_last = position == len(order) - 1
            sel_var = program.new_var()
            if prev_cand is None:
                link_step(link.qname, [link.bind_var] + list(link.consts),
                          sel_var)
                cand_var = link_step(
                    "bat.mirror", [Var(sel_var)],
                    final_cand if is_last else program.new_var())
            else:
                src_var = link_step(
                    "algebra.leftjoin", [Var(prev_cand), link.bind_var],
                    program.new_var())
                link_step(link.qname, [Var(src_var)] + list(link.consts),
                          sel_var)
                cand_var = link_step(
                    "algebra.semijoin", [Var(prev_cand), Var(sel_var)],
                    final_cand if is_last else program.new_var())
            prev_cand = cand_var
        return _Rewrite(chain_pcs, insert_at, moved_bind_pcs, emit)

    @staticmethod
    def _apply(program: MalProgram,
               rewrites: List[_Rewrite]) -> MalProgram:
        emit_at: Dict[int, _Rewrite] = {
            rewrite.insert_at: rewrite for rewrite in rewrites
        }
        skip: Set[int] = set()
        for rewrite in rewrites:
            skip.update(rewrite.chain_pcs)
            skip.update(rewrite.moved_bind_pcs)
        instructions: List[MalInstruction] = []
        for instr in program.instructions:
            rewrite = emit_at.get(instr.pc)
            if rewrite is not None:
                for bind_pc in rewrite.moved_bind_pcs:
                    instructions.append(program.instructions[bind_pc])
                instructions.extend(rewrite.emit)
            if instr.pc in skip:
                continue
            instructions.append(instr)
        program.instructions = instructions
        return program
