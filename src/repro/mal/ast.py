"""MAL abstract syntax: variables, type specs, instructions, programs.

A MAL plan is a ``function ... end`` block containing a straight-line
sequence of instructions.  Each instruction assigns the results of a
``module.function(args)`` call to zero or more variables::

    X_10:bat[:oid,:int] := sql.bind(X_2,"sys","lineitem","l_partkey",0);

Variables are write-once (SSA-like), which is what makes the plan a
dataflow DAG: an edge runs from the instruction defining a variable to
every instruction using it.  The Stethoscope exploits exactly this
property — the plan's dot file is that DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.errors import MalError
from repro.storage.catalog import UNOBSERVED, Observed
from repro.storage.types import MalType, OID, format_value, type_by_name


@dataclass(frozen=True)
class TypeSpec:
    """A MAL type annotation: a scalar atom or a ``bat[:head,:tail]``."""

    kind: str  # "scalar" | "bat" | "any"
    head: Optional[MalType] = None
    tail: Optional[MalType] = None

    def __str__(self) -> str:
        if self.kind == "scalar":
            return f":{self.tail.name}"  # type: ignore[union-attr]
        if self.kind == "bat":
            head = self.head.name if self.head else "oid"
            tail = self.tail.name if self.tail else "any"
            return f":bat[:{head},:{tail}]"
        return ":any"

    @property
    def is_bat(self) -> bool:
        return self.kind == "bat"


ANY = TypeSpec("any")


# A TypeSpec is immutable and there are few (atoms squared), so the two
# constructors hand out one object per type: a compile asks ~15 times.


@lru_cache(maxsize=None)
def scalar_of(name_or_type: Union[str, MalType]) -> TypeSpec:
    """TypeSpec for a scalar atom, by name or MalType."""
    mal_type = (
        type_by_name(name_or_type) if isinstance(name_or_type, str) else name_or_type
    )
    return TypeSpec("scalar", tail=mal_type)


@lru_cache(maxsize=None)
def bat_of(tail: Union[str, MalType], head: Union[str, MalType] = OID) -> TypeSpec:
    """TypeSpec for a BAT with the given tail (and oid head by default)."""
    tail_type = type_by_name(tail) if isinstance(tail, str) else tail
    head_type = type_by_name(head) if isinstance(head, str) else head
    return TypeSpec("bat", head=head_type, tail=tail_type)


@dataclass(frozen=True)
class Var:
    """A reference to a MAL variable by name (e.g. ``X_10``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A literal argument with an optional explicit type annotation,
    printed for a nil too (``nil:int``), as the parser reads it back."""

    value: Any
    mal_type: Optional[MalType] = None

    def __str__(self) -> str:
        text = format_value(self.value)
        if self.mal_type is not None and not isinstance(self.value, str):
            return f"{text}:{self.mal_type.name}"
        return text


Argument = Union[Var, Const]


@dataclass
class MalInstruction:
    """One MAL statement.

    Attributes:
        results: names of the variables assigned (may be empty for pure
            side-effect calls such as ``sql.exportResult``).
        module: MAL module name (``algebra``, ``bat``, ...).
        function: function name inside the module (``leftjoin``, ...).
        args: positional arguments, each a :class:`Var` or :class:`Const`.
        pc: program counter — the index of this instruction inside its
            program, the key that maps trace events to dot-file nodes.
    """

    results: List[str]
    module: str
    function: str
    args: List[Argument]
    pc: int = -1
    #: memoized module-registry implementation, resolved lazily by the
    #: first execution (interpreter or scheduler) and reused for every
    #: later run of the same compiled program (e.g. plan-cache hits).
    #: Excluded from repr/equality: it is derived state, not identity.
    impl_cache: Optional[Callable] = field(default=None, repr=False,
                                           compare=False)
    #: ``module.function`` as printed in plans and traces; nothing
    #: assigns ``module`` or ``function`` after construction.
    qualified_name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.qualified_name = f"{self.module}.{self.function}"

    def uses(self) -> Iterator[str]:
        """Names of variables this instruction reads."""
        for arg in self.args:
            if isinstance(arg, Var):
                yield arg.name

    def defines(self) -> Iterator[str]:
        """Names of variables this instruction writes."""
        return iter(self.results)

    def __str__(self) -> str:
        from repro.mal.printer import format_instruction

        return format_instruction(self)


class DefUse(NamedTuple):
    """What one walk over a valid program finds (:meth:`MalProgram.def_use`);
    instructions are named by their index in the list."""

    #: variable -> the instruction that assigns it
    sites: Dict[str, int]
    #: variable -> the last instruction that reads it, in order of
    #: first use; a variable nothing reads is absent
    last_use: Dict[str, int]


class MalProgram:
    """A MAL function body: an ordered list of instructions plus types.

    Instructions are appended via :meth:`add`; variable names are unique
    (write-once) and fresh names can be drawn from :meth:`new_var`.
    """

    def __init__(self, name: str = "user.main",
                 properties: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.properties: Dict[str, Any] = dict(properties or {})
        self.instructions: List[MalInstruction] = []
        self.var_types: Dict[str, TypeSpec] = {}
        self._counter = 0
        #: set by the dataflow optimizer pass; the interpreter consults it.
        self.dataflow_enabled = False
        #: what the plan assumed of the tables it reads (a
        #: :class:`~repro.storage.catalog.Observed`), set by :meth:`seal`
        self.reads = UNOBSERVED
        #: None while passes may still edit the program; once sealed,
        #: what :meth:`derived` computed from the instruction list
        self._derived: Optional[Dict[Callable, Any]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def new_var(self, type_spec: Optional[TypeSpec] = None) -> str:
        """Allocate a fresh variable name (``X_<n>``) with a type; without
        one, :meth:`add` types it by its kernel."""
        while True:
            name = f"X_{self._counter}"
            self._counter += 1
            if name not in self.var_types:
                if type_spec is not None:
                    self.var_types[name] = type_spec
                return name

    def declare(self, name: str, type_spec: TypeSpec = ANY) -> str:
        """Register an externally chosen variable name."""
        if name in self.var_types:
            raise MalError(f"variable {name} already declared")
        self.var_types[name] = type_spec
        return name

    def add(self, module: str, function: str, args: Sequence[Argument] = (),
            results: Sequence[str] = ()) -> MalInstruction:
        """Append an instruction; a result not declared yet takes the type
        its kernel returns (:meth:`type_results`), ``ANY`` if unknown."""
        instr = MalInstruction(list(results), module, function, list(args),
                               pc=len(self.instructions))
        self.type_results(instr)
        self.instructions.append(instr)
        return instr

    def type_results(self, instr: MalInstruction) -> None:
        """Declare each result of ``instr`` not declared yet with the type
        its kernel returns (:func:`repro.mal.modules.result_types`)."""
        types, derived = self.var_types, None
        for index, name in enumerate(instr.results):
            if name not in types:
                if derived is None:
                    derived = _kernels.result_types(instr, types)
                types[name] = derived[index] if index < len(derived) else ANY

    def call(self, module: str, function: str, args: Sequence[Argument] = (),
             result_type: Optional[TypeSpec] = None) -> Var:
        """Append a single-result instruction and return a Var for it,
        typed ``result_type`` or by its kernel, as :meth:`add` types it."""
        # not through add(): one derive and no loop is 0.6 us less per
        # call by timeit, ~9 us of a compiled plan's 15 front-end calls
        instr = MalInstruction([], module, function, list(args),
                               len(self.instructions))
        if result_type is None:
            result_type = (_kernels.result_types(instr, self.var_types)
                           or (ANY,))[0]
        instr.results.append(self.new_var(result_type))
        self.instructions.append(instr)
        return Var(instr.results[0])

    def renumber(self) -> None:
        """Re-assign pcs after structural edits (optimizer passes)."""
        for pc, instr in enumerate(self.instructions):
            instr.pc = pc

    def freeze(self) -> None:
        """No pass edits the program from here on, so whatever is
        computed from the instruction list (:meth:`derived`) is computed
        once and kept."""
        self._derived = {}

    def seal(self, reads: Observed) -> None:
        """Finish the program as a plan: frozen (what
        :meth:`Pipeline.apply <repro.mal.optimizer.Pipeline.apply>`
        already derived from it — the validation verdict and the
        def-use walk — stays), and ``reads`` is what the plan may
        assume of the tables it binds until one of them changes.

        The passes edited the one program they were handed, and the
        numbering every derived structure is keyed by lives in its
        instruction objects, so the caller must hold the only program
        these instructions are part of.  ``Database._plan`` does: the
        program the compiler built is the plan.  Copies taken here
        would lift the condition at 1-1.4 us per instruction.
        """
        self.reads = reads
        if self._derived is None:
            self.freeze()

    def derived(self, build: Callable[["MalProgram"], Any]) -> Any:
        """``build(self)`` — kept, for a frozen program, so that every
        run after the first derives nothing; a program still open to
        edits is asked again each time."""
        memo = self._derived
        if memo is None:
            return build(self)
        try:
            return memo[build]
        except KeyError:
            value = memo[build] = build(self)
            return value

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def tables_read(self) -> List[Tuple[str, str]]:
        """``(schema, table)`` of every table the plan reads, sorted:
        the constant arguments of its ``sql.bind``/``sql.tid`` calls."""
        names = set()
        for instr in self.instructions:
            if instr.module == "sql" and instr.function in ("bind", "tid") \
                    and len(instr.args) >= 3:
                schema, table = instr.args[1:3]
                if isinstance(schema, Const) and isinstance(table, Const):
                    names.add((str(schema.value), str(table.value)))
        return sorted(names)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[MalInstruction]:
        return iter(self.instructions)

    def type_of(self, var_name: str) -> TypeSpec:
        """Declared type of a variable (``ANY`` when unknown)."""
        return self.var_types.get(var_name, ANY)

    def defining_instruction(self, var_name: str) -> Optional[MalInstruction]:
        """The instruction that defines ``var_name``, if any."""
        for instr in self.instructions:
            if var_name in instr.results:
                return instr
        return None

    def def_sites(self) -> Dict[str, int]:
        """Map variable name -> pc of its defining instruction."""
        sites: Dict[str, int] = {}
        for instr in self.instructions:
            for res in instr.results:
                if res not in sites:
                    sites[res] = instr.pc
        return sites

    def dependencies(self) -> Dict[int, Set[int]]:
        """Dataflow dependencies: pc -> set of pcs it depends on.

        An instruction depends on the defining instruction of each of its
        argument variables.  Because variables are write-once the relation
        is acyclic, so the result is the DAG drawn in the dot file.
        """
        sites = self.def_sites()
        deps: Dict[int, Set[int]] = {}
        for instr in self.instructions:
            wanted: Set[int] = set()
            for used in instr.uses():
                site = sites.get(used)
                if site is not None and site != instr.pc:
                    wanted.add(site)
            deps[instr.pc] = wanted
        return deps

    def users(self) -> Dict[str, List[int]]:
        """Map variable name -> pcs of instructions that read it."""
        out: Dict[str, List[int]] = {}
        for instr in self.instructions:
            for arg in instr.args:
                if arg.__class__ is Var:
                    out.setdefault(arg.name, []).append(instr.pc)
        return out

    def def_use(self) -> DefUse:
        """Walk the instructions once: where each variable is assigned
        and where it is last read — and, on the way, SSA discipline and
        use-before-def.

        Raises:
            MalError: a variable is read before, or assigned after, its
                one assignment.
        """
        sites: Dict[str, int] = {}
        last_use: Dict[str, int] = {}
        for index, instr in enumerate(self.instructions):
            for arg in instr.args:
                if arg.__class__ is Var:
                    if arg.name not in sites:
                        raise MalError(
                            f"pc={instr.pc}: variable {arg.name} used "
                            f"before definition"
                        )
                    last_use[arg.name] = index
            for res in instr.results:
                if res in sites:
                    raise MalError(
                        f"pc={instr.pc}: variable {res} assigned twice"
                    )
                sites[res] = index
        return DefUse(sites, last_use)

    def validate(self) -> None:
        """Check SSA discipline, use-before-def and every instruction
        against its kernel's signature
        (:func:`repro.mal.modules.check_types`); raises MalError."""
        self.derived(MalProgram.def_use)
        _kernels.check_types(self)

    def __str__(self) -> str:
        from repro.mal.printer import format_program

        return format_program(self)


# The kernel registry decides result types; its modules import this one.
from repro.mal import modules as _kernels  # noqa: E402
