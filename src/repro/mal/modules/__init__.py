"""MAL instruction set: a registry of ``module.function`` kernels.

A kernel is an implementation, ``impl(ctx, instr, args)`` over the
interpreter's :class:`~repro.mal.interpreter.EvalContext`, the
:class:`~repro.mal.ast.MalInstruction` and the evaluated arguments (BATs
and scalars), returning one value or a tuple (``group.new``); and a
:class:`Signature`, what the implementation returns as a rule over the
argument types.  The signature is the one place a result type is
decided: :meth:`~repro.mal.ast.MalProgram.add` types a result its
emitter leaves undeclared by it, and
:meth:`~repro.mal.ast.MalProgram.validate` checks every declared one
against it (:func:`check_types`).

Importing this package loads every standard module so that the registry
is fully populated.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.errors import MalRuntimeError, MalTypeError, TypeMismatchError
from repro.mal.ast import ANY, Argument, TypeSpec, Var, bat_of
from repro.storage.types import DBL, INT, OID, MalType, infer_type, promote

MalImplementation = Callable[..., Any]
Types = Dict[str, TypeSpec]


class Signature(NamedTuple):
    """``derive(args, var_types)`` answers one TypeSpec per result, or
    raises :class:`Unknown`; ``text`` is how the reference prints it."""

    text: str
    derive: Callable[[Sequence[Argument], Types], Tuple[TypeSpec, ...]]


class Unknown(Exception):
    """A rule needs the type of an argument whose type is not known."""


_REGISTRY: Dict[str, Tuple[MalImplementation, Signature]] = {}


def register(qualified_name: str, signature: Signature
             ) -> Callable[[MalImplementation], MalImplementation]:
    """Decorator registering an implementation and its signature under
    ``module.function``."""

    def wrap(impl: MalImplementation) -> MalImplementation:
        if qualified_name in _REGISTRY:
            raise MalRuntimeError(f"duplicate MAL implementation {qualified_name}")
        _REGISTRY[qualified_name] = (impl, signature)
        return impl

    return wrap


def lookup(module: str, function: str) -> MalImplementation:
    """Find the implementation of ``module.function``.

    Raises:
        MalRuntimeError: when the instruction is not implemented.
    """
    try:
        return _REGISTRY[f"{module}.{function}"][0]
    except KeyError:
        raise MalRuntimeError(
            f"unknown MAL instruction {module}.{function}"
        ) from None


def registered_names() -> list:
    """All registered qualified names, sorted (for docs and tests)."""
    return sorted(_REGISTRY)


def result_types(instr, var_types: Types) -> Tuple[TypeSpec, ...]:
    """What the kernel of ``instr`` returns, one TypeSpec per result;
    empty when the kernel or an argument's type is unknown."""
    kernel = _REGISTRY.get(instr.qualified_name)
    if kernel is not None:
        try:
            return kernel[1][1](instr.args, var_types)  # signature.derive
        except (Unknown, IndexError, TypeMismatchError):
            pass
    return ()


def check_types(program) -> None:
    """Every instruction of ``program`` is registered (else
    MalRuntimeError), and each result it declares is what its kernel
    returns (else MalTypeError); a result declared ``any``, as in
    unannotated MAL text, or whose type is unknown, passes."""
    types = program.var_types
    for instr in program.instructions:
        kernel = _REGISTRY.get(instr.qualified_name)
        if kernel is None:
            raise MalRuntimeError(f"pc={instr.pc}: unknown MAL instruction "
                                  f"{instr.qualified_name}")
        if not instr.results:
            continue
        try:  # result_types inline: 10 rather than 16 us a plan by timeit
            derived = kernel[1].derive(instr.args, types)
        except (Unknown, IndexError, TypeMismatchError):
            continue
        except MalTypeError as error:  # operands that do not promote
            raise MalTypeError(f"pc={instr.pc}: {error}") from None
        for name, want in zip(instr.results, derived):
            have = types.get(name, ANY)
            if have is not want and have.tail is not None \
                    and want.tail is not None and have != want:
                raise MalTypeError(
                    f"pc={instr.pc}: {instr.qualified_name} declares "
                    f"{name}{have} but returns {want}")


# -- the shared rules -------------------------------------------------------

#: the atom of a scalar's Python value where it is not the scalar's own
#: type: what ``infer_type`` tells the kernels that type a result by a
#: value (``BAT.calc_const``, ``BAT.project``, ``batcalc.ifthenelse``)
_VALUE_ATOM = {"lng": INT, "oid": INT, "flt": DBL}


def declared(arg: Argument, var_types: Types) -> TypeSpec:
    """The declared type of a variable argument; a constant has none."""
    spec = var_types.get(arg.name, ANY) if arg.__class__ is Var else ANY
    if spec.tail is None:
        raise Unknown
    return spec


def operand(arg: Argument, var_types: Types) -> Tuple[bool, Optional[MalType]]:
    """``(is a BAT, atom)`` of an argument as a kernel sees it: a BAT's
    tail, a scalar's value's atom (an ``lng`` is an int), a nil
    constant's annotation, None for an untyped nil."""
    if arg.__class__ is not Var:
        return False, arg.mal_type if arg.value is None \
            else infer_type(arg.value)
    spec = declared(arg, var_types)
    if spec.kind == "bat":
        return True, spec.tail
    return False, value_atom(spec)


def column_atom(arg: Argument, var_types: Types) -> MalType:
    """The tail of a column of scalar ``arg`` (``BAT.project``, a scalar
    result column): its atom, ``int`` for an untyped nil."""
    return operand(arg, var_types)[1] or INT


def value_atom(spec: TypeSpec) -> Optional[MalType]:
    """The atom of the value a scalar declared ``spec`` holds (an ``lng``
    is an int); None when ``spec`` is unknown."""
    return spec.tail and _VALUE_ATOM.get(spec.tail.name, spec.tail)


def nil_type(ctx, instr) -> Optional[MalType]:
    """The tail a kernel that types its result by a scalar's value gives
    it when that scalar is nil, which carries no type: the result's
    declared type, its signature's answer (None outside a plan)."""
    program = getattr(ctx, "program", None)
    return (program.type_of(instr.results[0]).tail
            if program is not None and instr.results else None)


def returns(*specs: TypeSpec) -> Signature:
    """Fixed result types, whatever the arguments."""
    return Signature(f"`{', '.join(map(str, specs))}`" if specs else
                     "nothing", lambda args, var_types: specs)


#: ``sql.bind``: the catalog column's type, which only the plan states
DECLARED = Signature("the declared type (the catalog column)",
                     lambda args, var_types: (ANY,))


def tail_of(index: int, of: Callable[[str], TypeSpec] = bat_of
            ) -> Signature:
    """A BAT (or, ``of=scalar_of``, a scalar) of argument ``index``'s
    tail (a scalar's own type)."""

    def derive(args, var_types):
        spec = declared(args[index], var_types)
        return (spec if of is bat_of and spec.kind == "bat"
                and spec.head is OID else of(spec.tail.name),)

    return Signature(f"{'a BAT' if of is bat_of else 'a scalar'} of the "
                     f"tail of argument {index + 1}", derive)


def promoted(function: str, of: Callable[[str], TypeSpec], first: int = 0
             ) -> Signature:
    """The promotion of the atoms of arguments ``first`` and ``first + 1``
    (the operands, or ``ifthenelse``'s branches) of ``calc.function``
    (``of=bat_of``: ``batcalc.function``), led by a BAT one
    (``BAT.calc_const``): numbers promote, a nil takes the other's atom
    and two nils are ``int``; a choice of one value (``ifthenelse``,
    ``min``, ``max``) also keeps two equal atoms.  Any other mix raises
    :class:`MalTypeError` naming the kernel."""
    parts = "branches" if first else "operands"
    choice = first or function in ("min", "max")

    def derive(args, var_types):
        lead_bat, lead = operand(args[first], var_types)
        other_bat, other = operand(args[first + 1], var_types)
        if other_bat and not lead_bat:
            lead, other = other, lead
        if lead is None or other is None or choice and lead is other:
            return (of((lead or other or INT).name),)
        try:
            return (of(promote(lead, other).name),)
        except TypeMismatchError:
            raise MalTypeError(
                f"{'batcalc' if of is bat_of else 'calc'}.{function}: "
                f"{parts} {lead.name} and {other.name} do not promote"
            ) from None

    return Signature(f"the promotion of its {parts} (numbers"
                     f"{', or equal atoms' if choice else ''})", derive)


def binary(name: str, of: Callable[[str], TypeSpec]) -> Signature:
    """``calc``/``batcalc`` ``name``: arithmetic promotes, division is
    ``dbl``, a comparison or a boolean is ``bit``."""
    if name in ("add", "sub", "mul", "mod", "min", "max"):
        return promoted(name, of)
    return returns(of("dbl" if name == "div" else "bit"))


OID_BAT = bat_of("oid")
BIT_BAT = bat_of("bit")


def reference_text() -> str:
    """The MAL instruction-set reference, generated from the registry.

    One section per module, one entry per function with its signature
    and docstring — the stand-in for the MAL reference manual the paper
    cites ([9]).
    """
    by_module: Dict[str, list] = {}
    for qualified_name, (impl, signature) in _REGISTRY.items():
        module, function = qualified_name.split(".", 1)
        by_module.setdefault(module, []).append((function, impl, signature))
    lines = ["# MAL instruction-set reference", ""]
    lines.append(
        "Generated from the kernel registry "
        "(`repro.mal.modules.reference_text()`); regenerate after adding "
        "instructions.  After each name, what the kernel returns: the "
        "signature `MalProgram.validate` checks a plan's types against."
    )
    lines.append("")
    for module in sorted(by_module):
        lines.append(f"## module `{module}`")
        lines.append("")
        for function, impl, signature in sorted(by_module[module]):
            doc = (impl.__doc__ or "(undocumented)").strip()
            doc = " ".join(line.strip() for line in doc.splitlines())
            lines.append(f"* **`{module}.{function}`** → "
                         f"{signature.text} — {doc}")
        lines.append("")
    return "\n".join(lines)


# Populate the registry.
from repro.mal.modules import (  # noqa: E402  (import-time registration)
    aggr,
    algebra,
    batcalc,
    batmod,
    batmtime,
    batstr,
    calc,
    groupmod,
    languagemod,
    mat,
    mtime,
    sqlmod,
)

__all__ = [
    "MalImplementation",
    "Signature",
    "check_types",
    "column_atom",
    "lookup",
    "nil_type",
    "register",
    "registered_names",
    "result_types",
    "value_atom",
]
