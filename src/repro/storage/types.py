"""MAL/MonetDB atom types and nil handling.

MonetDB calls its scalar types *atoms*.  The subset modelled here covers
what TPC-H style workloads need: ``bit`` (boolean), ``int``, ``lng``,
``flt``, ``dbl``, ``str``, ``oid`` (object identifier) and ``date``.

``nil`` (the MonetDB NULL) is represented by Python ``None`` in BAT tails
and variable values; :data:`nil` is an alias kept for readability at call
sites that talk about MAL semantics.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import TypeMismatchError

#: The MAL nil value.  MonetDB prints it as ``nil``; we store it as None.
nil = None


def logical_and(a: Any, b: Any) -> Optional[bool]:
    """SQL's three-valued AND: a false operand makes it false, else a
    nil one makes it nil."""
    if a and b:
        return True
    return nil if (a is nil or a) and (b is nil or b) else False


def logical_or(a: Any, b: Any) -> Optional[bool]:
    """SQL's three-valued OR: a true operand makes it true, else a nil
    one makes it nil."""
    if a or b:
        return True
    return nil if a is nil or b is nil else False


@dataclass(frozen=True)
class MalType:
    """A MAL atom type.

    Attributes:
        name: the MAL type name as printed in plans (``int``, ``lng``...).
        pytypes: Python types accepted for values of this atom.
        width: nominal width in bytes, used by memory accounting and the
            simulated cost model.
        caster: function converting a compatible Python value to the
            canonical representation.
    """

    name: str
    pytypes: tuple
    width: int
    caster: Callable[[Any], Any]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MalType({self.name})"

    def is_valid(self, value: Any) -> bool:
        """Return True if ``value`` is nil or an instance of this atom."""
        if value is nil:
            return True
        return isinstance(value, self.pytypes) and not (
            self is BIT and not isinstance(value, bool)
        )


def _cast_bit(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "t", "1"):
            return True
        if lowered in ("false", "f", "0"):
            return False
    raise TypeMismatchError(f"cannot cast {value!r} to bit")


def _cast_int(value: Any) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        return int(value.strip())
    raise TypeMismatchError(f"cannot cast {value!r} to int")


def _cast_dbl(value: Any) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return float(value.strip())
    raise TypeMismatchError(f"cannot cast {value!r} to dbl")


def _cast_str(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float, bool, datetime.date)):
        return str(value)
    raise TypeMismatchError(f"cannot cast {value!r} to str")


def _cast_oid(value: Any) -> int:
    out = _cast_int(value)
    if out < 0:
        raise TypeMismatchError(f"oid must be non-negative, got {value!r}")
    return out


def _cast_date(value: Any) -> datetime.date:
    if isinstance(value, datetime.datetime):
        return value.date()
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        return datetime.date.fromisoformat(value.strip())
    raise TypeMismatchError(f"cannot cast {value!r} to date")


BIT = MalType("bit", (bool,), 1, _cast_bit)
INT = MalType("int", (int,), 4, _cast_int)
LNG = MalType("lng", (int,), 8, _cast_int)
FLT = MalType("flt", (float,), 4, _cast_dbl)
DBL = MalType("dbl", (float,), 8, _cast_dbl)
STR = MalType("str", (str,), 8, _cast_str)
OID = MalType("oid", (int,), 8, _cast_oid)
DATE = MalType("date", (datetime.date,), 4, _cast_date)

_TYPES: Dict[str, MalType] = {
    t.name: t for t in (BIT, INT, LNG, FLT, DBL, STR, OID, DATE)
}

#: Numeric types ordered by promotion rank (int < lng < flt < dbl).
_NUMERIC_RANK = {INT.name: 0, LNG.name: 1, FLT.name: 2, DBL.name: 3}


def type_by_name(name: str) -> MalType:
    """Look up a MAL atom type by its printed name.

    Raises:
        TypeMismatchError: if the name is unknown.
    """
    try:
        return _TYPES[name]
    except KeyError:
        raise TypeMismatchError(f"unknown MAL type {name!r}") from None


def cast_value(value: Any, mal_type: MalType) -> Any:
    """Cast ``value`` to ``mal_type``, passing nil through unchanged."""
    if value is nil:
        return nil
    return mal_type.caster(value)


def infer_type(value: Any) -> MalType:
    """Infer the MAL atom type of a Python value.

    Booleans map to ``bit``, ints to ``int``, floats to ``dbl``, strings to
    ``str`` and dates to ``date``.  nil has no type and raises.
    """
    if value is nil:
        raise TypeMismatchError("cannot infer the type of nil")
    if isinstance(value, bool):
        return BIT
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return DBL
    if isinstance(value, str):
        return STR
    if isinstance(value, datetime.date):
        return DATE
    raise TypeMismatchError(f"no MAL type for Python value {value!r}")


def promote(left: MalType, right: MalType) -> MalType:
    """Return the common numeric type of two atoms (MAL-style promotion).

    Raises:
        TypeMismatchError: if either side is not numeric.
    """
    for side in (left, right):
        if side.name not in _NUMERIC_RANK:
            raise TypeMismatchError(f"{side.name} is not numeric")
    if _NUMERIC_RANK[left.name] >= _NUMERIC_RANK[right.name]:
        return left
    return right


def parse_value(text: str, mal_type: Optional[MalType] = None) -> Any:
    """Parse a MAL literal as printed in plans and traces.

    ``nil`` parses to nil; quoted strings lose their quotes; otherwise the
    text is cast to ``mal_type`` when given, or the narrowest matching type
    (int, then dbl, then str) when not.
    """
    stripped = text.strip()
    if stripped == "nil":
        return nil
    if stripped.startswith('"') and stripped.endswith('"') and len(stripped) >= 2:
        return _unescape(stripped[1:-1])
    if mal_type is not None:
        return cast_value(stripped, mal_type)
    for candidate in (INT, DBL):
        try:
            return candidate.caster(stripped)
        except (TypeMismatchError, ValueError):
            continue
    if stripped in ("true", "false"):
        return stripped == "true"
    return stripped


def format_value(value: Any) -> str:
    """Format a value the way MAL plans print literals."""
    if value is nil:
        return "nil"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + _escape(value) + '"'
    if isinstance(value, datetime.date):
        return '"' + value.isoformat() + '"'
    return str(value)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "n":
                out.append("\n")
            else:
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)
