"""Conditions, life records and condition-variable resolution.

A condition is a plain mapping from column name to value.  Column names may
carry a unit suffix (temp_C, voltstress_V_per_mm, rh_frac); model formulas
refer to variables by their base name and resolution handles the suffix.
Temperature variables must carry an explicit _C or _K suffix.

Resolution is a lookup that depends only on a condition's keys
(`variable_source`, `temperature_source`) followed by a read, so rows that
share their keys resolve a variable once for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Mapping

from .errors import DataError, MissingVariableError, UnitMismatchError
from .units import Temperature, to_kelvin

FAILED = "failed"
CENSORED = "censored"
STATUSES = (FAILED, CENSORED)

# Variables that can be computed from others when not supplied directly.
# Writing a model in terms of the ratio rather than its components avoids
# induced interactions, so the ratio is resolvable either way.
_DERIVED = {
    "voltstress": ("voltage", "thickness", lambda v, th: v / th),
}


@dataclass(frozen=True)
class LifeRecord:
    """One observation: a time, failed/censored status, and its condition."""

    time: float
    status: str
    condition: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.time > 0.0:
            raise DataError(f"lifetime must be > 0, got {self.time}")
        if not math.isfinite(self.time):
            raise DataError(f"lifetime must be finite, got {self.time}")
        if self.status not in STATUSES:
            raise DataError(f"status must be one of {STATUSES}, got {self.status!r}")

    @property
    def failed(self) -> bool:
        return self.status == FAILED


def _prefix_matches(keys: Collection[str], name: str) -> list[str]:
    prefix = name + "_"
    return [key for key in keys if key.startswith(prefix)]


def variable_source(keys: Collection[str], name: str):
    """Where variable `name` is read from, given the keys of a condition.

    The source is the column named `name`, else its one unit-suffixed
    column, else for a derived variable (for example voltstress = voltage
    / thickness) the tuple (combine, left source, right source).  Raises
    MissingVariableError when no column matches or several do.
    """
    if name in keys:
        return name
    matches = _prefix_matches(keys, name)
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        raise MissingVariableError(
            f"variable {name!r} is ambiguous: columns {sorted(matches)}"
        )
    if name in _DERIVED:
        left, right, combine = _DERIVED[name]
        try:
            return (combine, variable_source(keys, left), variable_source(keys, right))
        except MissingVariableError:
            pass
    raise MissingVariableError(f"condition has no variable {name!r}")


def read_variable(source, read: Callable[[str], Any]):
    """The value of a variable_source, with `read(key)` giving one column's
    value: a float from one condition, or an array over many."""
    if isinstance(source, str):
        return read(source)
    combine, left, right = source
    return combine(read_variable(left, read), read_variable(right, read))


def resolve_variable(condition: Mapping[str, float], name: str) -> float:
    """Look up a variable by base name, tolerating a unit-suffixed column.

    Falls back to the derived-variable table (for example voltstress =
    voltage / thickness) when no column matches; a derived value that
    divides by zero raises DataError, as it does in a design matrix.
    """
    try:
        return read_variable(variable_source(condition, name),
                             lambda key: float(condition[key]))
    except ZeroDivisionError:
        raise DataError(f"condition variable {name!r} divides by zero") from None


def temperature_source(keys: Collection[str], name: str) -> tuple[str, str]:
    """The column carrying temperature `name` among `keys` and its unit,
    "celsius" or "kelvin"; the column must end in _C or _K."""
    names = [name] if name.endswith(("_C", "_K")) else [name + "_C", name + "_K"]
    candidates = [key for key in names if key in keys]
    if not candidates:
        if name in keys or _prefix_matches(keys, name):
            raise UnitMismatchError(
                f"temperature variable {name!r} needs an explicit _C or _K column suffix"
            )
        raise MissingVariableError(f"condition has no temperature variable {name!r}")
    if len(candidates) > 1:
        raise UnitMismatchError(f"temperature {name!r} supplied in both _C and _K")
    key = candidates[0]
    return key, "celsius" if key.endswith("_C") else "kelvin"


def resolve_kelvin(condition: Mapping[str, float], name: str) -> float:
    """Resolve a temperature variable to kelvin; the column must end in _C or _K."""
    key, unit = temperature_source(condition, name)
    return to_kelvin(Temperature(float(condition[key]), unit))
