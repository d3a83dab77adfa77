"""Conditions, life records, columnar life data and condition-variable
resolution.

A condition is a plain mapping from column name to value.  Column names may
carry a unit suffix (temp_C, voltstress_V_per_mm, rh_frac); model formulas
refer to variables by their base name and resolution handles the suffix.
Temperature variables must carry an explicit _C or _K suffix.

Resolution is a lookup that depends only on a condition's keys
(`variable_source`, `temperature_source`) followed by a read, so rows that
share their keys resolve a variable once for all of them.  LifeData holds
many records as columns, every row with the same condition keys; its
checks give rules that `raise_first_bad` raises for the first bad row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, InvalidTemperatureError, MissingVariableError, UnitMismatchError
from .units import CELSIUS_OFFSET, Temperature, to_kelvin

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


def raise_first_bad(rules: Sequence[tuple], lines=None) -> None:
    """Raise the error of the smallest row a rule flags (the earlier rule's
    when two do), the rules in the order one row is checked, each (mask,
    error) or (mask, error, column) with error(i) row i's exception.  With
    `lines`, the message starts "line L: " or "line L, column C: "."""
    flagged = [(mask.argmax(), k) for k, (mask, *_) in enumerate(rules) if np.count_nonzero(mask)]
    if flagged:
        i, k = min(flagged)
        _, error, *column = rules[k]
        err = error(i)
        if lines is not None:
            err = type(err)(", column ".join([f"line {lines[i]}", *column]) + f": {err}")
        raise err


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


class LifeData(Sequence[LifeRecord]):
    """Life records as columns: `time` (floats), `failed` (bools), one float
    array per condition column in `columns`, and `lines`, each row's line
    in the CSV it was read from (None when it was not read from one).

    Indexing and iteration build each LifeRecord when it is asked for and
    keep none; a slice is a LifeData.  It equals any sequence of records
    that is equal to it record by record.  The arrays are taken as given:
    the CSV reader and `of` check them.  Condition variables resolve a
    column at a time, as resolve_variable and resolve_kelvin resolve them
    in one condition, each read adding to `rules` the rules its values
    keep: finite, and a temperature > 0 K.
    """

    def __init__(self, time, failed, columns: Mapping[str, Any], lines=None):
        self.time = np.asarray(time, dtype=float)
        self.failed = np.asarray(failed, dtype=bool)
        self.columns = {name: np.asarray(v, dtype=float) for name, v in columns.items()}
        self.lines = None if lines is None else np.asarray(lines)

    @classmethod
    def of(cls, records: Iterable[LifeRecord]) -> "LifeData":
        """`records` as a LifeData (one is returned as it is).  Every record
        must have the same condition keys."""
        if isinstance(records, LifeData):
            return records
        records = list(records)
        names = list(dict.fromkeys(key for r in records for key in r.condition))
        for r in records:
            if len(r.condition) != len(names):
                missing = [c for c in sorted(names) if c not in r.condition]
                raise DataError(f"record lacks condition column(s) {missing}")
        n = len(records)
        return cls(
            np.fromiter((r.time for r in records), float, n),
            np.fromiter((r.failed for r in records), bool, n),
            {name: np.fromiter((r.condition[name] for r in records), float, n)
             for name in names},
        )

    def __len__(self) -> int:
        return self.time.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LifeData(
                self.time[index], self.failed[index],
                {name: v[index] for name, v in self.columns.items()},
                None if self.lines is None else self.lines[index],
            )
        return LifeRecord(
            float(self.time[index]), FAILED if self.failed[index] else CENSORED,
            {name: float(v[index]) for name, v in self.columns.items()},
        )

    def __iter__(self):
        names = list(self.columns)
        columns = (v.tolist() for v in self.columns.values())
        for time, failed, *values in zip(self.time.tolist(), self.failed.tolist(), *columns):
            yield LifeRecord(time, FAILED if failed else CENSORED, dict(zip(names, values)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"LifeData({len(self)} records, condition columns {list(self.columns)})"

    def column(self, key: str, rules: list) -> np.ndarray:
        values = self.columns[key]
        rules.append((~np.isfinite(values), lambda i: DataError(
            f"condition column {key!r} has a non-finite value ({values[i]})" if self.lines is None
            else f"expected a finite number, got {values[i]}"), key))
        return values

    def variable(self, name: str, rules: list) -> np.ndarray:
        source = variable_source(self.columns, name)
        values = read_variable(source, lambda key: self.column(key, rules))
        if not isinstance(source, str):  # derived; a column has its own rule
            rules.append((~np.isfinite(values), lambda i: DataError(
                f"condition variable {name!r} has a non-finite value ({values[i]})")))
        return values

    def kelvin(self, name: str, rules: list) -> np.ndarray:
        key, unit = temperature_source(self.columns, name)
        values = self.column(key, rules)
        kelvin = values if unit == "kelvin" else values + CELSIUS_OFFSET
        rules.append((kelvin <= 0.0, lambda i: InvalidTemperatureError(
            f"temperature {kelvin[i]} K is not > 0")))
        return kelvin
