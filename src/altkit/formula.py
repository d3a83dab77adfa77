"""Model formulas: "family: mu ~ terms [; sigma ~ terms]" and design matrices.

The vocabulary is deliberately small because the regression structures in
scope are all linear predictors over a handful of variable transforms:

    log(x)         natural log, x > 0
    logit(x)       log[x/(1-x)], 0 < x < 1 (humidity-style fractions)
    arrh(temp)     11605/tempK; the argument must name a temperature
                   column carrying a _C or _K unit suffix
    sq(x)          x**2 (quadratic terms)
    boxcox(x, lam) power-family transform (x**lam - 1)/lam, log at lam=0

Terms are separated by `+`; interactions are products of factors joined by
`:`; an intercept is always implicit (write `1` for an intercept-only
part).  The `sigma ~` part, when present, models log(sigma) linearly; when
absent sigma is a single constant.

Design matrices are built a column at a time.  Rows whose conditions have
the same keys form one group; in each group every variable is resolved
once, its values are gathered into one array, and each term is a numpy
expression over those arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .data import read_variable, temperature_source, variable_source
from .errors import AltkitError, DataError, DomainError, FormulaError
from .lifetime import FAMILIES
from .relationships import box_cox_transform
from .units import ARRHENIUS_COEFF_EV, Temperature, to_kelvin

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_CALL_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\((.*)\)\Z", re.DOTALL)
_FUNCTIONS = ("log", "logit", "arrh", "sq", "boxcox")


def _split_top(text: str, sep: str) -> list[str]:
    """Split on `sep` outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormulaError(f"unbalanced parentheses in {text!r}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise FormulaError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return parts


@dataclass(frozen=True)
class Factor:
    """One transformed variable: a leaf name or a function of a factor."""

    kind: str  # "var" or one of _FUNCTIONS
    var: str | None = None  # leaf name ("var") or temperature name ("arrh")
    inner: "Factor | None" = None
    lam: float | None = None  # boxcox exponent

    def name(self) -> str:
        if self.kind == "var":
            return self.var
        if self.kind == "arrh":
            return f"arrh({self.var})"
        if self.kind == "boxcox":
            return f"boxcox({self.inner.name()},{self.lam:g})"
        return f"{self.kind}({self.inner.name()})"

    def value(self, columns: "Columns") -> np.ndarray:
        """The factor over the rows of one group of conditions."""
        if self.kind == "var":
            return columns.variable(self.var)
        if self.kind == "arrh":
            return ARRHENIUS_COEFF_EV / columns.kelvin(self.var)
        v = self.inner.value(columns)
        if self.kind == "log":
            if (v <= 0.0).any():
                raise DomainError(f"log of non-positive value in {self.name()}")
            return np.log(v)
        if self.kind == "logit":
            if not ((0.0 < v) & (v < 1.0)).all():
                raise DomainError(f"logit argument outside (0, 1) in {self.name()}")
            return np.log(v / (1.0 - v))
        if self.kind == "sq":
            return v * v
        if self.kind == "boxcox":
            return box_cox_transform(v, self.lam)
        raise FormulaError(f"unknown factor kind {self.kind!r}")


@dataclass(frozen=True)
class Term:
    """Product of factors (a main effect, or an interaction via ':')."""

    factors: tuple[Factor, ...]

    def name(self) -> str:
        return ":".join(f.name() for f in self.factors)

    def value(self, columns: "Columns") -> np.ndarray:
        """The product of the factors over the rows of one group."""
        out = self.factors[0].value(columns)
        for f in self.factors[1:]:
            out = out * f.value(columns)
        return out


def _parse_factor(text: str) -> Factor:
    text = text.strip()
    if not text:
        raise FormulaError("empty factor")
    call = _CALL_RE.match(text)
    if call is None:
        if not _NAME_RE.match(text):
            raise FormulaError(f"invalid variable name {text!r}")
        return Factor("var", var=text)
    func, arg = call.group(1), call.group(2)
    if func not in _FUNCTIONS:
        raise FormulaError(
            f"unknown function {func!r}; available: {', '.join(_FUNCTIONS)}"
        )
    if func == "boxcox":
        pieces = _split_top(arg, ",")
        if len(pieces) != 2:
            raise FormulaError("boxcox takes two arguments: boxcox(x, lambda)")
        try:
            lam = float(pieces[1])
        except ValueError:
            raise FormulaError(f"boxcox lambda must be a number, got {pieces[1]!r}")
        return Factor("boxcox", inner=_parse_factor(pieces[0]), lam=lam)
    if func == "arrh":
        name = arg.strip()
        if not _NAME_RE.match(name):
            raise FormulaError("arrh takes a single temperature variable name")
        return Factor("arrh", var=name)
    return Factor(func, inner=_parse_factor(arg))


def _parse_terms(text: str, what: str) -> tuple[Term, ...]:
    terms: list[Term] = []
    for chunk in _split_top(text, "+"):
        chunk = chunk.strip()
        if not chunk:
            raise FormulaError(f"empty term in {what} part")
        if chunk == "1":  # explicit intercept; one is always implicit
            continue
        factors = tuple(_parse_factor(f) for f in _split_top(chunk, ":"))
        terms.append(Term(factors))
    names = [t.name() for t in terms]
    for name in names:
        if names.count(name) > 1:
            raise FormulaError(f"duplicate term {name!r} in {what} part")
    return tuple(terms)


def _count_boxcox(factor: Factor) -> int:
    n = 1 if factor.kind == "boxcox" else 0
    if factor.inner is not None:
        n += _count_boxcox(factor.inner)
    return n


@dataclass(frozen=True)
class ModelSpec:
    """A family plus linear predictors for mu and (on the log scale) sigma."""

    family: str
    mu_terms: tuple[Term, ...]
    sigma_terms: tuple[Term, ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FormulaError(
                f"unknown family {self.family!r}; available: {', '.join(FAMILIES)}"
            )
        n_boxcox = sum(
            _count_boxcox(f)
            for t in self.mu_terms + self.sigma_terms
            for f in t.factors
        )
        if n_boxcox > 1:
            raise FormulaError("at most one boxcox term is allowed per model")

    @property
    def text(self) -> str:
        mu = " + ".join(t.name() for t in self.mu_terms) or "1"
        out = f"{self.family}: mu ~ {mu}"
        if self.sigma_terms:
            out += "; sigma ~ " + " + ".join(t.name() for t in self.sigma_terms)
        return out

    @property
    def n_mu(self) -> int:
        return 1 + len(self.mu_terms)

    @property
    def n_sigma(self) -> int:
        return 1 + len(self.sigma_terms)

    @property
    def n_params(self) -> int:
        return self.n_mu + self.n_sigma

    @property
    def param_names(self) -> tuple[str, ...]:
        names = ["mu:(Intercept)"]
        names += [f"mu:{t.name()}" for t in self.mu_terms]
        names.append("logsigma:(Intercept)")
        names += [f"logsigma:{t.name()}" for t in self.sigma_terms]
        return tuple(names)

    def boxcox_lambda(self) -> float:
        """The lambda of the model's boxcox factor; error when there is none."""

        def find(factor: Factor) -> float | None:
            if factor.kind == "boxcox":
                return factor.lam
            if factor.inner is not None:
                return find(factor.inner)
            return None

        for term in self.mu_terms + self.sigma_terms:
            for factor in term.factors:
                lam = find(factor)
                if lam is not None:
                    return lam
        raise FormulaError("model has no boxcox term")

    def with_boxcox_lambda(self, lam: float) -> "ModelSpec":
        """Copy of the spec with the (unique) boxcox exponent replaced."""
        self.boxcox_lambda()  # raises when absent

        def swap(factor: Factor) -> Factor:
            if factor.kind == "boxcox":
                return replace(factor, lam=float(lam))
            if factor.inner is not None:
                return replace(factor, inner=swap(factor.inner))
            return factor

        def swap_terms(terms: tuple[Term, ...]) -> tuple[Term, ...]:
            return tuple(Term(tuple(swap(f) for f in t.factors)) for t in terms)

        return ModelSpec(self.family, swap_terms(self.mu_terms),
                         swap_terms(self.sigma_terms))


def parse_model(text: str) -> ModelSpec:
    """Parse "family: mu ~ terms [; sigma ~ terms]" into a ModelSpec."""
    if ":" not in text:
        raise FormulaError('expected "family: mu ~ ..."')
    family, _, rest = text.partition(":")
    family = family.strip()
    parts = [p.strip() for p in rest.split(";")]
    if len(parts) > 2:
        raise FormulaError("expected at most two parts: mu ~ ... ; sigma ~ ...")

    def split_part(part: str, expected: str) -> str:
        lhs, sep, rhs = part.partition("~")
        if not sep or lhs.strip() != expected:
            raise FormulaError(f'expected "{expected} ~ ..." but got {part!r}')
        return rhs

    mu_terms = _parse_terms(split_part(parts[0], "mu"), "mu")
    sigma_terms: tuple[Term, ...] = ()
    if len(parts) == 2:
        sigma_terms = _parse_terms(split_part(parts[1], "sigma"), "sigma")
    return ModelSpec(family, mu_terms, sigma_terms)


class Columns:
    """The condition values of rows whose conditions have the same keys,
    gathered one array per column on first use."""

    def __init__(self, conditions: Sequence[Mapping[str, float]]):
        self.conditions = conditions
        self.keys = conditions[0].keys()
        self._gathered: dict[str, np.ndarray] = {}

    def column(self, key: str) -> np.ndarray:
        values = self._gathered.get(key)
        if values is None:
            values = np.fromiter(map(itemgetter(key), self.conditions), float,
                                 len(self.conditions))
            self._gathered[key] = _finite(values, f"column {key!r}")
        return values

    def variable(self, name: str) -> np.ndarray:
        values = read_variable(variable_source(self.keys, name), self.column)
        return _finite(values, f"variable {name!r}")

    def kelvin(self, name: str) -> np.ndarray:
        key, unit = temperature_source(self.keys, name)
        return to_kelvin(Temperature(self.column(key), unit))


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    finite = np.isfinite(values)
    if not finite.all():
        bad = values[~finite][0]
        raise DataError(f"condition {what} has a non-finite value ({bad})")
    return values


def _groups(conditions: Sequence[Mapping[str, float]]) -> list[tuple]:
    """(rows, Columns) for each set of conditions with the same keys, in
    the order each key tuple first appears."""
    first = tuple(conditions[0])
    if all(map(first.__eq__, map(tuple, conditions))):
        return [(slice(None), Columns(conditions))]
    rows: dict[tuple, list[int]] = {}
    for i, condition in enumerate(conditions):
        rows.setdefault(tuple(condition), []).append(i)
    return [(idx, Columns([conditions[i] for i in idx])) for idx in rows.values()]


def _design(terms: Sequence[Term], conditions: Sequence[Mapping[str, float]]) -> np.ndarray:
    x = np.ones((len(conditions), 1 + len(terms)))
    if terms and conditions:
        # Overflow gives inf and inf * 0 gives nan, as float arithmetic on
        # one row does.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for rows, columns in _groups(conditions):
                for j, term in enumerate(terms):
                    x[rows, 1 + j] = term.value(columns)
    return x


def design_matrix(terms: Sequence[Term],
                  conditions: Sequence[Mapping[str, float]]) -> np.ndarray:
    """Rows of [1, term values...] for each condition.

    When some row cannot be evaluated, the error raised is the one the
    first such row raises on its own.
    """
    try:
        return _design(terms, conditions)
    except AltkitError:
        if len(conditions) == 1:
            raise
    # Bisect for the first failing row: conditions[:hi] fails, [:lo] does not.
    lo, hi = 0, len(conditions)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _design(terms, conditions[:mid])
            lo = mid
        except AltkitError:
            hi = mid
    _design(terms, conditions[hi - 1 : hi])  # raises that row's error
    raise AssertionError("a row's error does not depend on the other rows")


def design_row(terms: Sequence[Term], condition: Mapping[str, float]) -> np.ndarray:
    return design_matrix(terms, [condition])[0]
