"""Log-location-scale lifetime distributions and time transformations.

Both supported families are handled through one code path on the log-time
scale: lognormal uses the standard normal, and Weibull uses the smallest
extreme value distribution (shape beta = 1/sigma, scale eta = exp(mu)).
Each family's standard functions live in one table, `_STANDARD`, behind
the `std_*` kernels, and `FAMILIES` is its keys.

The normal kernels come from the standard library, one scalar at a time:
Phi and log Phi from `math.erfc`, the C library's complementary error
function, with the asymptotic series of log Phi below z = -37, where
erfc(-z/sqrt 2) nears the end of the normal doubles; Phi^-1 from
`statistics.NormalDist.inv_cdf`, Wichura's AS 241 (Applied Statistics 37,
1988).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Any, Callable

import numpy as np

from .errors import DomainError

_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_inv_cdf = NormalDist().inv_cdf


def _log_ndtr(z: float) -> float:
    if z >= 0.0:
        return math.log1p(-0.5 * math.erfc(z * _SQRT1_2))
    if z > -37.0:
        return math.log(0.5 * math.erfc(-z * _SQRT1_2))
    # log Phi(z) = -z^2/2 - log(-z) - log sqrt(2 pi) + log(1 - 1/z^2 + 3/z^4 - ...);
    # at z <= -37 the first term left out is below 2e-17.
    r = 1.0 / (z * z)
    term, series = 1.0, 0.0
    for k in range(1, 7):
        term *= -(2 * k - 1) * r
        series += term
    return -0.5 * z * z - math.log(-z) - _LOG_SQRT_2PI + math.log1p(series)


def _ndtr(z: float) -> float:
    return 0.5 * math.erfc(-z * _SQRT1_2)


def _ndtri(p: float) -> float:
    if 0.0 < p < 1.0:
        return _inv_cdf(p)
    return -math.inf if p == 0.0 else math.inf if p == 1.0 else math.nan


def _elementwise(scalar: Callable[[float], float]) -> Callable:
    """`scalar` applied to each element of an array-like; a float array of
    the input's shape, or a numpy float for a 0-d input.  NaN goes through
    every scalar kernel to a NaN.  `map` over the elements as Python floats
    costs less per call than np.frompyfunc, and numpy sees no floating-point
    flag that a comparison with NaN sets."""

    def kernel(x):
        x = np.asarray(x, dtype=float)
        return np.fromiter(map(scalar, x.ravel().tolist()), float, x.size).reshape(x.shape)[()]

    return kernel


log_ndtr = _elementwise(_log_ndtr)  # log Phi(z)
ndtr = _elementwise(_ndtr)  # Phi(z)
ndtri = _elementwise(_ndtri)  # Phi^-1(p): -inf at 0, inf at 1, NaN outside [0, 1]


def _normal_dlogsf(z):
    return -np.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_ndtr(-z))


def _normal_d2logsf(z, d):
    d = _normal_dlogsf(z) if d is None else d
    return -d * (d + z)


# A density-side function beside its survival-side one; d2logsf also takes
# dlogsf, or None.
_STANDARD = {
    "lognormal": dict(
        cdf=ndtr, quantile=ndtri,
        logpdf=lambda z: -0.5 * z * z - _LOG_SQRT_2PI, logsf=lambda z: log_ndtr(-z),
        dlogpdf=lambda z: -z, dlogsf=_normal_dlogsf,
        d2logpdf=lambda z: np.full_like(z, -1.0), d2logsf=_normal_d2logsf,
    ),
    "weibull": dict(
        cdf=lambda z: -np.expm1(-np.exp(z)),
        quantile=lambda p: np.log(-np.log1p(-np.asarray(p, dtype=float))),
        logpdf=lambda z: z - np.exp(z), logsf=lambda z: -np.exp(z),
        dlogpdf=lambda z: -np.expm1(z), dlogsf=lambda z: -np.exp(z),
        d2logpdf=lambda z: -np.exp(z), d2logsf=lambda z, d: -np.exp(z),
    ),
}
FAMILIES = tuple(_STANDARD)


def _standard(family: str) -> dict:
    try:
        return _STANDARD[family]
    except KeyError:
        raise DomainError(f"unknown family {family!r}") from None


def std_cdf(z, family: str):
    """Standard cdf on the log scale: normal Phi or SEV 1 - exp(-exp(z))."""
    return _standard(family)["cdf"](z)


def std_quantile(p, family: str):
    """Inverse of std_cdf."""
    return _standard(family)["quantile"](p)


def std_logpdf(z, family: str):
    """Log of the standard density on the log scale."""
    return _standard(family)["logpdf"](np.asarray(z, dtype=float))


def std_logsf(z, family: str):
    """Log survival log[1 - Phi(z)], computed without cancellation."""
    return _standard(family)["logsf"](np.asarray(z, dtype=float))


def std_dlogpdf(z, family: str):
    """Derivative of std_logpdf with respect to z."""
    return _standard(family)["dlogpdf"](np.asarray(z, dtype=float))


def std_dlogsf(z, family: str):
    """Derivative of std_logsf with respect to z (negative hazard)."""
    return _standard(family)["dlogsf"](np.asarray(z, dtype=float))


def std_d2logpdf(z, family: str):
    """Second derivative of std_logpdf with respect to z."""
    return _standard(family)["d2logpdf"](np.asarray(z, dtype=float))


def std_d2logsf(z, family: str, dlogsf=None):
    """Second derivative of std_logsf with respect to z: -d*(d + z) for the
    normal, with d = std_dlogsf (pass it as `dlogsf` when already known);
    -exp(z) for the SEV."""
    return _standard(family)["d2logsf"](np.asarray(z, dtype=float), dlogsf)


@dataclass(frozen=True)
class LifeDistribution:
    """A lognormal or Weibull lifetime via (mu, sigma) of log lifetime."""

    family: str
    mu: float
    sigma: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"family must be one of {FAMILIES}")
        if not self.sigma > 0.0:
            raise DomainError("sigma must be > 0")

    @property
    def weibull_shape(self) -> float:
        if self.family != "weibull":
            raise DomainError("shape is defined for the weibull family only")
        return 1.0 / self.sigma

    @property
    def weibull_scale(self) -> float:
        if self.family != "weibull":
            raise DomainError("scale is defined for the weibull family only")
        return math.exp(self.mu)


def cdf(d: LifeDistribution, t: float) -> float:
    """Failure probability by time t > 0."""
    if t <= 0.0:
        raise DomainError("lifetime must be > 0")
    z = (math.log(t) - d.mu) / d.sigma
    return float(std_cdf(z, d.family))


def quantile(d: LifeDistribution, p: float) -> float:
    """Lifetime quantile exp(mu + z_p * sigma) for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie strictly inside (0, 1)")
    return math.exp(d.mu + float(std_quantile(p, d.family)) * d.sigma)


def saft_quantile(t_p_use: float, af: float) -> float:
    """Scale a use-condition quantile to the accelerated condition: t / AF."""
    if af <= 0.0:
        raise DomainError("acceleration factor must be > 0")
    return t_p_use / af


@dataclass(frozen=True)
class SaftModel:
    """A use-condition distribution plus an AF function of the condition.

    `af_model` maps a condition (any object the callable understands,
    typically a dict of variables) to a positive acceleration factor, and
    must return 1 at the use condition.
    """

    base: LifeDistribution
    af_model: Callable[[Any], float]


def saft_distribution_at(m: SaftModel, x) -> LifeDistribution:
    """Distribution at condition x: same family and sigma, mu shifted by -log AF(x)."""
    af = m.af_model(x)
    if af <= 0.0:
        raise DomainError(f"acceleration factor must be > 0, got {af}")
    return LifeDistribution(m.base.family, m.base.mu - math.log(af), m.base.sigma)


def ph_transform(f_use: LifeDistribution, psi: float, t_use: float) -> float:
    """Map a use-condition time through the proportional-hazards relation.

    Returns F^{-1}(1 - [1 - F(t_use)]^{1/psi}) evaluated in the use-condition
    distribution.  For a Weibull base this equals t_use / psi^{sigma}; for a
    lognormal base the ratio t_use / result varies with t_use, so the
    transform is not a scale change.
    """
    if psi <= 0.0:
        raise DomainError("psi must be > 0")
    if t_use <= 0.0:
        raise DomainError("lifetime must be > 0")
    z = (math.log(t_use) - f_use.mu) / f_use.sigma
    log_sf = float(std_logsf(z, f_use.family))
    # target cdf = 1 - sf^(1/psi), kept in log space for tail stability
    target = -math.expm1(log_sf / psi)
    if not 0.0 < target < 1.0:
        raise DomainError("transformed probability fell on a boundary; t_use too extreme")
    return quantile(f_use, target)


@dataclass(frozen=True)
class VaryingSigmaModel:
    """Location and log-scale as functions of the condition."""

    mu: Callable[[Any], float]
    log_sigma: Callable[[Any], float]
    family: str = "lognormal"

    def sigma(self, x) -> float:
        return math.exp(self.log_sigma(x))


def varying_sigma_quantile_ratio(m: VaryingSigmaModel, x, x_u, p: float) -> float:
    """Quantile ratio t_p(x_u)/t_p(x) when sigma depends on the condition.

    exp{mu(x_u) - mu(x) + z_p [sigma(x_u) - sigma(x)]}; the p-dependence is
    exactly what disqualifies the model from being a scale acceleration.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie strictly inside (0, 1)")
    zp = float(std_quantile(p, m.family))
    return math.exp(m.mu(x_u) - m.mu(x) + zp * (m.sigma(x_u) - m.sigma(x)))


@dataclass(frozen=True)
class TimeTransformation:
    """A time map (t, x) -> transformed time, valid on a closed t-interval."""

    func: Callable[[float, Any], float]
    x_use: Any
    validity: tuple = (0.0, math.inf)

    def __call__(self, t: float, x) -> float:
        lo, hi = self.validity
        if not lo <= t <= hi:
            raise DomainError(f"t={t} outside validity interval [{lo}, {hi}]")
        return self.func(t, x)


@dataclass
class AxiomReport:
    """Result of checking the four time-transformation axioms on a grid."""

    zero_at_origin: bool | None
    nonnegative: bool
    strictly_increasing: bool
    identity_at_use: bool
    classification: str  # identity | accelerating | decelerating | crossing
    crossing_time: float | None = None
    failures: list = field(default_factory=list)

    @property
    def all_axioms_pass(self) -> bool:
        return (
            self.zero_at_origin in (True, None)
            and self.nonnegative
            and self.strictly_increasing
            and self.identity_at_use
        )


def _bisect_sign_change(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Locate a root of g by bisection; g(lo) and g(hi) must differ in sign."""
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gmid = g(mid)
        if gmid == 0.0 or hi - lo < 1e-12 * max(1.0, abs(hi)):
            return mid
        if (glo < 0.0) == (gmid < 0.0):
            lo, glo = mid, gmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_time_transformation(
    tt: TimeTransformation, t_grid, x_values, tol: float = 1e-9
) -> AxiomReport:
    """Check the axioms of a lifetime time transformation on sampled grids.

    Axioms: maps 0 to 0, stays nonnegative, strictly increases in t, and is
    the identity at the use condition.  The report also classifies the map
    against the diagonal: "accelerating" when transformed times fall below
    the original times everywhere on the grid, "decelerating" when above,
    "crossing" when both occur, and "identity" when indistinguishable from
    the diagonal (within tol*max(1, t)).  crossing_time is located by
    bisection at the first sign change between consecutive grid times
    outside that band, at the first non-use condition that has one.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if len(t_grid) < 2:
        raise DomainError("need at least two grid times")
    failures: list[str] = []

    lo, hi = tt.validity
    zero_at_origin: bool | None = None
    if lo <= 0.0 <= hi:
        zero_at_origin = all(abs(tt(0.0, x)) <= tol for x in x_values)
        if not zero_at_origin:
            failures.append("a transformed time at t=0 is not 0")

    values = {x: [tt(t, x) for t in t_grid] for x in x_values}

    nonnegative = all(v >= -tol for vals in values.values() for v in vals)
    if not nonnegative:
        failures.append("a transformed time is negative")

    strictly_increasing = all(
        later > earlier for vals in values.values() for earlier, later in zip(vals, vals[1:])
    )
    if not strictly_increasing:
        failures.append("not strictly increasing in t")

    identity_at_use = all(
        abs(tt(t, tt.x_use) - t) <= tol * max(1.0, abs(t)) for t in t_grid
    )
    if not identity_at_use:
        failures.append("not the identity at the use condition")

    # The sign of v - t outside the band tol*max(1, t), with its grid time,
    # at each non-use condition; points inside the band carry no sign, so
    # a -1 ... 0 ... +1 run is one change between consecutive signs.
    signs = {}
    for x in x_values:
        if x != tt.x_use:
            diffs = [(t, v - t, tol * max(1.0, t)) for v, t in zip(values[x], t_grid)]
            signs[x] = [(t, -1 if d < -b else 1) for t, d, b in diffs if d < -b or d > b]
    below = any(s < 0 for seq in signs.values() for _, s in seq)
    above = any(s > 0 for seq in signs.values() for _, s in seq)

    if below and above:
        classification = "crossing"
    elif below:
        classification = "accelerating"
    elif above:
        classification = "decelerating"
    else:
        classification = "identity"

    crossing_time = None
    for x, seq in signs.items():
        change = next(((t0, t1) for (t0, s0), (t1, s1) in zip(seq, seq[1:]) if s0 != s1), None)
        if change is not None:
            crossing_time = _bisect_sign_change(lambda t: tt(t, x) - t, *change)
            break

    return AxiomReport(
        zero_at_origin=zero_at_origin,
        nonnegative=nonnegative,
        strictly_increasing=strictly_increasing,
        identity_at_use=identity_at_use,
        classification=classification,
        crossing_time=crossing_time,
        failures=failures,
    )
