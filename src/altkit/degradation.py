"""Degradation-path models, crossing times and pseudo failure times."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import CENSORED, FAILED, LifeRecord
from .errors import ConfigError, DomainError, IllPosedFitError, NoCrossingError


@dataclass(frozen=True)
class FirstOrderPathParams:
    """Saturating path D(t) = d_inf * {1 - exp[-rate_u * af * t]}.

    `rate_u` is the reaction rate at the use condition and `af` the
    acceleration factor of the condition being evaluated (1 at use).
    """

    d_inf: float
    rate_u: float
    af: float = 1.0

    def __post_init__(self):
        if self.d_inf == 0.0:
            raise DomainError("d_inf must be nonzero")
        if self.rate_u <= 0.0:
            raise DomainError("rate_u must be > 0")
        if self.af <= 0.0:
            raise DomainError("af must be > 0")


@dataclass(frozen=True)
class FailureThreshold:
    """Degradation level d_f whose first crossing defines failure."""

    d_f: float


def first_order_path(t: float, p: FirstOrderPathParams) -> float:
    """Path value at time t >= 0; starts at 0 and saturates at d_inf."""
    if t < 0.0:
        raise DomainError("time must be >= 0")
    return p.d_inf * -math.expm1(-p.rate_u * p.af * t)


def crossing_time(p: FirstOrderPathParams, th: FailureThreshold) -> float:
    """Time at which the path reaches the threshold.

    T = -log(1 - d_f/d_inf) / (rate_u * af); exists only for
    0 < d_f/d_inf < 1 (threshold between start and asymptote, same sign).
    """
    ratio = th.d_f / p.d_inf
    if not 0.0 < ratio < 1.0:
        raise NoCrossingError(
            f"threshold {th.d_f} is not between 0 and the asymptote {p.d_inf}"
        )
    return -math.log1p(-ratio) / (p.rate_u * p.af)


@dataclass(frozen=True)
class ParallelPathParams:
    """Two saturating reactions acting in parallel."""

    first: FirstOrderPathParams
    second: FirstOrderPathParams


def parallel_path(t: float, p: ParallelPathParams) -> float:
    """Sum of the two component paths at time t."""
    return first_order_path(t, p.first) + first_order_path(t, p.second)


def parallel_crossing_time(p: ParallelPathParams, th: FailureThreshold) -> float:
    """First crossing of the two-reaction path, by bracketed bisection.

    Requires the threshold to lie strictly between 0 and the combined
    asymptote (both components assumed to push in the same direction).
    The absolute tolerance is 1e-10 times the final bracket width.
    """
    total_inf = p.first.d_inf + p.second.d_inf
    if total_inf == 0.0:
        raise NoCrossingError("combined asymptote is 0; the path stays at 0")
    ratio = th.d_f / total_inf
    if not 0.0 < ratio < 1.0:
        raise NoCrossingError(
            f"threshold {th.d_f} is not between 0 and the combined asymptote {total_inf}"
        )
    sign = 1.0 if total_inf > 0.0 else -1.0

    def gap(t: float) -> float:
        return sign * (parallel_path(t, p) - th.d_f)

    hi = 1.0 / min(
        p.first.rate_u * p.first.af, p.second.rate_u * p.second.af
    )
    for _ in range(200):
        if gap(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        raise NoCrossingError("failed to bracket the crossing")
    lo = 0.0
    tol = 1e-10 * (hi - lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DielectricPathParams:
    """Strength-decay constants; beta1 for the simple variant, gammas for the
    rate-extended one (rate R(volt) = gamma0 * volt^gamma2)."""

    delta0: float
    beta1: float | None = None
    gamma0: float = 1.0
    gamma1: float | None = None
    gamma2: float | None = None

    def __post_init__(self):
        if self.delta0 <= 0.0:
            raise DomainError("delta0 must be > 0")
        if self.gamma0 <= 0.0:
            raise DomainError("gamma0 must be > 0")


def _dielectric_variant(volt: float, p: DielectricPathParams,
                        variant: str) -> tuple[float, float, float]:
    """(k, gamma2, rate) of a decay variant: strength decays as
    (rate*t)^(1/k) with rate R(volt) = gamma0 * volt^gamma2.  The simple
    variant is (beta1, 0, 1), which gives its closed forms exactly."""
    if variant == "simple":
        if p.beta1 is None:
            raise ConfigError("simple variant needs beta1")
        return p.beta1, 0.0, 1.0
    if variant == "rate_extended":
        if p.gamma1 is None or p.gamma2 is None:
            raise ConfigError("rate_extended variant needs gamma1 and gamma2")
        return p.gamma1, p.gamma2, p.gamma0 * volt**p.gamma2
    raise ConfigError(f"unknown variant {variant!r}")


def dielectric_strength(t: float, volt: float, p: DielectricPathParams,
                        variant: str = "simple") -> float:
    """Remaining strength delta0 * (R(volt)*t)^(1/k) at age t; k is beta1
    and R is 1 for the simple variant, k is gamma1 for the rate-extended one."""
    if t < 0.0:
        raise DomainError("time must be >= 0")
    k, _, rate = _dielectric_variant(volt, p, variant)
    return p.delta0 * (rate * t) ** (1.0 / k)


def dielectric_failure_time(
    volt: float, volt_u: float, p: DielectricPathParams, variant: str = "simple"
) -> tuple[float, float]:
    """Failure time at `volt` and acceleration factor relative to `volt_u`.

    Failure occurs when decaying strength meets the applied stress.  The
    simple variant gives T = (volt/delta0)^beta1 and AF = (volt/volt_u)^(-beta1);
    the rate-extended variant gives T = (volt/delta0)^gamma1 / R(volt) and
    AF = (volt/volt_u)^(gamma2 - gamma1), an inverse power law with exponent
    gamma1 - gamma2 in place of beta1.
    """
    if volt <= 0.0 or volt_u <= 0.0:
        raise DomainError("voltages must be > 0")
    k, gamma2, rate = _dielectric_variant(volt, p, variant)
    return (volt / p.delta0) ** k / rate, (volt / volt_u) ** (gamma2 - k)


@dataclass(frozen=True)
class DegradationSample:
    """One unit's measured path: strictly increasing times, one condition."""

    unit_id: str
    times: Sequence[float]
    responses: Sequence[float]
    condition: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        responses = tuple(float(r) for r in self.responses)
        if len(times) != len(responses):
            raise DomainError(f"unit {self.unit_id!r}: times and responses must have equal length")
        if not all(map(math.isfinite, times + responses)):
            raise DomainError(f"unit {self.unit_id!r}: times and responses must be finite")
        if any(t < 0.0 for t in times):
            raise DomainError(f"unit {self.unit_id!r}: measurement times must be >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError(f"unit {self.unit_id!r}: times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "responses", responses)


_TIME_TRANSFORMS = {
    "identity": (lambda t: t, lambda u: u),
    "sqrt": (math.sqrt, lambda u: u * u),
}


def pseudo_failure_times(
    samples: Sequence[DegradationSample],
    threshold: float,
    time_transform: str = "identity",
    horizon: float | None = None,
) -> list[LifeRecord]:
    """Convert degradation paths to life records by per-unit line fits.

    For each sample an ordinary least-squares line of response on
    transformed time is computed and solved against the threshold; the
    crossing is mapped back through the inverse time transform ("sqrt"
    squares it).  Units whose fitted line never reaches the threshold in
    forward time (a line whose change over the observed times is
    round-off is flat), or reaches it only beyond the horizon, become
    right-censored records.

    Parameters
    ----------
    samples : sequence of DegradationSample
        Each needs >= 2 points with non-constant times.
    threshold : float
        Response level defining failure.
    time_transform : {"identity", "sqrt"}
        Scale on which the path is linear in time.
    horizon : float or None
        Cutoff for declaring a unit censored.  None (the default) uses the
        last observed time of each sample; math.inf disables the cutoff so
        every forward crossing is extrapolated to a failure.

    Returns
    -------
    list of LifeRecord
        In input order, carrying each sample's condition.
    """
    if time_transform not in _TIME_TRANSFORMS:
        raise ConfigError(f"time_transform must be one of {sorted(_TIME_TRANSFORMS)}")
    if not math.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold}")
    if horizon is not None and not horizon > 0.0:
        raise ConfigError("horizon must be > 0")
    fwd, inv = _TIME_TRANSFORMS[time_transform]

    records: list[LifeRecord] = []
    for sample in samples:
        if len(sample.times) < 2:
            raise IllPosedFitError(f"unit {sample.unit_id!r}: need at least 2 points")
        u = np.array([fwd(t) for t in sample.times])
        y = np.asarray(sample.responses, dtype=float)
        if np.ptp(u) == 0.0:
            raise IllPosedFitError(f"unit {sample.unit_id!r}: constant times")
        design = np.column_stack([np.ones_like(u), u])
        (intercept, slope), *_ = np.linalg.lstsq(design, y, rcond=None)

        cutoff = sample.times[-1] if horizon is None else horizon
        crossing = None
        # The fitted slope of a flat path is round-off, not 0: a change over
        # the observed times within n ulps of the responses counts as none.
        if abs(slope) * np.ptp(u) > len(u) * np.finfo(float).eps * np.max(np.abs(y)):
            # In Python floats, an overflowing crossing is inf without a warning.
            u_star = (threshold - float(intercept)) / float(slope)
            if u_star > 0.0:
                crossing = inv(u_star)
        if crossing is not None and crossing <= cutoff:
            records.append(LifeRecord(crossing, FAILED, dict(sample.condition)))
        else:
            censor_at = cutoff if math.isfinite(cutoff) else sample.times[-1]
            records.append(LifeRecord(censor_at, CENSORED, dict(sample.condition)))
    return records
