"""Effective UV dosage, reciprocity adjustment and exposure-condition effects.

Degradation is driven by the wavelength-weighted, absorbance-weighted
cumulative irradiance ("effective dosage") rather than by clock time.
Integrals are composite trapezoid sums on the user-supplied grids: spectra
come as measurements on fixed wavelength grids, so adaptive quadrature
would add nothing, and grid-halving convergence is checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DomainError
from .units import ARRHENIUS_COEFF_EV, ActivationEnergy, Temperature, to_kelvin

# Wavelength band (nm) that dominates the effect for typical materials;
# the default grid spans it.
UVB_BAND = (290.0, 320.0)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class SpectralGrid:
    """Strictly increasing wavelength samples (nm) for the dosage integral."""

    wavelengths: Sequence[float]

    def __post_init__(self):
        lams = tuple(float(w) for w in self.wavelengths)
        if len(lams) < 2:
            raise DomainError("a spectral grid needs at least 2 wavelengths")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise DomainError("wavelengths must be strictly increasing")
        object.__setattr__(self, "wavelengths", lams)

    @classmethod
    def uvb(cls, num: int = 61) -> "SpectralGrid":
        """Evenly spaced grid over the default 290-320 nm band."""
        return cls(np.linspace(UVB_BAND[0], UVB_BAND[1], num))


@dataclass(frozen=True)
class SpectralFunctions:
    """Source spectrum, material absorbance and quantum efficiency.

    `e0(lam, tau)` is the spectral irradiance at wavelength array `lam` and
    time `tau` (nonnegative); `absorbance(lam)` the nonnegative exponent
    whose factor 1 - exp(-A) in [0, 1) is the fraction absorbed; the
    efficiency is log-linear, phi(lam) = exp(beta0 + beta1*lam).  Only
    ratios of phi are identified from data: beta0 trades off against the
    overall dosage scale, so fitted values of (beta0, beta1) fix a
    convention rather than absolute efficiencies.
    """

    e0: Callable[[np.ndarray, float], np.ndarray]
    absorbance: Callable[[np.ndarray], np.ndarray]
    beta0: float = 0.0
    beta1: float = 0.0

    def phi(self, lam: np.ndarray) -> np.ndarray:
        return np.exp(self.beta0 + self.beta1 * np.asarray(lam, dtype=float))


@dataclass(frozen=True)
class ExposureConfig:
    """Intensity scaling: concentration factor cf and reciprocity exponent p.

    p = 1 is exact reciprocity (dosage alone matters, not intensity);
    p != 1 models its breakdown.  p is taken to be wavelength-independent.
    """

    cf: float
    p: float = 1.0

    def __post_init__(self):
        if self.cf <= 0.0:
            raise DomainError("cf must be > 0")


def instantaneous_dosage(tau: float, grid: SpectralGrid, f: SpectralFunctions) -> float:
    """Dosage rate at time tau: integral over the band of E0*(1-exp(-A))*phi."""
    lam = np.asarray(grid.wavelengths, dtype=float)
    e0 = np.asarray(f.e0(lam, tau), dtype=float)
    if np.any(e0 < 0.0):
        raise DataError("irradiance samples must be >= 0")
    a = np.asarray(f.absorbance(lam), dtype=float)
    if np.any(a < 0.0):
        raise DataError("absorbance samples must be >= 0")
    integrand = e0 * -np.expm1(-a) * f.phi(lam)
    return float(_trapezoid(integrand, lam))


def total_dosage(
    t: float, grid: SpectralGrid, f: SpectralFunctions, time_grid: Sequence[float]
) -> float:
    """Cumulative dosage over [0, t]: time integral of instantaneous_dosage.

    `time_grid` must start at 0, end at t and be strictly increasing; it is
    both the integration rule and the claim about where the irradiance is
    smooth enough to interpolate linearly.
    """
    tg = np.asarray(time_grid, dtype=float)
    if tg.ndim != 1 or tg.size < 1:
        raise DomainError("time_grid must be a nonempty 1-d sequence")
    if np.any(np.diff(tg) <= 0.0):
        raise DomainError("time_grid must be strictly increasing")
    if tg[0] != 0.0 or abs(tg[-1] - t) > 1e-12 * max(1.0, abs(t)):
        raise DomainError("time_grid must span [0, t]")
    rates = np.array([instantaneous_dosage(tau, grid, f) for tau in tg])
    return float(_trapezoid(rates, tg))


def effective_exposure(dtot: float, cfg: ExposureConfig) -> float:
    """Scaled exposure cf**p * dtot placing runs at different intensities on
    one axis; increasing in cf exactly when p > 0.  The arithmetic is IEEE:
    a value beyond double precision is inf, with numpy's overflow warning.
    No dosage is no exposure, even where cf**p overflows."""
    if dtot < 0.0:
        raise DomainError("dtot must be >= 0")
    if dtot == 0.0:
        return 0.0
    return float(np.float64(cfg.cf) ** cfg.p * dtot)


@dataclass(frozen=True)
class MoistureTable:
    """Moisture content as a monotone table over relative humidity in [0, 1],
    linearly interpolated; queries outside the tabulated range are errors."""

    rh: Sequence[float]
    mc: Sequence[float]

    def __post_init__(self):
        rh = tuple(float(r) for r in self.rh)
        mc = tuple(float(m) for m in self.mc)
        if len(rh) != len(mc) or len(rh) < 1:
            raise DataError("rh and mc must be equal-length and nonempty")
        if any(b <= a for a, b in zip(rh, rh[1:])):
            raise DataError("rh knots must be strictly increasing")
        if rh[0] < 0.0 or rh[-1] > 1.0:
            raise DataError("rh knots must lie in [0, 1]")
        object.__setattr__(self, "rh", rh)
        object.__setattr__(self, "mc", mc)

    def __call__(self, rh: float) -> float:
        if not self.rh[0] <= rh <= self.rh[-1]:
            raise DomainError(
                f"rh={rh} outside the tabulated range [{self.rh[0]}, {self.rh[-1]}]"
            )
        return float(np.interp(rh, self.rh, self.mc))


@dataclass(frozen=True)
class PhotoMuParams:
    """Location-parameter model over temperature and humidity for lifetimes
    measured on the effective-exposure axis."""

    beta0: float
    ea: ActivationEnergy
    c: float
    mc_table: MoistureTable


def photo_mu(temp: Temperature, rh: float, p: PhotoMuParams) -> float:
    """Location beta0 + Ea*11605/tempK + c*MC(rh).

    Pairing this with log effective exposure log(D_Tot) + p*log(cf) places
    observations from all exposure conditions on a common scaled axis.
    """
    temp_k = to_kelvin(temp)
    return p.beta0 + p.ea.in_ev * ARRHENIUS_COEFF_EV / temp_k + p.c * p.mc_table(rh)
