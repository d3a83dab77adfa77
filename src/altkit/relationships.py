"""Acceleration-factor and reaction-rate relationships.

Every function here is a pure function of tagged-unit inputs.  All
acceleration factors equal exactly 1 when the test condition matches the
use condition, and all of them compose: AF(a -> c) = AF(a -> b) * AF(b -> c).

Activation energies are normalized to eV internally (fixed conversions
96.485 kJ/mol and 23.060 kcal/mol per eV) and the single coefficient 11605
is applied, so the same physical energy yields the same factor in any unit.
The published per-unit coefficients 120.27 and 503.56 are exposed as
constants in `altkit.units` for reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .units import (
    ARRHENIUS_COEFF_EV,
    ActivationEnergy,
    Temperature,
    as_activation_energy,
    to_kelvin,
)

# Documented rule-of-thumb exponents for thermal-cycling damage.
COFFIN_MANSON_BETA1_METALS = 2.0
COFFIN_MANSON_BETA1_PLASTIC_ENCAPSULEMENT = 5.0


@dataclass(frozen=True)
class ReactionRateParams:
    """Rate prefactor, activation energy and temperature exponent."""

    gamma0: float
    ea: ActivationEnergy
    m: float = 0.0

    def __post_init__(self):
        if self.gamma0 <= 0.0:
            raise DomainError("gamma0 must be > 0")
        object.__setattr__(self, "ea", as_activation_energy(self.ea))


@dataclass(frozen=True)
class GenEyringParams:
    """Parameters of the two-variable extended rate relationship."""

    gamma0: float
    gamma1: ActivationEnergy
    gamma2: float
    gamma3: float = 0.0
    m: float = 0.0

    def __post_init__(self):
        if self.gamma0 <= 0.0:
            raise DomainError("gamma0 must be > 0")
        object.__setattr__(self, "gamma1", as_activation_energy(self.gamma1))


@dataclass(frozen=True)
class CoffinMansonParams:
    """Material constants for thermal-cycling life."""

    delta: float
    beta1: float
    beta2: float = 0.0
    ea: ActivationEnergy = field(default_factory=lambda: ActivationEnergy.ev(0.0))

    def __post_init__(self):
        if self.delta <= 0.0:
            raise DomainError("delta must be > 0")
        if self.beta1 <= 0.0:
            raise DomainError("beta1 must be > 0")
        object.__setattr__(self, "ea", as_activation_energy(self.ea))


def _ea_coeff(ea) -> float:
    """Exponent coefficient Ea*11605 with Ea normalized to eV."""
    return as_activation_energy(ea).in_ev * ARRHENIUS_COEFF_EV


def arrhenius_rate(temp: Temperature, p: ReactionRateParams) -> float:
    """Reaction rate gamma0 * exp(-Ea / (k * tempK)) at the given temperature."""
    if p.m != 0.0:
        raise ConfigError("arrhenius_rate requires m = 0; use gen_eyring_rate for m != 0")
    return p.gamma0 * math.exp(-_ea_coeff(p.ea) / to_kelvin(temp))


def arrhenius_af(temp: Temperature, temp_u: Temperature, ea) -> float:
    """Arrhenius acceleration factor between a test and a use temperature.

    Parameters
    ----------
    temp : Temperature
        Test temperature.
    temp_u : Temperature
        Use (baseline) temperature.
    ea : ActivationEnergy or float
        Activation energy; a bare float is taken in eV.

    Returns
    -------
    float
        exp[Ea * (11605/temp_uK - 11605/tempK)] with Ea in eV.  Greater
        than 1 exactly when temp is hotter than temp_u.
    """
    c = _ea_coeff(ea)
    return math.exp(c / to_kelvin(temp_u) - c / to_kelvin(temp))


def eyring_af(temp: Temperature, temp_u: Temperature, ea, m: float) -> float:
    """Eyring factor (tempK/temp_uK)^m times the Arrhenius factor, taken as
    one exponential so that neither part overflows alone; m=0 reduces exactly."""
    c = _ea_coeff(ea)
    kelvin, kelvin_u = to_kelvin(temp), to_kelvin(temp_u)
    return math.exp(m * (math.log(kelvin) - math.log(kelvin_u)) + c / kelvin_u - c / kelvin)


def use_rate_af(rate: float, rate_u: float, p: float = 1.0) -> float:
    """Power-rule use-rate factor (rate/rate_u)^p; p = 1 is simple reciprocity."""
    if rate <= 0.0 or rate_u <= 0.0:
        raise DomainError("use rates must be > 0")
    return (rate / rate_u) ** p

def coffin_manson_cycles(dtemp: float, p: CoffinMansonParams) -> float:
    """Cycles to failure delta / (dtemp)^beta1 for a thermal-cycling range."""
    if dtemp <= 0.0:
        raise DomainError("temperature range must be > 0")
    return p.delta / dtemp**p.beta1


def coffin_manson_af(dtemp: float, dtemp_u: float, beta1: float) -> float:
    """Thermal-cycling acceleration factor (dtemp/dtemp_u)^beta1."""
    if dtemp <= 0.0 or dtemp_u <= 0.0:
        raise DomainError("temperature ranges must be > 0")
    return (dtemp / dtemp_u) ** beta1


def extended_coffin_manson_cycles(
    dtemp: float, freq: float, tempmax: Temperature, p: CoffinMansonParams
) -> float:
    """Cycles to failure with cycling-frequency and peak-temperature terms.

    [delta/(dtemp)^beta1] * freq^(-beta2) * exp(Ea * 11605 / tempmaxK); with
    beta2 = 0 and Ea = 0 it reduces exactly to coffin_manson_cycles.
    """
    if freq <= 0.0:
        raise DomainError("cycling frequency must be > 0")
    base = coffin_manson_cycles(dtemp, p)
    return base * freq ** (-p.beta2) * math.exp(_ea_coeff(p.ea) / to_kelvin(tempmax))


def inverse_power_af(v: float, v_u: float, beta1: float) -> float:
    """Inverse power-law factor (v/v_u)^(-beta1); beta1 is normally negative."""
    if v <= 0.0 or v_u <= 0.0:
        raise DomainError("stress values must be > 0")
    return (v / v_u) ** (-beta1)


def box_cox_transform(x: float, lam: float) -> float:
    """Power transform (x^lam - 1)/lam, continuously extended to log x at lam = 0.

    The log branch is taken for |lam| < 1e-6 to avoid catastrophic
    cancellation near zero.  x may also be a numpy array, transformed
    elementwise.
    """
    if np.any(x <= 0.0):
        raise DomainError("box_cox_transform requires x > 0")
    if abs(lam) < 1e-6:
        # numpy's log can differ from math.log in the last bit; floats keep math.log.
        return np.log(x) if isinstance(x, np.ndarray) else math.log(x)
    return (x**lam - 1.0) / lam


def box_cox_af(x1: float, x1_u: float, lam: float, gamma1: float) -> float:
    """Acceleration factor of the power-transform model.

    exp[gamma1 * (x1_u^lam - x1^lam)/lam] for lam != 0 and (x1_u/x1)^gamma1
    at lam = 0; monotone increasing in x1 exactly when gamma1 < 0.
    """
    if x1 <= 0.0 or x1_u <= 0.0:
        raise DomainError("box_cox_af requires positive stress values")
    if abs(lam) < 1e-6:
        return (x1_u / x1) ** gamma1
    # IEEE powers: an overflowing x^lam is inf, so the factor tends to 0 or inf.
    with np.errstate(over="ignore"):
        power_u, power = np.float64(x1_u) ** lam, np.float64(x1) ** lam
    if math.isinf(power_u) and math.isinf(power):
        # Both overflow: the difference has the sign of lam*(log x1_u - log x1).
        log_gap = lam * (math.log(x1_u) - math.log(x1))
        difference = math.inf * log_gap if log_gap else 0.0
    else:
        difference = float(power_u - power)
    return math.exp(gamma1 * difference / lam)


def gen_eyring_rate(temp: Temperature, x: float, p: GenEyringParams) -> float:
    """Rate gamma0 * tempK^m * exp(-g1/(k tempK)) * exp(g2 x + g3 x/(k tempK))."""
    kelvin = to_kelvin(temp)
    inv_kt = ARRHENIUS_COEFF_EV / kelvin  # 1/(k tempK) with k in eV
    log_rate = (
        math.log(p.gamma0)
        + p.m * math.log(kelvin)
        - p.gamma1.in_ev * inv_kt
        + p.gamma2 * x
        + p.gamma3 * x * inv_kt
    )
    return math.exp(log_rate)


def gen_eyring_af(
    temp: Temperature, x: float, temp_u: Temperature, x_u: float, p: GenEyringParams
) -> float:
    """Two-variable acceleration factor rate(temp, x) / rate(temp_u, x_u).

    The temperature power term is fixed at m = 0 for acceleration factors;
    with gamma3 = 0 the factor splits exactly into a temperature-only times
    an x-only term.
    """
    if p.m != 0.0:
        raise ConfigError("gen_eyring_af fixes m = 0; build params with m = 0")
    inv_kt = ARRHENIUS_COEFF_EV / to_kelvin(temp)
    inv_kt_u = ARRHENIUS_COEFF_EV / to_kelvin(temp_u)
    log_af = (
        -p.gamma1.in_ev * (inv_kt - inv_kt_u)
        + p.gamma2 * (x - x_u)
        + p.gamma3 * (x * inv_kt - x_u * inv_kt_u)
    )
    return math.exp(log_af)


def rh_transform(rh: float, kind: str) -> float:
    """Humidity regressor: log(rh) ('peck') or log[rh/(1-rh)] ('klinger')."""
    if not 0.0 < rh < 1.0:
        raise DomainError("relative humidity must lie strictly inside (0, 1)")
    if kind == "peck":
        return math.log(rh)
    if kind == "klinger":
        return math.log(rh / (1.0 - rh))
    raise ConfigError(f"unknown humidity transform {kind!r}")


def temp_voltage_af(
    temp: Temperature, volt: float, temp_u: Temperature, volt_u: float, p: GenEyringParams
) -> float:
    """Temperature-voltage factor: the two-variable rate ratio with X = log(volt)."""
    if volt <= 0.0 or volt_u <= 0.0:
        raise DomainError("voltages must be > 0")
    return gen_eyring_af(temp, math.log(volt), temp_u, math.log(volt_u), p)


def blacks_af(
    temp: Temperature,
    current: float,
    temp_u: Temperature,
    current_u: float,
    p: GenEyringParams,
) -> float:
    """Temperature-current-density factor (X = log current, no interaction)."""
    if current <= 0.0 or current_u <= 0.0:
        raise DomainError("current densities must be > 0")
    if p.gamma3 != 0.0:
        raise ConfigError("this electromigration form has no interaction; gamma3 must be 0")
    return gen_eyring_af(temp, math.log(current), temp_u, math.log(current_u), p)


def peck_af(
    temp: Temperature, rh: float, temp_u: Temperature, rh_u: float, p: GenEyringParams
) -> float:
    """Temperature-humidity factor with X = log(RH) and no interaction."""
    if p.gamma3 != 0.0:
        raise ConfigError("this humidity form has no interaction; gamma3 must be 0")
    return gen_eyring_af(temp, rh_transform(rh, "peck"), temp_u, rh_transform(rh_u, "peck"), p)


def klinger_af(
    temp: Temperature, rh: float, temp_u: Temperature, rh_u: float, p: GenEyringParams
) -> float:
    """Temperature-humidity factor on the logit humidity scale."""
    return gen_eyring_af(
        temp, rh_transform(rh, "klinger"), temp_u, rh_transform(rh_u, "klinger"), p
    )
