"""Temperature and activation-energy units.

Temperatures are always tagged with an explicit unit; bare numbers are not
accepted by any rate or acceleration-factor formula.  Activation energies
carry one of three units and are converted with fixed constants, so the same
physical energy gives the same answer (to rounding of the published
constants) regardless of the unit it arrives in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InvalidTemperatureError, UnitMismatchError

# Published values, kept verbatim so reference numbers reproduce digit for
# digit.  The reciprocal coefficients 11605, 120.27 and 503.56 round
# 1/constant to five significant digits.
K_BOLTZMANN_EV = 8.6171e-5  # eV/K
GAS_CONSTANT_KJ = 8.31447e-3  # kJ/(mol K)
GAS_CONSTANT_KCAL = 1.98588e-3  # kcal/(mol K)

ARRHENIUS_COEFF_EV = 11605.0
ARRHENIUS_COEFF_KJ = 120.27
ARRHENIUS_COEFF_KCAL = 503.56

# Fixed energy-unit conversions: 1 eV = 96.485 kJ/mol = 23.060 kcal/mol.
KJ_PER_MOL_PER_EV = 96.485
KCAL_PER_MOL_PER_EV = 23.060

CELSIUS_OFFSET = 273.15

_ENERGY_UNITS = ("eV", "kJ_per_mol", "kcal_per_mol")
_EV_FACTOR = {
    "eV": 1.0,
    "kJ_per_mol": KJ_PER_MOL_PER_EV,
    "kcal_per_mol": KCAL_PER_MOL_PER_EV,
}


@dataclass(frozen=True)
class Temperature:
    """A temperature tagged as celsius or kelvin."""

    value: float
    unit: str = "celsius"

    def __post_init__(self):
        if self.unit not in ("celsius", "kelvin"):
            raise UnitMismatchError(f"unknown temperature unit {self.unit!r}")

    @classmethod
    def celsius(cls, value: float) -> "Temperature":
        return cls(float(value), "celsius")

    @classmethod
    def kelvin(cls, value: float) -> "Temperature":
        return cls(float(value), "kelvin")


def to_kelvin(t: Temperature) -> float:
    """Convert to kelvin: K = degC + 273.15 exactly; kelvin passes through.

    Raises InvalidTemperatureError when the kelvin value is <= 0, which the
    rate formulas cannot accept.
    """
    if not isinstance(t, Temperature):
        raise UnitMismatchError(
            "temperature must be a Temperature with an explicit unit, not a bare number"
        )
    kelvin = t.value if t.unit == "kelvin" else t.value + CELSIUS_OFFSET
    if kelvin <= 0.0:
        raise InvalidTemperatureError(f"temperature {kelvin} K is not > 0")
    return kelvin


@dataclass(frozen=True)
class ActivationEnergy:
    """An activation energy in eV, kJ/mol or kcal/mol."""

    value: float
    unit: str = "eV"

    def __post_init__(self):
        if self.unit not in _ENERGY_UNITS:
            raise UnitMismatchError(f"unknown energy unit {self.unit!r}")
        if self.value < 0.0:
            raise DomainError("activation energy must be >= 0")

    @classmethod
    def ev(cls, value: float) -> "ActivationEnergy":
        return cls(float(value), "eV")

    @classmethod
    def kj_per_mol(cls, value: float) -> "ActivationEnergy":
        return cls(float(value), "kJ_per_mol")

    @classmethod
    def kcal_per_mol(cls, value: float) -> "ActivationEnergy":
        return cls(float(value), "kcal_per_mol")

    @property
    def in_ev(self) -> float:
        return self.value / _EV_FACTOR[self.unit]


def as_activation_energy(ea) -> ActivationEnergy:
    """Coerce a float (taken as eV, the default unit here) or pass through."""
    if isinstance(ea, ActivationEnergy):
        return ea
    return ActivationEnergy.ev(float(ea))
