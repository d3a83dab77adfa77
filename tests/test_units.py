# Temperature and activation-energy unit handling.

import math

import pytest
from numpy.testing import assert_allclose

from altkit import (
    ARRHENIUS_COEFF_EV,
    ARRHENIUS_COEFF_KCAL,
    ARRHENIUS_COEFF_KJ,
    ActivationEnergy,
    CELSIUS_OFFSET,
    GAS_CONSTANT_KCAL,
    GAS_CONSTANT_KJ,
    K_BOLTZMANN_EV,
    KCAL_PER_MOL_PER_EV,
    KJ_PER_MOL_PER_EV,
    Temperature,
    as_activation_energy,
    to_kelvin,
)
from altkit.errors import InvalidTemperatureError, UnitMismatchError


class TestTemperature:
    def test_celsius_to_kelvin(self):
        assert to_kelvin(Temperature.celsius(25.0)) == 25.0 + 273.15
        assert to_kelvin(Temperature.celsius(0.0)) == 273.15

    def test_kelvin_passthrough(self):
        assert to_kelvin(Temperature.kelvin(300.0)) == 300.0

    def test_bare_number_rejected(self):
        # A unitless number is ambiguous between C and K and must not be
        # silently interpreted.
        with pytest.raises(UnitMismatchError):
            to_kelvin(300.0)

    def test_below_absolute_zero_rejected(self):
        # The tagged value itself is inert; conversion is where a kelvin
        # value <= 0 becomes unusable by the rate formulas.
        with pytest.raises(InvalidTemperatureError):
            to_kelvin(Temperature.celsius(-274.0))
        with pytest.raises(InvalidTemperatureError):
            to_kelvin(Temperature.kelvin(-1.0))
        with pytest.raises(UnitMismatchError):
            Temperature(300.0, "fahrenheit")

    def test_celsius_offset_constant(self):
        assert CELSIUS_OFFSET == 273.15


class TestActivationEnergy:
    def test_ev_roundtrip(self):
        ea = ActivationEnergy.ev(0.75)
        assert ea.in_ev == 0.75

    def test_kj_conversion(self):
        # 1 eV corresponds to 96.485 kJ/mol.
        ea = ActivationEnergy.kj_per_mol(96.485)
        assert_allclose(ea.in_ev, 1.0, rtol=1e-12)

    def test_kcal_conversion(self):
        # 1 eV corresponds to 23.060 kcal/mol.
        ea = ActivationEnergy.kcal_per_mol(23.060)
        assert_allclose(ea.in_ev, 1.0, rtol=1e-12)

    def test_bare_float_is_ev(self):
        assert as_activation_energy(0.5).in_ev == 0.5

    def test_existing_instance_passthrough(self):
        ea = ActivationEnergy.ev(1.2)
        assert as_activation_energy(ea) is ea

    def test_unknown_unit_rejected(self):
        with pytest.raises(UnitMismatchError, match="unknown energy unit 'J'"):
            ActivationEnergy(0.5, "J")


class TestConstants:
    def test_boltzmann_reciprocal_matches_exponent_coefficient(self):
        # Both constants are independently quoted roundings of the same
        # physical quantity: 1/8.6171e-5 = 11604.83, quoted as 11605.
        assert K_BOLTZMANN_EV == 8.6171e-5
        assert ARRHENIUS_COEFF_EV == 11605.0
        assert_allclose(1.0 / K_BOLTZMANN_EV, ARRHENIUS_COEFF_EV, rtol=2e-5)

    def test_per_mol_coefficients_consistent(self):
        # 11605 eV-basis coefficient re-expressed per kJ/mol and kcal/mol.
        assert ARRHENIUS_COEFF_KJ == 120.27
        assert ARRHENIUS_COEFF_KCAL == 503.56
        assert_allclose(1.0 / GAS_CONSTANT_KJ, ARRHENIUS_COEFF_KJ, rtol=1e-4)
        assert_allclose(1.0 / GAS_CONSTANT_KCAL, ARRHENIUS_COEFF_KCAL, rtol=1e-4)

    def test_unit_ratios_tie_out(self):
        # The per-unit coefficient quotes imply the same eV<->per-mol ratios
        # used by the energy converters, up to their own rounding (<=1e-3).
        assert_allclose(ARRHENIUS_COEFF_EV / ARRHENIUS_COEFF_KJ,
                        KJ_PER_MOL_PER_EV, rtol=1e-3)
        assert_allclose(ARRHENIUS_COEFF_EV / ARRHENIUS_COEFF_KCAL,
                        KCAL_PER_MOL_PER_EV, rtol=1e-3)
        assert_allclose(KJ_PER_MOL_PER_EV / KCAL_PER_MOL_PER_EV, 4.184, rtol=1e-4)
