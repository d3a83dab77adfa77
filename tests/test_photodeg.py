# Spectral dosage integrals, effective UV exposure and the
# temperature/humidity location model.

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from altkit import (
    ActivationEnergy,
    ExposureConfig,
    MoistureTable,
    PhotoMuParams,
    SpectralFunctions,
    SpectralGrid,
    Temperature,
    UVB_BAND,
    effective_exposure,
    instantaneous_dosage,
    photo_mu,
    total_dosage,
)
from altkit.errors import DataError, DomainError


def constant_spectrum(value=1.0):
    return lambda lam, tau: np.full_like(np.asarray(lam, dtype=float), value)


class TestInstantaneousDosage:
    def test_band_constants(self):
        assert UVB_BAND == (290.0, 320.0)
        grid = SpectralGrid.uvb()
        assert grid.wavelengths[0] == 290.0
        assert grid.wavelengths[-1] == 320.0

    def test_closed_form_exponential_efficiency(self):
        # With E0 = 1, A = log 2 (half absorbed) and phi = exp(0.01 lam),
        # the band integral is 0.5 * (e^3.2 - e^2.9) / 0.01 = 318.0096...
        grid = SpectralGrid(np.linspace(290.0, 320.0, 4001))
        f = SpectralFunctions(e0=constant_spectrum(1.0),
                              absorbance=lambda lam: np.full_like(
                                  np.asarray(lam, float), math.log(2.0)),
                              beta0=0.0, beta1=0.01)
        exact = 0.5 * (math.exp(3.2) - math.exp(2.9)) / 0.01
        assert_allclose(instantaneous_dosage(0.0, grid, f), exact, rtol=1e-7)

    def test_constant_integrand_is_exact(self):
        # Full absorption and flat efficiency: the integral is the 30 nm
        # band width, exactly, for any grid (trapezoid is exact on
        # constants).
        grid = SpectralGrid.uvb(num=7)
        f = SpectralFunctions(e0=constant_spectrum(1.0),
                              absorbance=lambda lam: np.full_like(
                                  np.asarray(lam, float), np.inf))
        assert_allclose(instantaneous_dosage(0.0, grid, f), 30.0, rtol=1e-14)

    def test_additive_in_irradiance(self):
        # Dosage is linear in E0: splitting the source changes nothing.
        grid = SpectralGrid.uvb()
        absorb = lambda lam: 0.002 * np.asarray(lam, dtype=float)
        e0_a = lambda lam, tau: np.asarray(lam, float) / 300.0
        e0_b = constant_spectrum(0.4)
        e0_sum = lambda lam, tau: e0_a(lam, tau) + e0_b(lam, tau)
        f = lambda e0: SpectralFunctions(e0=e0, absorbance=absorb,
                                         beta0=0.1, beta1=0.005)
        total = instantaneous_dosage(1.0, grid, f(e0_sum))
        parts = (instantaneous_dosage(1.0, grid, f(e0_a))
                 + instantaneous_dosage(1.0, grid, f(e0_b)))
        assert_allclose(total, parts, rtol=1e-12)

    def test_negative_inputs_rejected(self):
        grid = SpectralGrid.uvb(num=5)
        bad_e0 = SpectralFunctions(e0=constant_spectrum(-1.0),
                                   absorbance=lambda lam: np.ones_like(lam))
        with pytest.raises(DataError):
            instantaneous_dosage(0.0, grid, bad_e0)
        bad_a = SpectralFunctions(e0=constant_spectrum(1.0),
                                  absorbance=lambda lam: -np.ones_like(lam))
        with pytest.raises(DataError):
            instantaneous_dosage(0.0, grid, bad_a)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            SpectralGrid([300.0])
        with pytest.raises(DomainError):
            SpectralGrid([300.0, 300.0, 310.0])


class TestTotalDosage:
    def test_time_constant_source(self):
        # A source constant in tau integrates to t * D_inst exactly.
        grid = SpectralGrid.uvb(num=31)
        f = SpectralFunctions(e0=constant_spectrum(2.0),
                              absorbance=lambda lam: np.full_like(
                                  np.asarray(lam, float), np.inf))
        d_inst = instantaneous_dosage(0.0, grid, f)
        tg = np.linspace(0.0, 5.0, 11)
        assert_allclose(total_dosage(5.0, grid, f, tg), 5.0 * d_inst,
                        rtol=1e-12)

    def test_linear_ramp_source(self):
        # E0 proportional to tau: integral of tau over [0, 4] is 8.
        grid = SpectralGrid.uvb(num=31)
        f = SpectralFunctions(
            e0=lambda lam, tau: tau * np.ones_like(np.asarray(lam, float)),
            absorbance=lambda lam: np.full_like(np.asarray(lam, float), np.inf))
        tg = np.linspace(0.0, 4.0, 9)
        assert_allclose(total_dosage(4.0, grid, f, tg), 8.0 * 30.0, rtol=1e-12)

    def test_time_grid_contract(self):
        grid = SpectralGrid.uvb(num=5)
        f = SpectralFunctions(e0=constant_spectrum(1.0),
                              absorbance=lambda lam: np.ones_like(lam))
        with pytest.raises(DomainError):
            total_dosage(5.0, grid, f, [1.0, 5.0])  # does not start at 0
        with pytest.raises(DomainError):
            total_dosage(5.0, grid, f, [0.0, 4.0])  # does not end at t
        with pytest.raises(DomainError):
            total_dosage(5.0, grid, f, [0.0, 3.0, 3.0, 5.0])  # not increasing
        with pytest.raises(DomainError, match="nonempty 1-d"):
            total_dosage(5.0, grid, f, [])


class TestEffectiveExposure:
    def test_power_scaling(self):
        # cf = 5 at p = 0.7 multiplies the dosage axis by 5^0.7 = 3.0852.
        cfg = ExposureConfig(cf=5.0, p=0.7)
        assert_allclose(effective_exposure(12.0, cfg), 5.0**0.7 * 12.0,
                        rtol=1e-15)
        assert_allclose(effective_exposure(12.0, cfg) / 12.0, 3.085,
                        rtol=1e-3)

    def test_reciprocity_default(self):
        # p = 1: only cf * dosage matters, the exact-reciprocity case.
        assert effective_exposure(12.0, ExposureConfig(cf=5.0)) == 60.0
        assert effective_exposure(12.0, ExposureConfig(cf=1.0, p=0.7)) == 12.0

    def test_no_dose_is_no_exposure(self):
        # cf**p overflows, yet zero dosage is zero exposure, not inf * 0.
        assert effective_exposure(0.0, ExposureConfig(cf=1e300, p=2.0)) == 0.0
        with np.errstate(over="ignore"):
            assert effective_exposure(1.0, ExposureConfig(cf=1e300, p=2.0)) == math.inf

    def test_validation(self):
        with pytest.raises(DomainError):
            ExposureConfig(cf=0.0)
        with pytest.raises(DomainError):
            effective_exposure(-1.0, ExposureConfig(cf=2.0))


class TestMoistureTable:
    def test_interpolation(self):
        table = MoistureTable(rh=(0.0, 0.5, 1.0), mc=(0.0, 2.0, 6.0))
        assert table(0.5) == 2.0
        assert_allclose(table(0.25), 1.0, rtol=1e-15)
        assert_allclose(table(0.75), 4.0, rtol=1e-15)

    def test_out_of_range(self):
        table = MoistureTable(rh=(0.2, 0.8), mc=(1.0, 3.0))
        with pytest.raises(DomainError):
            table(0.1)
        with pytest.raises(DomainError):
            table(0.9)

    def test_validation(self):
        with pytest.raises(DataError):
            MoistureTable(rh=(0.5, 0.2), mc=(1.0, 2.0))
        with pytest.raises(DataError):
            MoistureTable(rh=(0.2, 0.5), mc=(1.0,))
        with pytest.raises(DataError, match=r"lie in \[0, 1\]"):
            MoistureTable(rh=(0.2, 1.5), mc=(1.0, 2.0))


class TestPhotoMu:
    def test_arrhenius_temperature_shift(self):
        # Between 45 C and 55 C at Ea = 0.3 eV the location moves by
        # 0.3 * 11605 * (1/318.15 - 1/328.15) = 0.33344...
        table = MoistureTable(rh=(0.0, 1.0), mc=(0.0, 1.0))
        p = PhotoMuParams(beta0=-5.0, ea=ActivationEnergy.ev(0.3), c=0.0,
                          mc_table=table)
        delta = (photo_mu(Temperature.celsius(45.0), 0.5, p)
                 - photo_mu(Temperature.celsius(55.0), 0.5, p))
        exact = 0.3 * 11605.0 * (1.0 / 318.15 - 1.0 / 328.15)
        assert_allclose(delta, exact, rtol=1e-12)
        assert_allclose(delta, 0.3334, atol=5e-4)

    def test_moisture_term(self):
        table = MoistureTable(rh=(0.0, 1.0), mc=(0.0, 4.0))
        p = PhotoMuParams(beta0=0.0, ea=ActivationEnergy.ev(0.0), c=0.25,
                          mc_table=table)
        t = Temperature.celsius(25.0)
        assert_allclose(photo_mu(t, 0.5, p) - photo_mu(t, 0.0, p),
                        0.25 * 2.0, rtol=1e-12)
