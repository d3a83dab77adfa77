# Acceleration-factor relationships: golden values and cross-identities.
#
# Frozen golden values are closed forms evaluated once and pinned, e.g.
# arrhenius_af(120C, 50C, 0.5 eV) = exp[0.5 * (11605/323.15 - 11605/393.15)]
# = 24.46050364086682.

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from altkit import (
    CoffinMansonParams,
    GenEyringParams,
    ReactionRateParams,
    Temperature,
    ActivationEnergy,
    arrhenius_af,
    arrhenius_rate,
    blacks_af,
    box_cox_af,
    box_cox_transform,
    coffin_manson_af,
    coffin_manson_cycles,
    extended_coffin_manson_cycles,
    eyring_af,
    gen_eyring_af,
    gen_eyring_rate,
    inverse_power_af,
    klinger_af,
    peck_af,
    rh_transform,
    temp_voltage_af,
    use_rate_af,
)
from altkit.errors import ConfigError, DomainError

C = Temperature.celsius
K = Temperature.kelvin


class TestArrhenius:
    def test_golden_120_vs_50(self):
        # exp[Ea * (11605/323.15 - 11605/393.15)] for Ea in eV.
        assert_allclose(arrhenius_af(C(120.0), C(50.0), 0.4),
                        12.905425138697826, rtol=1e-12)
        assert_allclose(arrhenius_af(C(120.0), C(50.0), 0.5),
                        24.46050364086682, rtol=1e-12)
        assert_allclose(arrhenius_af(C(120.0), C(50.0), 0.6),
                        46.361606218672065, rtol=1e-12)

    def test_identity_at_use(self):
        assert arrhenius_af(C(50.0), C(50.0), 0.7) == 1.0

    def test_reciprocal_pair(self):
        up = arrhenius_af(C(120.0), C(50.0), 0.5)
        down = arrhenius_af(C(50.0), C(120.0), 0.5)
        assert_allclose(up * down, 1.0, rtol=1e-12)

    def test_celsius_kelvin_equivalence(self):
        assert_allclose(arrhenius_af(C(120.0), C(50.0), 0.5),
                        arrhenius_af(K(393.15), K(323.15), 0.5), rtol=0)

    def test_energy_unit_equivalence(self):
        # The same physical Ea expressed three ways; conversions are exact
        # against the package's own unit ratios.
        ev = arrhenius_af(C(120.0), C(50.0), ActivationEnergy.ev(1.0))
        kj = arrhenius_af(C(120.0), C(50.0), ActivationEnergy.kj_per_mol(96.485))
        kcal = arrhenius_af(C(120.0), C(50.0), ActivationEnergy.kcal_per_mol(23.060))
        assert_allclose(kj, ev, rtol=1e-12)
        assert_allclose(kcal, ev, rtol=1e-12)

    def test_monotone_in_ea_when_hotter(self):
        afs = [arrhenius_af(C(120.0), C(50.0), ea) for ea in (0.2, 0.4, 0.8, 1.2)]
        assert all(b > a for a, b in zip(afs, afs[1:]))

    def test_negative_ea_rejected(self):
        with pytest.raises(DomainError):
            arrhenius_af(C(120.0), C(50.0), -0.1)

    def test_rate_ratio_equals_af(self):
        p = ReactionRateParams(gamma0=3.5e7, ea=ActivationEnergy.ev(0.62))
        ratio = arrhenius_rate(C(140.0), p) / arrhenius_rate(C(60.0), p)
        assert_allclose(ratio, arrhenius_af(C(140.0), C(60.0), 0.62), rtol=1e-12)

    def test_rate_constant_must_be_positive(self):
        with pytest.raises(DomainError, match="^gamma0 must be > 0$"):
            ReactionRateParams(gamma0=0.0, ea=ActivationEnergy.ev(0.5))


class TestEyring:
    def test_golden_160_vs_90(self):
        # Plain factor exp[1.2 * (11605/363.15 - 11605/433.15)] = 491.403...;
        # the m = 1 composite multiplies by 433.15/363.15.
        assert_allclose(arrhenius_af(C(160.0), C(90.0), 1.2),
                        491.40318774918507, rtol=1e-12)
        assert_allclose(eyring_af(C(160.0), C(90.0), 1.2, m=1.0),
                        586.1249918038262, rtol=1e-12)

    def test_m_zero_reduces_to_arrhenius(self):
        assert eyring_af(C(160.0), C(90.0), 1.2, m=0.0) == arrhenius_af(
            C(160.0), C(90.0), 1.2)

    def test_temperature_power_term(self):
        base = arrhenius_af(C(160.0), C(90.0), 1.2)
        ratio = 433.15 / 363.15
        assert_allclose(eyring_af(C(160.0), C(90.0), 1.2, m=-0.7),
                        ratio**-0.7 * base, rtol=1e-12)


class TestUseRate:
    def test_golden_412_vs_60(self):
        # (412/60)^1 = 6.8666...
        assert_allclose(use_rate_af(412.0, 60.0), 6.866666666666666, rtol=1e-15)

    def test_power_exponent(self):
        assert_allclose(use_rate_af(412.0, 60.0, p=0.8),
                        (412.0 / 60.0) ** 0.8, rtol=1e-15)

    def test_identity_and_domain(self):
        assert use_rate_af(60.0, 60.0) == 1.0
        with pytest.raises(DomainError):
            use_rate_af(0.0, 60.0)
        with pytest.raises(DomainError):
            use_rate_af(412.0, -1.0)


class TestInversePower:
    def test_golden_voltage_stress(self):
        # (170/120)^9 = 22.983..., with the conventional negative exponent.
        assert_allclose(inverse_power_af(170.0, 120.0, -9.0),
                        22.983124940780435, rtol=1e-12)
        assert_allclose(inverse_power_af(170.0, 120.0, -7.0),
                        (170.0 / 120.0) ** 7, rtol=1e-15)
        assert_allclose(inverse_power_af(170.0, 120.0, -11.0),
                        (170.0 / 120.0) ** 11, rtol=1e-15)

    def test_identity_and_domain(self):
        assert inverse_power_af(120.0, 120.0, -9.0) == 1.0
        with pytest.raises(DomainError):
            inverse_power_af(-170.0, 120.0, -9.0)


class TestCoffinManson:
    def test_af_power_law(self):
        # (dtemp/dtemp_u)^beta1: a 4x wider cycle at the squared-law constant.
        assert_allclose(coffin_manson_af(80.0, 20.0, 2.0), 16.0, rtol=1e-15)

    def test_cycles_consistent_with_af(self):
        p = CoffinMansonParams(delta=1.0e7, beta1=2.0)
        n_use = coffin_manson_cycles(20.0, p)
        n_test = coffin_manson_cycles(80.0, p)
        assert_allclose(n_use / n_test, coffin_manson_af(80.0, 20.0, 2.0),
                        rtol=1e-12)

    def test_extended_reduces_to_simple(self):
        p = CoffinMansonParams(delta=5.0e6, beta1=4.0)
        simple = coffin_manson_cycles(60.0, p)
        extended = extended_coffin_manson_cycles(60.0, 1.0, C(100.0), p)
        assert_allclose(extended, simple, rtol=1e-12)

    def test_extended_frequency_and_peak_effects(self):
        p = CoffinMansonParams(delta=5.0e6, beta1=4.0, beta2=0.3,
                               ea=ActivationEnergy.ev(0.1))
        base = extended_coffin_manson_cycles(60.0, 1.0, C(100.0), p)
        faster = extended_coffin_manson_cycles(60.0, 10.0, C(100.0), p)
        hotter = extended_coffin_manson_cycles(60.0, 1.0, C(140.0), p)
        assert faster < base  # freq^(-beta2) with beta2 > 0
        assert hotter < base  # hotter peak shortens life at Ea > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            coffin_manson_af(0.0, 20.0, 2.0)
        with pytest.raises(DomainError):
            CoffinMansonParams(delta=-1.0, beta1=2.0)
        with pytest.raises(DomainError, match="^beta1 must be > 0$"):
            CoffinMansonParams(delta=1.0, beta1=0.0)
        p = CoffinMansonParams(delta=1.0, beta1=2.0)
        with pytest.raises(DomainError, match="^temperature range must be > 0$"):
            coffin_manson_cycles(0.0, p)
        with pytest.raises(DomainError, match="^cycling frequency must be > 0$"):
            extended_coffin_manson_cycles(20.0, 0.0, C(100.0), p)


class TestBoxCox:
    def test_lam_one_and_zero_branches(self):
        assert_allclose(box_cox_transform(5.0, 1.0), 4.0, rtol=1e-15)
        assert box_cox_transform(5.0, 0.0) == math.log(5.0)

    def test_continuity_at_zero(self):
        # (x^lam - 1)/lam -> log x; the branch switch must be seamless.
        for x in (0.3, 1.0, 7.5, 140.0):
            assert_allclose(box_cox_transform(x, 1e-6), math.log(x), rtol=1e-5)
            assert_allclose(box_cox_transform(x, 1e-7), math.log(x), rtol=1e-7)

    def test_af_log_branch_matches_inverse_power(self):
        assert_allclose(box_cox_af(170.0, 120.0, 0.0, -9.0),
                        inverse_power_af(170.0, 120.0, -9.0), rtol=1e-12)

    def test_af_identity_and_monotonicity(self):
        assert box_cox_af(120.0, 120.0, 0.7, -3.0) == 1.0
        afs = [box_cox_af(v, 120.0, 0.5, -3.0) for v in (130.0, 150.0, 170.0)]
        assert all(b > a for a, b in zip(afs, afs[1:]))

    def test_af_when_both_powers_overflow(self):
        # exp(gamma1 (x_u^lam - x^lam)/lam) with both powers beyond double
        # precision: the sign of the difference decides.
        assert box_cox_af(1e300, 1e200, 2.0, 1.0) == 0.0
        assert box_cox_af(1e-200, 1e-300, -2.0, 1.0) == 0.0
        assert box_cox_af(1e300, 1e300, 2.0, 1.0) == 1.0
        assert box_cox_af(1e200, 1e300, 2.0, 1.0) == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            box_cox_transform(0.0, 0.5)
        with pytest.raises(DomainError):
            box_cox_af(170.0, -1.0, 0.5, -3.0)


class TestTwoVariableRates:
    def test_af_is_rate_ratio(self):
        p = GenEyringParams(gamma0=2.0, gamma1=ActivationEnergy.ev(0.7),
                            gamma2=-1.5, gamma3=0.02)
        num = gen_eyring_rate(C(120.0), 3.0, GenEyringParams(
            p.gamma0, p.gamma1, p.gamma2, p.gamma3, m=0.0))
        den = gen_eyring_rate(C(40.0), 1.0, GenEyringParams(
            p.gamma0, p.gamma1, p.gamma2, p.gamma3, m=0.0))
        assert_allclose(gen_eyring_af(C(120.0), 3.0, C(40.0), 1.0, p),
                        num / den, rtol=1e-12)

    def test_factor_splits_without_interaction(self):
        p = GenEyringParams(gamma0=1.0, gamma1=ActivationEnergy.ev(0.7),
                            gamma2=-1.5, gamma3=0.0)
        joint = gen_eyring_af(C(120.0), 3.0, C(40.0), 1.0, p)
        temp_only = arrhenius_af(C(120.0), C(40.0), 0.7)
        x_only = math.exp(-1.5 * (3.0 - 1.0))
        assert_allclose(joint, temp_only * x_only, rtol=1e-12)

    def test_interaction_breaks_the_split(self):
        p = GenEyringParams(gamma0=1.0, gamma1=ActivationEnergy.ev(0.7),
                            gamma2=-1.5, gamma3=0.05)
        joint = gen_eyring_af(C(120.0), 3.0, C(40.0), 1.0, p)
        split = arrhenius_af(C(120.0), C(40.0), 0.7) * math.exp(-1.5 * 2.0)
        assert abs(joint / split - 1.0) > 1e-3

    def test_rate_power_term(self):
        p = GenEyringParams(gamma0=2.0, gamma1=ActivationEnergy.ev(0.5),
                            gamma2=0.1, m=1.0)
        p0 = GenEyringParams(gamma0=2.0, gamma1=ActivationEnergy.ev(0.5),
                             gamma2=0.1, m=0.0)
        assert_allclose(gen_eyring_rate(C(100.0), 2.0, p),
                        373.15 * gen_eyring_rate(C(100.0), 2.0, p0), rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError, match="^gamma0 must be > 0$"):
            GenEyringParams(gamma0=-1.0, gamma1=ActivationEnergy.ev(0.5), gamma2=0.1)
        p = GenEyringParams(gamma0=1.0, gamma1=ActivationEnergy.ev(0.5), gamma2=0.1, m=1.0)
        with pytest.raises(ConfigError, match="fixes m = 0"):
            gen_eyring_af(C(120.0), 3.0, C(40.0), 1.0, p)


class TestHumidityAndCurrent:
    def test_rh_transforms(self):
        assert rh_transform(0.8, "peck") == math.log(0.8)
        assert_allclose(rh_transform(0.8, "klinger"), math.log(0.8 / 0.2),
                        rtol=1e-15)
        with pytest.raises(DomainError):
            rh_transform(1.0, "peck")
        with pytest.raises(ConfigError):
            rh_transform(0.5, "sqrt")

    def test_peck_composition(self):
        # Temperature part times (RH/RH_u)^gamma2 with X = log RH.
        p = GenEyringParams(gamma0=1.0, gamma1=ActivationEnergy.ev(0.9),
                            gamma2=2.66)
        af = peck_af(C(85.0), 0.85, C(25.0), 0.40, p)
        expected = arrhenius_af(C(85.0), C(25.0), 0.9) * (0.85 / 0.40) ** 2.66
        assert_allclose(af, expected, rtol=1e-12)

    def test_peck_rejects_interaction(self):
        p = GenEyringParams(gamma0=1.0, gamma1=ActivationEnergy.ev(0.9),
                            gamma2=2.66, gamma3=0.1)
        with pytest.raises(ConfigError):
            peck_af(C(85.0), 0.85, C(25.0), 0.40, p)

    def test_klinger_composition(self):
        # X = logit RH turns the humidity part into an odds ratio power.
        p = GenEyringParams(gamma0=1.0, gamma1=ActivationEnergy.ev(0.9),
                            gamma2=1.8)
        af = klinger_af(C(85.0), 0.85, C(25.0), 0.40, p)
        odds = (0.85 / 0.15) / (0.40 / 0.60)
        expected = arrhenius_af(C(85.0), C(25.0), 0.9) * odds**1.8
        assert_allclose(af, expected, rtol=1e-12)

    def test_blacks_composition(self):
        # X = log(current density): a power law in the current ratio.
        p = GenEyringParams(gamma0=1.0, gamma1=ActivationEnergy.ev(0.5),
                            gamma2=-2.0)
        af = blacks_af(C(150.0), 2.0e6, C(55.0), 5.0e5, p)
        expected = arrhenius_af(C(150.0), C(55.0), 0.5) * 4.0**-2.0
        assert_allclose(af, expected, rtol=1e-12)

    def test_temp_voltage_composition(self):
        p = GenEyringParams(gamma0=1.0, gamma1=ActivationEnergy.ev(0.6),
                            gamma2=-9.0)
        af = temp_voltage_af(C(120.0), 170.0, C(50.0), 120.0, p)
        expected = arrhenius_af(C(120.0), C(50.0), 0.6) * (170.0 / 120.0) ** -9.0
        assert_allclose(af, expected, rtol=1e-12)

    def test_voltage_and_current_checks(self):
        p = GenEyringParams(gamma0=1.0, gamma1=ActivationEnergy.ev(0.5), gamma2=-2.0)
        with pytest.raises(DomainError, match="^voltages must be > 0$"):
            temp_voltage_af(C(120.0), 170.0, C(50.0), 0.0, p)
        with pytest.raises(DomainError, match="^current densities must be > 0$"):
            blacks_af(C(150.0), -2.0e6, C(55.0), 5.0e5, p)
        interacting = GenEyringParams(gamma0=1.0, gamma1=ActivationEnergy.ev(0.5),
                                      gamma2=-2.0, gamma3=0.1)
        with pytest.raises(ConfigError, match="electromigration form has no interaction"):
            blacks_af(C(150.0), 2.0e6, C(55.0), 5.0e5, interacting)

    def test_identity_at_use_condition(self):
        p = GenEyringParams(gamma0=1.0, gamma1=ActivationEnergy.ev(0.9),
                            gamma2=2.66)
        assert_allclose(peck_af(C(25.0), 0.40, C(25.0), 0.40, p), 1.0, rtol=1e-15)
