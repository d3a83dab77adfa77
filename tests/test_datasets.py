# The embedded insulation life data and the synthetic life-data generator.

import hashlib
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from altkit import (
    Censoring,
    GAB_CENSOR_TIME,
    GAB_CONDITION_COLUMN,
    GAB_CONTENT_SHA256,
    GAB_USE_VOLTSTRESS,
    SyntheticGenerator,
    gab_content_hash,
    generate,
    load_gab,
    parse_model,
    std_quantile,
)
from altkit.errors import ConfigError


class TestEmbeddedData:
    def test_layout(self, gab):
        assert len(gab) == 75
        levels = sorted({r.condition[GAB_CONDITION_COLUMN] for r in gab})
        assert levels == [170.0, 190.0, 200.0, 210.0, 220.0]
        per_level = {
            lvl: [r for r in gab if r.condition[GAB_CONDITION_COLUMN] == lvl]
            for lvl in levels
        }
        assert all(len(v) == 15 for v in per_level.values())
        failed_counts = {lvl: sum(r.failed for r in rs)
                         for lvl, rs in per_level.items()}
        assert failed_counts == {170.0: 0, 190.0: 3, 200.0: 7,
                                 210.0: 11, 220.0: 15}

    def test_censoring_structure(self, gab):
        assert GAB_CENSOR_TIME == 6.480
        for r in gab:
            if r.failed:
                assert 0.0 < r.time < GAB_CENSOR_TIME
            else:
                assert r.time == GAB_CENSOR_TIME

    def test_content_hash_is_pinned(self):
        # Canonical "level,time,status" lines hashed so any silent edit of
        # the embedded values fails loudly.
        assert gab_content_hash() == GAB_CONTENT_SHA256
        assert len(GAB_CONTENT_SHA256) == 64
        int(GAB_CONTENT_SHA256, 16)  # hex

    def test_spot_values(self, gab):
        # First and last failures at the extreme failing levels.
        at_190 = sorted(r.time for r in gab
                        if r.failed and r.condition[GAB_CONDITION_COLUMN] == 190.0)
        assert_allclose(at_190, [3.248, 4.052, 5.304], rtol=0)
        at_220 = sorted(r.time for r in gab
                        if r.failed and r.condition[GAB_CONDITION_COLUMN] == 220.0)
        assert at_220[0] == 0.401 and at_220[-1] == 5.572

    def test_use_condition_constant(self):
        assert GAB_USE_VOLTSTRESS == 120.0

    def test_fresh_copy_each_call(self):
        a, b = load_gab(), load_gab()
        assert a == b
        assert a is not b


class TestCensoringConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Censoring("time", 0.0)
        with pytest.raises(ConfigError):
            Censoring("fraction", 1.0)
        with pytest.raises(ConfigError):
            Censoring("fraction", -0.1)
        with pytest.raises(ConfigError):
            Censoring("interval", 1.0)
        Censoring("none", 0.0)
        Censoring("fraction", 0.0)


class TestSyntheticGenerator:
    def spec(self):
        return parse_model("lognormal: mu ~ log(voltstress)")

    def test_deterministic(self):
        gen = SyntheticGenerator(
            seed=99, spec=self.spec(), mu_params=(20.0, -5.0), sigma=0.5,
            plan=(({"voltstress": 170.0}, 20), ({"voltstress": 220.0}, 20)),
            censoring=Censoring("fraction", 0.25))
        a, b = generate(gen), generate(gen)
        assert a == b
        other = generate(SyntheticGenerator(
            seed=100, spec=self.spec(), mu_params=(20.0, -5.0), sigma=0.5,
            plan=(({"voltstress": 170.0}, 20), ({"voltstress": 220.0}, 20)),
            censoring=Censoring("fraction", 0.25)))
        assert other != a

    def test_fraction_censoring_count(self):
        gen = SyntheticGenerator(
            seed=7, spec=self.spec(), mu_params=(20.0, -5.0), sigma=0.5,
            plan=(({"voltstress": 170.0}, 50), ({"voltstress": 220.0}, 50)),
            censoring=Censoring("fraction", 0.30))
        recs = generate(gen)
        assert len(recs) == 100
        assert sum(not r.failed for r in recs) == 30
        cutoff = max(r.time for r in recs)
        assert all(r.time == cutoff for r in recs if not r.failed)

    def test_no_censoring(self):
        gen = SyntheticGenerator(
            seed=7, spec=self.spec(), mu_params=(20.0, -5.0), sigma=0.5,
            plan=(({"voltstress": 170.0}, 30),),
            censoring=Censoring("none", 0.0))
        recs = generate(gen)
        assert all(r.failed for r in recs)

    def test_time_censoring(self):
        # Median lifetime e^1 = 2.72 straddles the 3.0 cutoff.
        gen = SyntheticGenerator(
            seed=7, spec=parse_model("lognormal: mu ~ 1"), mu_params=(1.0,),
            sigma=1.0, plan=(({}, 200),), censoring=Censoring("time", 3.0))
        recs = generate(gen)
        assert any(not r.failed for r in recs)
        assert all(r.time == 3.0 for r in recs if not r.failed)
        assert all(r.time <= 3.0 for r in recs)

    @pytest.mark.parametrize("sigma", [400.0, 1e6])
    def test_sigma_beyond_double_precision(self, sigma):
        gen = SyntheticGenerator(
            seed=7, spec=self.spec(), mu_params=(20.0, -5.0), sigma=sigma,
            plan=(({"voltstress": 170.0}, 30),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="^sigma = "):
                generate(gen)

    def test_marginal_distribution_location(self):
        # Median log-lifetime at 170 V/mm should sit near
        # 20 - 5 log(170) = -5.675 for a large uncensored sample.
        gen = SyntheticGenerator(
            seed=3, spec=self.spec(), mu_params=(20.0, -5.0), sigma=0.5,
            plan=(({"voltstress": 170.0}, 4000),),
            censoring=Censoring("none", 0.0))
        logt = np.log([r.time for r in generate(gen)])
        mu = 20.0 - 5.0 * np.log(170.0)
        assert_allclose(np.median(logt), mu, atol=0.03)
        assert_allclose(np.std(logt), 0.5, atol=0.03)

    def test_weibull_family_uses_sev_quantiles(self):
        spec = parse_model("weibull: mu ~ 1")
        gen = SyntheticGenerator(
            seed=11, spec=spec, mu_params=(2.0,), sigma=0.25,
            plan=(({}, 4000),), censoring=Censoring("none", 0.0))
        logt = np.log([r.time for r in generate(gen)])
        # SEV median is mu + sigma * log(log 2).
        med = 2.0 + 0.25 * float(std_quantile(0.5, "weibull"))
        assert_allclose(np.median(logt), med, atol=0.03)

    def test_plan_and_param_validation(self):
        with pytest.raises(ConfigError):
            SyntheticGenerator(seed=1, spec=self.spec(), mu_params=(20.0,),
                               sigma=0.5, plan=(({"voltstress": 170.0}, 10),),
                               censoring=Censoring("none", 0.0))
        with pytest.raises(ConfigError):
            SyntheticGenerator(seed=1, spec=self.spec(),
                               mu_params=(20.0, -5.0), sigma=-0.5,
                               plan=(({"voltstress": 170.0}, 10),),
                               censoring=Censoring("none", 0.0))
        with pytest.raises(ConfigError):
            SyntheticGenerator(seed=1, spec=self.spec(),
                               mu_params=(20.0, -5.0), sigma=0.5,
                               plan=(({"voltstress": 170.0}, 0),),
                               censoring=Censoring("none", 0.0))
