# Censored maximum-likelihood fitting: likelihood values, the optimizer,
# delta-method quantiles, profile sweeps, the reciprocity test and the
# bootstrap (checked against one fit_ml per resample, kept below as the
# reference).
#
# Frozen fit values were produced by this package's own optimizer, pinned
# after verifying the score vanishes (max |gradient| < 1e-8) and the
# log-likelihood is a local maximum; tolerances leave room for BLAS-level
# reordering across platforms.

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from altkit import (
    BootstrapQuantiles,
    LifeRecord,
    design_row,
    default_init,
    default_profile_grid,
    fit_ml,
    likelihood_gradient,
    neg_log_likelihood,
    bootstrap_quantile,
    parse_model,
    profile_lambda,
    quantile_at_use,
    reciprocity_test,
)
from altkit.errors import (
    DomainError,
    IllPosedFitError,
    InestimableError,
    NonConvergenceError,
)
import altkit.fitml
from altkit.fitml import NEWTON_STEPS, SKIP_REASONS, fd_gradient, fd_hessian, _Likelihood
from altkit.lifetime import std_quantile


def assert_hessian_matches_fd(like, theta):
    hess = like.hessian(theta)
    assert_allclose(hess, fd_hessian(like, theta), rtol=1e-4,
                    atol=1e-6 * float(np.max(np.abs(hess))))


class TestNegLogLikelihood:
    def test_single_failure_lognormal(self):
        # -log phi(0) = log sqrt(2 pi) = 0.918938533204672...; t = 1 makes
        # the log t and log sigma terms vanish.
        spec = parse_model("lognormal: mu ~ 1")
        nll = neg_log_likelihood([LifeRecord(1.0, "failed", {})], spec,
                                 [0.0, 0.0])
        assert_allclose(nll, 0.9189385332046727, rtol=1e-15)

    def test_single_censored_lognormal(self):
        # -log S(0) = -log(1/2) = log 2.
        spec = parse_model("lognormal: mu ~ 1")
        nll = neg_log_likelihood([LifeRecord(1.0, "censored", {})], spec,
                                 [0.0, 0.0])
        assert_allclose(nll, math.log(2.0), rtol=1e-15)

    def test_single_records_weibull(self):
        # SEV at z = 0: -logpdf = 1 and -log S = e^0 = 1, both exactly.
        spec = parse_model("weibull: mu ~ 1")
        failed = neg_log_likelihood([LifeRecord(1.0, "failed", {})], spec,
                                    [0.0, 0.0])
        censored = neg_log_likelihood([LifeRecord(1.0, "censored", {})], spec,
                                      [0.0, 0.0])
        assert_allclose(failed, 1.0, rtol=1e-15)
        assert_allclose(censored, 1.0, rtol=1e-15)

    def test_additive_over_records(self):
        spec = parse_model("lognormal: mu ~ 1")
        r1 = [LifeRecord(2.0, "failed", {})]
        r2 = [LifeRecord(5.0, "censored", {})]
        theta = [0.3, -0.2]
        assert_allclose(
            neg_log_likelihood(r1 + r2, spec, theta),
            neg_log_likelihood(r1, spec, theta)
            + neg_log_likelihood(r2, spec, theta),
            rtol=1e-14)

    def test_later_censoring_cannot_decrease_the_log_survival_term(self):
        # A censored unit that survives longer is rarer: -log S increases
        # with the censoring time at fixed parameters.
        spec = parse_model("lognormal: mu ~ 1")
        theta = [1.0, 0.0]
        values = [neg_log_likelihood([LifeRecord(t, "censored", {})], spec,
                                     theta) for t in (1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_barrier_instead_of_overflow(self):
        spec = parse_model("lognormal: mu ~ 1")
        bad = neg_log_likelihood([LifeRecord(1.0, "failed", {})], spec,
                                 [0.0, 1000.0])
        assert math.isfinite(bad)

    def test_theta_length_validated(self):
        spec = parse_model("lognormal: mu ~ 1")
        with pytest.raises(DomainError):
            neg_log_likelihood([LifeRecord(1.0, "failed", {})], spec, [0.0])

    def test_time_unit_invariance_of_shape(self, gab):
        # Rescaling all times by c shifts the nll by n_failed * log c and
        # the optimal intercept by log c; all other coordinates match.
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        scaled = [LifeRecord(r.time * 1000.0, r.status, r.condition)
                  for r in gab]
        theta = np.array([25.0, -5.0, -0.3])
        theta_shift = theta + np.array([math.log(1000.0), 0.0, 0.0])
        n_failed = sum(r.failed for r in gab)
        assert_allclose(
            neg_log_likelihood(scaled, spec, theta_shift),
            neg_log_likelihood(gab, spec, theta) + n_failed * math.log(1000.0),
            rtol=1e-12)


class TestGradient:
    def test_matches_finite_differences(self, gab):
        specs = [
            ("lognormal: mu ~ log(voltstress)", [22.0, -9.0, -0.5]),
            ("weibull: mu ~ log(voltstress)", [20.0, -8.0, -0.2]),
            ("lognormal: mu ~ log(voltstress); sigma ~ log(voltstress)",
             [22.0, -9.0, 4.0, -0.8]),
        ]
        for text, theta in specs:
            spec = parse_model(text)
            like = _Likelihood(gab, spec)
            analytic = likelihood_gradient(gab, spec, theta)
            numeric = fd_gradient(like, np.asarray(theta, dtype=float))
            assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)
            assert_hessian_matches_fd(like, np.asarray(theta, dtype=float))

    def test_random_points(self):
        rng = np.random.default_rng(0)
        recs = [LifeRecord(float(t), "failed" if i % 3 else "censored",
                           {"v": float(v)})
                for i, (t, v) in enumerate(zip(
                    np.exp(rng.normal(1.0, 0.8, 40)),
                    rng.uniform(100.0, 300.0, 40)))]
        spec = parse_model("lognormal: mu ~ log(v)")
        like = _Likelihood(recs, spec)
        for _ in range(10):
            theta = np.array([rng.normal(5.0, 1.0), rng.normal(0.0, 0.5),
                              rng.normal(0.0, 0.3)])
            assert_allclose(like.gradient(theta), fd_gradient(like, theta),
                            rtol=1e-5, atol=1e-8)
            assert_hessian_matches_fd(like, theta)


class TestKernelPass:
    @pytest.mark.parametrize("family", ["lognormal", "weibull"])
    def test_failures_and_censored_units_reach_their_own_kernels(
            self, gab, monkeypatch, family):
        # Every call sees exactly the failed rows (density kernels) or
        # exactly the censored rows (survival kernels), and the survival
        # derivative runs at most once per likelihood evaluation.
        rows: dict[str, list[int]] = {}
        for name in ("std_logpdf", "std_logsf", "std_dlogpdf", "std_dlogsf"):
            kernel = getattr(altkit.fitml, name)

            def counted(z, fam, _kernel=kernel, _rows=rows.setdefault(name, [])):
                _rows.append(np.size(z))
                return _kernel(z, fam)

            monkeypatch.setattr(altkit.fitml, name, counted)
        fit = fit_ml(gab, parse_model(f"{family}: mu ~ log(voltstress)"))
        n_censored = fit.n_records - fit.n_failed
        assert rows["std_logpdf"] and set(rows["std_logpdf"]) == {fit.n_failed}
        assert rows["std_dlogpdf"] and set(rows["std_dlogpdf"]) == {fit.n_failed}
        assert rows["std_logsf"] and set(rows["std_logsf"]) == {n_censored}
        assert rows["std_dlogsf"] and set(rows["std_dlogsf"]) == {n_censored}
        assert len(rows["std_dlogsf"]) <= len(rows["std_logsf"])


class TestFitInsulationData:
    def test_lognormal_fit(self, gab):
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        fit = fit_ml(gab, spec)
        assert fit.converged
        assert fit.n_records == 75 and fit.n_failed == 36
        assert fit.param_names == ("mu:(Intercept)", "mu:log(voltstress)",
                                   "logsigma:(Intercept)")
        assert_allclose(fit.estimates,
                        [54.67398311039441, -9.95714623201282,
                         -0.46212585984617935], rtol=1e-6)
        assert_allclose(fit.loglik, -89.51922902643672, rtol=1e-9)
        assert_allclose(fit.se, [9.286162108624638, 1.7397200677909128,
                                 0.12371169920064777], rtol=1e-4)
        # The score vanishes at the reported optimum.
        g = likelihood_gradient(gab, spec, fit.estimates)
        assert float(np.max(np.abs(g))) < 1e-5

    def test_weibull_fit(self, gab):
        fit = fit_ml(gab, parse_model("weibull: mu ~ log(voltstress)"))
        assert fit.converged
        assert_allclose(fit.estimate("mu:log(voltstress)"),
                        -9.675356206727805, rtol=1e-6)

    def test_estimate_and_se_accessors(self, gab):
        fit = fit_ml(gab, parse_model("lognormal: mu ~ log(voltstress)"))
        i = fit.param_names.index("mu:log(voltstress)")
        assert fit.estimate("mu:log(voltstress)") == fit.estimates[i]
        assert fit.standard_error("mu:log(voltstress)") == fit.se[i]
        with pytest.raises(DomainError):
            fit.estimate("mu:log(current)")

    def test_covariance_symmetric_psd(self, gab):
        fit = fit_ml(gab, parse_model("lognormal: mu ~ log(voltstress)"))
        cov = fit.covariance
        assert_allclose(cov, cov.T, rtol=1e-10)
        assert np.all(np.linalg.eigvalsh(cov) > 0.0)

    def test_custom_init_reaches_same_optimum(self, gab):
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        a = fit_ml(gab, spec)
        b = fit_ml(gab, spec, init=[40.0, -7.0, 0.5])
        assert_allclose(a.estimates, b.estimates, rtol=1e-6, atol=1e-8)


class TestFitValidation:
    def test_no_records(self):
        with pytest.raises(InestimableError):
            fit_ml([], parse_model("lognormal: mu ~ 1"))

    def test_all_censored(self):
        recs = [LifeRecord(5.0, "censored", {}) for _ in range(10)]
        with pytest.raises(InestimableError):
            fit_ml(recs, parse_model("lognormal: mu ~ 1"))

    def test_rank_deficient_design(self, gab):
        # log(v) and boxcox(v, 0) are the same column under different names.
        spec = parse_model(
            "lognormal: mu ~ log(voltstress) + boxcox(voltstress, 0)")
        with pytest.raises(IllPosedFitError):
            fit_ml(gab, spec)

    def test_single_level_with_covariate(self):
        rng = np.random.default_rng(2)
        recs = [LifeRecord(float(t), "failed", {"v": 170.0})
                for t in np.exp(rng.normal(2.0, 0.4, 30))]
        with pytest.raises(IllPosedFitError):
            fit_ml(recs, parse_model("lognormal: mu ~ log(v)"))

    def test_default_init_is_finite(self, gab):
        init = default_init(gab, parse_model("lognormal: mu ~ log(voltstress)"))
        assert init.shape == (3,)
        assert np.all(np.isfinite(init))


class TestDegenerateSamples:
    # All times tied, or every failure exactly on the regression line: the
    # likelihood grows without bound as sigma -> 0, so the fit must stop
    # quickly, quietly and unconverged.
    TIED = [LifeRecord(5.0, "failed", {}) for _ in range(10)]
    ON_LINE = [LifeRecord(math.exp(20.0 - 3.0 * math.log(v)), "failed", {"v": v})
               for v in (100.0, 150.0, 200.0, 250.0) for _ in range(3)]

    @pytest.mark.parametrize("data, model", [
        (TIED, "lognormal: mu ~ 1"),
        (TIED, "weibull: mu ~ 1"),
        (ON_LINE, "lognormal: mu ~ log(v)"),
        (ON_LINE, "weibull: mu ~ log(v)"),
    ], ids=["tied-lognormal", "tied-weibull", "line-lognormal", "line-weibull"])
    def test_fails_fast_without_warnings(self, data, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError) as info:
                fit_ml(data, parse_model(model))
        assert info.value.result.converged is False
        assert info.value.result.iterations <= NEWTON_STEPS


    def test_non_finite_information(self):
        # The start sits at the barrier, where the observed information is inf.
        data = [LifeRecord(1e300, "failed", {"v": 1.0}),
                LifeRecord(1e-300, "failed", {"v": 2.0}),
                LifeRecord(5.0, "censored", {"v": 3.0})]
        with pytest.raises(NonConvergenceError) as info:
            fit_ml(data, parse_model("weibull: mu ~ log(v)"))
        result = info.value.result
        assert np.isnan(result.covariance).all()
        assert result.warnings == ["observed information is not finite; covariance is undefined"]


class TestVaryingSigma:
    def test_recovers_sigma_trend(self):
        # sigma doubles per unit of log stress; the fitted slope finds it.
        rng = np.random.default_rng(21)
        recs = []
        for v in (100.0, 200.0, 400.0):
            n = 150
            sigma = 0.3 * (v / 100.0) ** 0.5
            logt = 8.0 - 1.5 * math.log(v) + sigma * rng.standard_normal(n)
            recs += [LifeRecord(float(math.exp(x)), "failed", {"v": v})
                     for x in logt]
        spec = parse_model("lognormal: mu ~ log(v); sigma ~ log(v)")
        fit = fit_ml(recs, spec)
        assert fit.converged
        slope = fit.estimate("logsigma:log(v)")
        assert_allclose(slope, 0.5 * math.log(2.0) / math.log(2.0), atol=0.1)


class TestQuantileAtUse:
    def test_delta_method_reconstruction(self, gab):
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        fit = fit_ml(gab, spec)
        from altkit import design_row
        from altkit.lifetime import std_quantile

        use = {"voltstress": 120.0}
        q = quantile_at_use(fit, use, 0.1)
        xm = design_row(spec.mu_terms, use)
        xs = design_row(spec.sigma_terms, use)
        zp = float(std_quantile(0.1, "lognormal"))
        sigma = math.exp(float(xs @ fit.estimates[spec.n_mu:]))
        logq = float(xm @ fit.estimates[:spec.n_mu]) + zp * sigma
        grad = np.concatenate([xm, zp * sigma * xs])
        se_log = math.sqrt(float(grad @ fit.covariance @ grad))
        assert_allclose(q.log_quantile, logq, rtol=1e-12)
        assert_allclose(q.quantile, math.exp(logq), rtol=1e-12)
        assert_allclose(q.se_log, se_log, rtol=1e-10)
        assert_allclose(q.se, math.exp(logq) * se_log, rtol=1e-10)

    def test_interval_on_log_scale(self, gab):
        fit = fit_ml(gab, parse_model("lognormal: mu ~ log(voltstress)"))
        q = quantile_at_use(fit, {"voltstress": 120.0}, 0.1)
        z = 1.959963984540054
        assert_allclose(q.lower, math.exp(q.log_quantile - z * q.se_log),
                        rtol=1e-12)
        assert_allclose(q.upper, math.exp(q.log_quantile + z * q.se_log),
                        rtol=1e-12)
        assert q.lower < q.quantile < q.upper

    def test_extrapolation_flag(self, gab):
        fit = fit_ml(gab, parse_model("lognormal: mu ~ log(voltstress)"))
        # 120 V/mm sits below the 170-220 training range; 200 is inside it.
        assert quantile_at_use(fit, {"voltstress": 120.0}, 0.1).extrapolated
        assert not quantile_at_use(fit, {"voltstress": 200.0}, 0.1).extrapolated

    def test_p_bounds(self, gab):
        fit = fit_ml(gab, parse_model("lognormal: mu ~ log(voltstress)"))
        with pytest.raises(DomainError):
            quantile_at_use(fit, {"voltstress": 120.0}, 0.0)

    def test_quantiles_monotone_in_p(self, gab):
        fit = fit_ml(gab, parse_model("lognormal: mu ~ log(voltstress)"))
        qs = [quantile_at_use(fit, {"voltstress": 170.0}, p).quantile
              for p in (0.01, 0.05, 0.1, 0.5, 0.9)]
        assert all(b > a for a, b in zip(qs, qs[1:]))


class TestProfileLambda:
    def test_default_grid(self):
        grid = default_profile_grid()
        assert grid.shape == (31,)
        assert grid[0] == -1.0 and grid[-1] == 2.0

    def test_sweep_on_insulation_data(self, gab):
        spec = parse_model("lognormal: mu ~ boxcox(voltstress, 1)")
        points = profile_lambda(gab, spec, {"voltstress": 120.0}, p=0.1)
        assert len(points) == 31
        assert all(pt.converged for pt in points)
        # The log profile point must agree with the direct log-stress fit.
        direct = fit_ml(gab, parse_model("lognormal: mu ~ log(voltstress)"))
        at_zero = min(points, key=lambda pt: abs(pt.lam))
        assert_allclose(at_zero.loglik, direct.loglik, rtol=1e-9)
        assert all(pt.quantile > 0.0 for pt in points)
        assert all(pt.lower < pt.quantile < pt.upper for pt in points
                   if pt.converged)

    def test_requires_boxcox_term(self, gab):
        from altkit.errors import FormulaError
        with pytest.raises(FormulaError):
            profile_lambda(gab, parse_model("lognormal: mu ~ log(voltstress)"),
                           {"voltstress": 120.0})


class TestReciprocityTest:
    @staticmethod
    def dosage_records(p_true, seed, n_per_level=40, sigma=0.4):
        # Failure happens at a fixed effective exposure; observed dosage to
        # failure then scales as cf^(-p): log dose = const - p log cf.
        rng = np.random.default_rng(seed)
        recs = []
        for cf in (1.0, 2.5, 6.0):
            mu = 3.0 - p_true * math.log(cf)
            for x in rng.normal(mu, sigma, n_per_level):
                recs.append(LifeRecord(float(math.exp(x)), "failed",
                                       {"cf": cf}))
        return recs

    def test_accepts_exact_reciprocity(self):
        res = reciprocity_test(self.dosage_records(1.0, seed=14))
        assert_allclose(res.p_hat, 1.0, atol=0.15)
        assert not res.reject_at_5pct

    def test_rejects_broken_reciprocity(self):
        res = reciprocity_test(self.dosage_records(0.6, seed=14))
        assert res.reject_at_5pct
        assert_allclose(res.p_hat, 0.6, atol=0.15)

    def test_wald_statistic_definition(self):
        res = reciprocity_test(self.dosage_records(1.0, seed=3))
        assert_allclose(res.wald_z, (res.p_hat - 1.0) / res.se, rtol=1e-12)
        from scipy.special import ndtr
        assert_allclose(res.p_value, 2.0 * (1.0 - ndtr(abs(res.wald_z))),
                        rtol=1e-10)

    def test_needs_two_levels(self):
        recs = [LifeRecord(1.0, "failed", {"cf": 2.0}) for _ in range(10)]
        with pytest.raises(InestimableError):
            reciprocity_test(recs)


class TestBootstrap:
    def test_deterministic_given_seed(self, gab):
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        a = bootstrap_quantile(gab, spec, {"voltstress": 120.0}, 0.1,
                               n_boot=30, seed=5)
        b = bootstrap_quantile(gab, spec, {"voltstress": 120.0}, 0.1,
                               n_boot=30, seed=5)
        assert_allclose(a.quantiles, b.quantiles, rtol=0)
        assert a.n_requested == 30
        assert a.n_skipped + a.quantiles.size == 30

    def test_spread_comparable_to_delta_method(self, gab):
        # Same order of magnitude, not equality: n = 75 with heavy
        # censoring leaves real skew in the sampling distribution.
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        fit = fit_ml(gab, spec)
        q = quantile_at_use(fit, {"voltstress": 170.0}, 0.1)
        boot = bootstrap_quantile(gab, spec, {"voltstress": 170.0}, 0.1,
                                  n_boot=120, seed=9)
        assert boot.n_skipped <= 6
        ratio = boot.se_log / q.se_log
        assert 0.5 < ratio < 2.0



GAB_USE = {"voltstress": 120.0}
# Two stress levels and heavy censoring: resamples without a failure
# (inestimable), with one level (ill-posed), with one distinct failure per
# level and nothing to bound sigma (non-converged), and usable ones.
SMALL = [LifeRecord(t, status, {"v": v}) for t, status, v in [
    (10.0, "failed", 1.0), (14.0, "failed", 1.0), (30.0, "censored", 1.0),
    (25.0, "censored", 1.0), (5.0, "failed", 2.0), (9.0, "censored", 2.0)]]

# The "ovf" records: the full-sample fit's upper quantile bound overflows.
OVF = [LifeRecord(t, status, {"v": v}) for t, status, v in [
    (25.0, "censored", 1.0), (14.0, "failed", 1.0), (9.0, "censored", 2.0),
    (10.0, "failed", 1.0), (14.0, "failed", 1.0), (30.0, "censored", 1.0)]]


def point_quantile(fit, use, p):
    """quantile_at_use(fit, use, p).quantile without the interval, which
    overflows on the wildest resamples of SMALL."""
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie strictly inside (0, 1)")
    k = fit.spec.n_mu
    mu = float(design_row(fit.spec.mu_terms, use) @ fit.estimates[:k])
    sigma = math.exp(float(design_row(fit.spec.sigma_terms, use) @ fit.estimates[k:]))
    return math.exp(mu + float(std_quantile(p, fit.spec.family)) * sigma)


def bootstrap_one_at_a_time(data, spec, use, p, n_boot, seed, init=None):
    """The reference bootstrap: the same draws, each resample a list of
    duplicated records fitted by fit_ml.  Returns the kept quantiles, the
    skip counts by reason, and per kept resample whether its failures
    span more than one condition (otherwise the likelihood has no
    maximum and the fit stops where its start leads it)."""
    rng = np.random.default_rng(seed)
    quantiles, spans = [], []
    reasons = Counter({reason: 0 for reason in SKIP_REASONS})
    for _ in range(n_boot):
        sample = [data[i] for i in rng.integers(0, len(data), size=len(data))]
        try:
            quantiles.append(point_quantile(fit_ml(sample, spec, init), use, p))
            spans.append(len({tuple(r.condition.items()) for r in sample if r.failed}) > 1)
        except InestimableError:
            reasons["inestimable"] += 1
        except IllPosedFitError:
            reasons["ill_posed"] += 1
        except NonConvergenceError:
            reasons["non_converged"] += 1
        except DomainError:
            reasons["domain"] += 1
    return np.array(quantiles), dict(reasons), np.array(spans, dtype=bool)


class TestWeightedLikelihood:
    @pytest.mark.parametrize("model", [
        "lognormal: mu ~ log(voltstress)",
        "weibull: mu ~ log(voltstress)",
        "lognormal: mu ~ log(voltstress); sigma ~ log(voltstress)",
        "weibull: mu ~ log(voltstress); sigma ~ log(voltstress)",
    ])
    def test_weights_equal_duplicated_records(self, gab, model):
        spec = parse_model(model)
        idx = np.random.default_rng(4).integers(0, len(gab), size=len(gab))
        counts = np.bincount(idx, minlength=len(gab))
        assert (counts == 0).any() and (counts > 1).any()
        weighted = _Likelihood(gab, spec).weighted(counts[None])
        duplicated = _Likelihood([gab[i] for i in idx], spec)
        theta = fit_ml(gab, spec).estimates + 0.05
        assert_allclose(weighted(theta), duplicated(theta), rtol=1e-12)
        for a, b in ((weighted.gradient(theta), duplicated.gradient(theta)),
                     (weighted.hessian(theta), duplicated.hessian(theta))):
            assert_allclose(a, b, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(b))))

    @pytest.mark.parametrize("family", ["lognormal", "weibull"])
    def test_zero_weight_row_adds_exactly_nothing(self, family):
        # sigma = exp(-400) puts the last unit's log survival at -inf; with
        # weight 0 it must drop out, not turn the sums into nan.
        spec = parse_model(f"{family}: mu ~ log(v)")
        kept = [LifeRecord(1.0, "failed", {"v": v}) for v in (1.0, 2.0, 3.0)]
        data = kept + [LifeRecord(1e300, "censored", {"v": 2.0})]
        theta = np.array([0.0, 0.0, -400.0])
        assert _Likelihood(data, spec)(theta) == altkit.fitml.BARRIER
        weighted = _Likelihood(data, spec).weighted(np.array([[1, 1, 1, 0]]))
        without = _Likelihood(kept, spec)
        assert math.isfinite(weighted(theta))
        assert weighted(theta) == without(theta)
        assert_array_equal(weighted.gradient(theta), without.gradient(theta))
        assert_array_equal(weighted.hessian(theta), without.hessian(theta))


class TestBatchedBootstrap:
    @pytest.mark.parametrize("family", ["lognormal", "weibull"])
    @pytest.mark.parametrize("seed", [5, 9])
    def test_matches_one_fit_per_resample(self, gab, family, seed):
        spec = parse_model(f"{family}: mu ~ log(voltstress)")
        boot = bootstrap_quantile(gab, spec, GAB_USE, 0.1, 50, seed)
        want, reasons, _ = bootstrap_one_at_a_time(gab, spec, GAB_USE, 0.1, 50, seed)
        assert boot.skip_reasons == reasons
        assert_allclose(boot.quantiles, want, rtol=1e-8)

    @pytest.mark.parametrize("family", ["lognormal", "weibull"])
    def test_every_skip_reason_matches(self, family):
        # Every resample starts from the full-sample estimates, so the
        # reference does too (from a cold start fit_ml fails to converge
        # on some resamples that do have a maximum).
        spec = parse_model(f"{family}: mu ~ log(v)")
        init = fit_ml(SMALL, spec).estimates
        use = {"v": 1.5}
        boot = bootstrap_quantile(SMALL, spec, use, 0.1, 40, 39)
        want, reasons, spans = bootstrap_one_at_a_time(SMALL, spec, use, 0.1, 40, 39, init)
        assert all(reasons[r] > 0 for r in ("inestimable", "ill_posed", "non_converged"))
        assert boot.skip_reasons == reasons
        assert boot.n_skipped == sum(reasons.values()) == 40 - boot.quantiles.size
        assert spans.sum() >= 20
        assert_allclose(boot.quantiles[spans], want[spans], rtol=1e-8)
        # A quantile undefined at the use condition skips every resample
        # that fits, after the fit's own reasons.
        for bad_use, p in (({"v": -1.0}, 0.1), (use, 1.5)):
            boot = bootstrap_quantile(SMALL, spec, bad_use, p, 40, 39)
            _, reasons, _ = bootstrap_one_at_a_time(SMALL, spec, bad_use, p, 40, 39, init)
            assert reasons["domain"] > 0
            assert boot.skip_reasons == reasons and boot.quantiles.size == 0

    def test_default_start_when_the_full_sample_fit_fails(self):
        data = TestDegenerateSamples.ON_LINE
        spec = parse_model("weibull: mu ~ log(v)")
        with pytest.raises(NonConvergenceError):
            fit_ml(data, spec)
        boot = bootstrap_quantile(data, spec, {"v": 120.0}, 0.1, 20, 2)
        want, reasons, _ = bootstrap_one_at_a_time(data, spec, {"v": 120.0}, 0.1, 20, 2)
        assert boot.skip_reasons == reasons
        assert_allclose(boot.quantiles, want, rtol=1e-8)

    @pytest.mark.parametrize("data, model, use, seed", [
        ("gab", "lognormal: mu ~ log(voltstress)", GAB_USE, 5),
        ("small", "weibull: mu ~ log(v)", {"v": 1.5}, 39),
    ])
    def test_block_size_does_not_change_results(self, gab, monkeypatch,
                                                 data, model, use, seed):
        data = gab if data == "gab" else SMALL
        spec = parse_model(model)
        default = bootstrap_quantile(data, spec, use, [0.1, 0.5], 40, seed)
        monkeypatch.setattr(altkit.fitml, "_BLOCK_ELEMENTS", 1)
        one_by_one = bootstrap_quantile(data, spec, use, [0.1, 0.5], 40, seed)
        assert_array_equal(one_by_one.quantiles, default.quantiles)
        assert one_by_one.skip_reasons == default.skip_reasons

    def test_several_p_share_the_fits(self, gab):
        # On the ovf records se_log once depended on which other p were asked for.
        for data, model, use, n_boot, seed in (
            (gab, "lognormal: mu ~ log(voltstress)", GAB_USE, 30, 5),
            (OVF, "lognormal: mu ~ log(v)", {"v": 1.5}, 20, 1),
        ):
            spec = parse_model(model)
            both = bootstrap_quantile(data, spec, use, [0.1, 0.5], n_boot, seed)
            assert both.quantiles.shape == (n_boot - both.n_skipped, 2)
            for j, p in enumerate((0.1, 0.5)):
                alone = bootstrap_quantile(data, spec, use, p, n_boot, seed)
                assert_array_equal(both.quantiles[:, j], alone.quantiles)
                assert both.se_log[j] == alone.se_log

    @pytest.mark.parametrize("n_boot", [1, 0, -3])
    def test_needs_two_resamples(self, gab, n_boot):
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        with pytest.raises(DomainError):
            bootstrap_quantile(gab, spec, GAB_USE, 0.1, n_boot, 1)

    @pytest.mark.parametrize("quantiles", [np.array([500.0]), np.empty(0), np.full((1, 2), 500.0)])
    def test_se_log_is_nan_below_two_kept(self, quantiles):
        boot = BootstrapQuantiles(quantiles, 2, 2 - len(quantiles))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            se = boot.se_log
        assert np.all(np.isnan(se)) and np.shape(se) == quantiles.shape[1:]


class TestProfileWarmStart:
    def test_matches_cold_fits_in_fewer_steps(self, gab, monkeypatch):
        spec = parse_model("lognormal: mu ~ boxcox(voltstress, 1)")
        steps = []
        cold_fit = altkit.fitml.fit_ml

        def counted(*args):
            fit = cold_fit(*args)
            steps.append(fit.iterations)
            return fit

        monkeypatch.setattr(altkit.fitml, "fit_ml", counted)
        points = profile_lambda(gab, spec, GAB_USE)
        monkeypatch.undo()
        cold = [fit_ml(gab, spec.with_boxcox_lambda(pt.lam)) for pt in points]
        assert len(steps) == len(cold) == 31
        for pt, fit in zip(points, cold):
            assert pt.converged
            assert_allclose(pt.loglik, fit.loglik, rtol=1e-10)
        assert sum(steps) < sum(fit.iterations for fit in cold)


class TestHessianUtilities:
    def test_fd_hessian_on_quadratic(self):
        # Exact on quadratics up to roundoff: f = 0.5 x'Ax + b'x.
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        b = np.array([1.0, -2.0, 0.3])

        def f(x):
            return 0.5 * float(x @ a @ x) + float(b @ x)

        h = fd_hessian(f, np.array([0.3, -0.7, 1.1]))
        assert_allclose(h, a, rtol=1e-6, atol=1e-8)
        g = fd_gradient(f, np.array([0.3, -0.7, 1.1]))
        assert_allclose(g, a @ np.array([0.3, -0.7, 1.1]) + b,
                        rtol=1e-8, atol=1e-10)
