# Log-location-scale lifetime models, SAFT scaling, proportional hazards,
# and the time-transformation axiom checker.

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from altkit import (
    LifeDistribution,
    SaftModel,
    TimeTransformation,
    Temperature,
    VaryingSigmaModel,
    arrhenius_af,
    cdf,
    check_time_transformation,
    ph_transform,
    quantile,
    saft_distribution_at,
    saft_quantile,
    std_cdf,
    std_d2logpdf,
    std_d2logsf,
    std_dlogpdf,
    std_dlogsf,
    std_logpdf,
    std_logsf,
    std_quantile,
    varying_sigma_quantile_ratio,
)
from altkit.errors import DomainError
from altkit.lifetime import log_ndtr, ndtr, ndtri


class TestStandardFunctions:
    def test_lognormal_matches_scipy(self):
        from scipy.stats import norm

        z = np.linspace(-6.0, 6.0, 25)
        assert_allclose(std_cdf(z, "lognormal"), norm.cdf(z), rtol=1e-12)
        assert_allclose(std_logpdf(z, "lognormal"), norm.logpdf(z), rtol=1e-12)
        assert_allclose(std_logsf(z, "lognormal"), norm.logsf(z), rtol=1e-10)

    def test_weibull_smallest_extreme_value(self):
        # F(z) = 1 - exp(-exp(z)); at z = 0 this is 1 - 1/e.
        assert_allclose(std_cdf(0.0, "weibull"), 1.0 - math.exp(-1.0), rtol=1e-15)
        z = np.linspace(-6.0, 2.0, 17)
        assert_allclose(std_cdf(std_quantile(std_cdf(z, "weibull"), "weibull"),
                                "weibull"),
                        std_cdf(z, "weibull"), rtol=1e-12)

    def test_quantile_inverts_cdf(self):
        p = np.array([0.01, 0.1, 0.5, 0.9, 0.99])
        for family in ("lognormal", "weibull"):
            assert_allclose(std_cdf(std_quantile(p, family), family), p,
                            rtol=1e-12)

    def test_deep_tail_log_survival(self):
        # log S must stay finite and accurate where 1 - F underflows.
        assert std_logsf(40.0, "lognormal") < -700.0
        assert math.isfinite(std_logsf(40.0, "lognormal"))

    def test_score_functions_match_finite_differences(self):
        z = np.linspace(-3.0, 3.0, 13)
        h = 1e-6
        for family in ("lognormal", "weibull"):
            d_pdf = (std_logpdf(z + h, family) - std_logpdf(z - h, family)) / (2 * h)
            d_sf = (std_logsf(z + h, family) - std_logsf(z - h, family)) / (2 * h)
            assert_allclose(std_dlogpdf(z, family), d_pdf, rtol=1e-7, atol=1e-9)
            assert_allclose(std_dlogsf(z, family), d_sf, rtol=1e-7, atol=1e-9)
            d2_pdf = (std_dlogpdf(z + h, family) - std_dlogpdf(z - h, family)) / (2 * h)
            d2_sf = (std_dlogsf(z + h, family) - std_dlogsf(z - h, family)) / (2 * h)
            assert_allclose(std_d2logpdf(z, family), d2_pdf, rtol=1e-7, atol=1e-9)
            assert_allclose(std_d2logsf(z, family), d2_sf, rtol=1e-7, atol=1e-9)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            std_cdf(0.0, "gamma")

    @pytest.mark.parametrize("kernel", [
        std_cdf, std_quantile, std_logpdf, std_logsf,
        std_dlogpdf, std_dlogsf, std_d2logpdf, std_d2logsf,
    ], ids=lambda f: f.__name__)
    def test_unknown_family_is_named(self, kernel):
        with pytest.raises(DomainError, match="^unknown family 'gamma'$"):
            kernel(0.5, "gamma")


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
KERNELS = (log_ndtr, ndtr, ndtri)


# The mpmath oracles import mpmath where they run, as the scipy oracles
# import scipy, so the other tests here do not need it.
def mp80(f, xs):
    """f at each x, to 80 digits, rounded to a double."""
    import mpmath

    with mpmath.workdps(80):
        return np.array([float(f(mpmath.mpf(float(x)))) for x in xs])


def phi(z):
    import mpmath

    return mpmath.ncdf(z)


def log_phi(z):
    import mpmath

    return mpmath.log1p(-mpmath.ncdf(-z)) if z > 0 else mpmath.log(mpmath.ncdf(z))


def phi_inverse(p):
    """Newton's method on log Phi in the lower tail, where it converges from
    any start; 1 - p is exact at 80 digits."""
    import mpmath

    tail = min(p, 1 - p)
    x = mpmath.mpf(-1.0)
    for _ in range(40):
        step = (mpmath.log(mpmath.ncdf(x)) - mpmath.log(tail)) * mpmath.ncdf(x) / mpmath.npdf(x)
        x -= step
        if abs(step) < mpmath.mpf(10) ** -30 * abs(x):
            break
    return x if p < 0.5 else -x


def assert_within(got, want, rtol):
    """|got - want| <= rtol * |want|, with rtol an array or a number; below
    the normal doubles, where a relative error means nothing, to 1e-320."""
    assert np.all(np.abs(got - want) <= np.maximum(rtol * np.abs(want), 1e-320)), (
        np.max(np.abs(got - want) / np.maximum(np.abs(want), TINY)))


class TestNormalKernels:
    """log Phi, Phi and Phi^-1 against mpmath at 80 digits.  For z > 0 in
    log Phi, and for z < 0 in Phi, the rounding of z/sqrt 2 alone moves
    the result by up to about z^2 eps relative (scipy.special's kernels
    too), so those bands grow with z^2."""

    def test_log_ndtr_against_mpmath(self):
        # Across the switch to the asymptotic series at z = -37.
        z = np.unique(np.concatenate([np.linspace(-60.0, 40.0, 1001),
                                      np.linspace(-37.2, -36.8, 41),
                                      np.nextafter(-37.0, [-np.inf, np.inf])]))
        got, want = log_ndtr(z), mp80(log_phi, z)
        assert np.all(want[z < -38.5] < -740.0)
        assert_within(got, want, np.where(z <= 0.0, 4 * EPS, 2 * EPS * (1.0 + z * z)))

    def test_ndtr_against_mpmath(self):
        z = np.linspace(-38.0, 9.0, 471)
        assert_within(ndtr(z), mp80(phi, z), 2 * EPS * (1.0 + z * z))

    def test_ndtri_against_mpmath(self):
        p = np.concatenate([10.0 ** -np.linspace(300.0, 1.0, 100),
                            np.linspace(0.02, 0.98, 25),
                            1.0 - 10.0 ** -np.linspace(1.0, 16.0, 31)])
        p = p[p != 0.5]
        assert_within(ndtri(p), mp80(phi_inverse, p), 2e-15)
        assert ndtri(0.5) == 0.0

    def test_std_quantile_matches_scipy_on_uniforms(self):
        from scipy.special import ndtri as scipy_ndtri

        u = np.random.default_rng(1).uniform(size=50_000)
        assert_within(std_quantile(u, "lognormal"), scipy_ndtri(u), 2e-15)

    def test_boundaries_match_scipy(self):
        # Phi^-1 is -inf at 0 and inf at 1 (a uniform draw can be 0.0) and
        # NaN outside [0, 1]; NaN in gives NaN out, without a warning, also
        # after a hundred calls have warmed up the interpreter.
        import scipy.special

        for kernel in KERNELS:
            out = kernel(np.append(np.linspace(0.0, 1.0, 101), np.nan))
            assert np.isnan(out[-1]) and not np.isnan(out[:-1]).any()
        z = np.array([-np.inf, np.inf, np.nan])
        assert_array_equal(log_ndtr(z), scipy.special.log_ndtr(z))
        assert_array_equal(ndtr(z), scipy.special.ndtr(z))
        p = np.array([-np.inf, -0.5, 0.0, 1.0, 1.5, np.inf, np.nan])
        assert_array_equal(ndtri(p), scipy.special.ndtri(p))
        assert_array_equal(ndtri(p), [np.nan, np.nan, -np.inf, np.inf, np.nan, np.nan, np.nan])

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_shapes(self, kernel):
        for scalar in (0.25, np.float64(0.25), np.array(0.25)):
            assert type(kernel(scalar)) is np.float64
        for shape in ((0,), (0, 3), (2, 1, 3)):
            out = kernel(np.full(shape, 0.25))
            assert out.dtype == np.float64 and out.shape == shape
        assert_array_equal(kernel([0.25, 0.75]), [kernel(0.25), kernel(0.75)])


class TestLifeDistribution:
    def test_lognormal_median(self):
        d = LifeDistribution("lognormal", mu=2.0, sigma=0.5)
        assert_allclose(quantile(d, 0.5), math.exp(2.0), rtol=1e-12)

    def test_quantile_cdf_roundtrip(self):
        d = LifeDistribution("weibull", mu=1.5, sigma=0.8)
        for p in (0.01, 0.1, 0.5, 0.632, 0.99):
            assert_allclose(cdf(d, quantile(d, p)), p, rtol=1e-10)

    def test_weibull_shape_scale(self):
        d = LifeDistribution("weibull", mu=2.0, sigma=0.25)
        assert_allclose(d.weibull_shape, 4.0, rtol=1e-15)
        assert_allclose(d.weibull_scale, math.exp(2.0), rtol=1e-15)
        # The scale parameter is the 63.2% point: F(eta) = 1 - 1/e.
        assert_allclose(cdf(d, d.weibull_scale), 1.0 - math.exp(-1.0),
                        rtol=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            LifeDistribution("lognormal", 0.0, 0.0)
        with pytest.raises(DomainError):
            LifeDistribution("normal", 0.0, 1.0)
        d = LifeDistribution("lognormal", 0.0, 1.0)
        with pytest.raises(DomainError):
            d.weibull_shape
        with pytest.raises(DomainError, match="weibull family only"):
            d.weibull_scale
        with pytest.raises(DomainError):
            cdf(d, 0.0)
        with pytest.raises(DomainError):
            quantile(d, 1.0)


class TestSaftScaling:
    def test_quantile_division(self):
        assert saft_quantile(1200.0, 24.0) == 50.0
        with pytest.raises(DomainError):
            saft_quantile(1200.0, 0.0)

    def test_distribution_shift(self):
        # Dividing lifetimes by AF shifts the log-location by -log AF and
        # leaves sigma untouched, for either family.
        base = LifeDistribution("weibull", mu=8.0, sigma=0.7)
        model = SaftModel(base, lambda x: arrhenius_af(
            Temperature.celsius(x), Temperature.celsius(50.0), 0.5))
        at_test = saft_distribution_at(model, 120.0)
        af = arrhenius_af(Temperature.celsius(120.0),
                          Temperature.celsius(50.0), 0.5)
        assert at_test.family == "weibull"
        assert at_test.sigma == base.sigma
        assert_allclose(at_test.mu, base.mu - math.log(af), rtol=1e-12)

    def test_every_quantile_scales_by_the_same_factor(self):
        base = LifeDistribution("lognormal", mu=8.0, sigma=0.7)
        model = SaftModel(base, lambda x: x)  # x is the factor itself
        at_test = saft_distribution_at(model, 37.5)
        for p in (0.01, 0.1, 0.5, 0.9):
            assert_allclose(quantile(base, p) / quantile(at_test, p), 37.5,
                            rtol=1e-12)

    def test_cdf_time_scaling(self):
        # F(t; x) = F_use(AF * t) pointwise in t.
        base = LifeDistribution("lognormal", mu=4.0, sigma=0.5)
        model = SaftModel(base, lambda x: x)
        at_test = saft_distribution_at(model, 6.0)
        for t in (1.0, 10.0, 55.0, 300.0):
            assert_allclose(cdf(at_test, t), cdf(base, 6.0 * t), rtol=1e-12)

    def test_nonpositive_af_rejected(self):
        base = LifeDistribution("lognormal", mu=4.0, sigma=0.5)
        model = SaftModel(base, lambda x: 0.0)
        with pytest.raises(DomainError):
            saft_distribution_at(model, 1.0)


class TestProportionalHazards:
    def test_weibull_ph_is_a_scale_change(self):
        # With a Weibull baseline, multiplying the hazard by psi divides
        # every lifetime by psi^sigma: PH and scale acceleration coincide.
        f_use = LifeDistribution("weibull", mu=5.0, sigma=0.5)
        psi = 4.0
        for t in (10.0, 50.0, 148.4, 500.0):
            assert_allclose(ph_transform(f_use, psi, t), t / psi**0.5,
                            rtol=1e-9)

    def test_lognormal_ph_is_not_a_scale_change(self):
        # The implied time ratio must drift with t; a single AF cannot
        # reproduce a lognormal hazard multiplication.
        f_use = LifeDistribution("lognormal", mu=5.0, sigma=0.5)
        psi = 4.0
        ts = [20.0, 148.4, 1000.0]
        ratios = [t / ph_transform(f_use, psi, t) for t in ts]
        assert max(ratios) / min(ratios) > 1.05
        # ...and the transformed times are still ordered and accelerated.
        assert all(r > 1.0 for r in ratios)

    def test_domain(self):
        f_use = LifeDistribution("lognormal", mu=5.0, sigma=0.5)
        with pytest.raises(DomainError):
            ph_transform(f_use, 0.0, 10.0)
        with pytest.raises(DomainError):
            ph_transform(f_use, 4.0, 0.0)
        with pytest.raises(DomainError, match="fell on a boundary"):
            ph_transform(f_use, 4.0, 1e-300)  # the survival rounds to 1


class TestVaryingSigma:
    def test_constant_sigma_reduces_to_af(self):
        m = VaryingSigmaModel(mu=lambda x: 10.0 - 2.0 * math.log(x),
                              log_sigma=lambda x: math.log(0.6))
        r01 = varying_sigma_quantile_ratio(m, 5.0, 1.0, 0.1)
        r09 = varying_sigma_quantile_ratio(m, 5.0, 1.0, 0.9)
        assert_allclose(r01, r09, rtol=1e-12)
        assert_allclose(r01, 5.0**2.0, rtol=1e-12)

    def test_varying_sigma_breaks_scale_acceleration(self):
        # When sigma depends on the condition the p = 0.1 and p = 0.9
        # "acceleration factors" disagree, so no single AF exists.
        m = VaryingSigmaModel(mu=lambda x: 10.0 - 2.0 * math.log(x),
                              log_sigma=lambda x: -0.5 + 0.3 * math.log(x))
        r01 = varying_sigma_quantile_ratio(m, 5.0, 1.0, 0.1)
        r09 = varying_sigma_quantile_ratio(m, 5.0, 1.0, 0.9)
        assert abs(r01 / r09 - 1.0) > 0.1

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_p_inside_unit_interval(self, p):
        m = VaryingSigmaModel(mu=lambda x: 10.0, log_sigma=lambda x: 0.0)
        with pytest.raises(DomainError, match="strictly inside"):
            varying_sigma_quantile_ratio(m, 5.0, 1.0, p)


class TestTimeTransformationAxioms:
    def test_classification_accelerating(self):
        # Transformed times below the diagonal at every non-use condition.
        tt = TimeTransformation(func=lambda t, x: t / x, x_use=1.0)
        report = check_time_transformation(
            tt, np.linspace(0.0, 100.0, 21), [1.0, 4.0, 10.0])
        assert report.all_axioms_pass
        assert report.classification == "accelerating"
        assert report.crossing_time is None

    def test_classification_decelerating(self):
        tt = TimeTransformation(func=lambda t, x: t * x, x_use=1.0)
        report = check_time_transformation(
            tt, np.linspace(0.0, 100.0, 21), [1.0, 3.0])
        assert report.classification == "decelerating"

    def test_classification_identity(self):
        tt = TimeTransformation(func=lambda t, x: t, x_use=1.0)
        report = check_time_transformation(
            tt, np.linspace(0.0, 100.0, 21), [1.0, 2.0])
        assert report.classification == "identity"

    def test_crossing_located_by_bisection(self):
        # t^2/4 sits below the diagonal for t < 4 and above for t > 4.
        tt = TimeTransformation(func=lambda t, x: t * t / 4.0 if x != 1.0 else t,
                                x_use=1.0)
        report = check_time_transformation(
            tt, np.linspace(0.0, 10.0, 41), [1.0, 2.0])
        assert report.classification == "crossing"
        assert_allclose(report.crossing_time, 4.0, atol=1e-6)

    def test_crossing_in_a_later_condition(self):
        # x = 2 stays below the diagonal; x = 3 (t^2/4) crosses it at t = 4.
        tt = TimeTransformation(
            func=lambda t, x: {1.0: t, 2.0: t / 2.0, 3.0: t * t / 4.0}[x], x_use=1.0)
        report = check_time_transformation(
            tt, np.linspace(0.0, 10.0, 41), [1.0, 2.0, 3.0])
        assert report.classification == "crossing"
        assert_allclose(report.crossing_time, 4.0, atol=1e-6)

    def test_crossing_off_the_bracket_midpoints(self):
        # t^2/1.3 crosses the diagonal at t = 1.3, which no midpoint of
        # [1, 2] hits, so the bisection runs to its tolerance.
        tt = TimeTransformation(func=lambda t, x: t * t / 1.3 if x != 1.0 else t,
                                x_use=1.0)
        report = check_time_transformation(tt, [1.0, 2.0], [1.0, 2.0])
        assert report.classification == "crossing"
        assert_allclose(report.crossing_time, 1.3, rtol=1e-11)

    def test_axiom_failures_reported(self):
        tt = TimeTransformation(func=lambda t, x: t - x, x_use=0.0)
        report = check_time_transformation(
            tt, np.linspace(0.0, 10.0, 11), [0.0, 1.0])
        assert not report.all_axioms_pass
        assert not report.nonnegative
        assert report.failures

    def test_increase_and_identity_failures_named(self):
        grid, xs = np.linspace(0.0, 10.0, 11), [1.0, 2.0]
        report = check_time_transformation(
            TimeTransformation(func=lambda t, x: t * (10.0 - t), x_use=1.0), grid, xs)
        assert not report.strictly_increasing and not report.identity_at_use
        assert report.failures == ["not strictly increasing in t",
                                   "not the identity at the use condition"]
        report = check_time_transformation(
            TimeTransformation(func=lambda t, x: 2.0 * t, x_use=1.0), grid, xs)
        assert report.strictly_increasing and not report.identity_at_use
        assert report.failures == ["not the identity at the use condition"]

    def test_validity_interval_enforced(self):
        tt = TimeTransformation(func=lambda t, x: t / x, x_use=1.0,
                                validity=(1.0, 50.0))
        with pytest.raises(DomainError):
            tt(0.5, 2.0)
        report = check_time_transformation(
            tt, np.linspace(1.0, 50.0, 15), [1.0, 2.0])
        # t = 0 is outside the validity window, so that axiom is untestable.
        assert report.zero_at_origin is None
        assert report.all_axioms_pass

    def test_grid_needs_two_times(self):
        tt = TimeTransformation(func=lambda t, x: t, x_use=1.0)
        with pytest.raises(DomainError, match="at least two grid times"):
            check_time_transformation(tt, [1.0], [1.0])
