# Degradation-path models, threshold crossings and pseudo failure times.

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from altkit import (
    DegradationSample,
    DielectricPathParams,
    FailureThreshold,
    FirstOrderPathParams,
    ParallelPathParams,
    crossing_time,
    dielectric_failure_time,
    dielectric_strength,
    first_order_path,
    inverse_power_af,
    parallel_crossing_time,
    parallel_path,
    pseudo_failure_times,
)
from altkit.errors import (
    ConfigError,
    DomainError,
    IllPosedFitError,
    NoCrossingError,
)


class TestFirstOrderPath:
    def test_path_values(self):
        p = FirstOrderPathParams(d_inf=0.8, rate_u=0.1)
        assert first_order_path(0.0, p) == 0.0
        # 0.8 * (1 - e^{-0.5}) = 0.31479...
        assert_allclose(first_order_path(5.0, p),
                        0.8 * (1.0 - math.exp(-0.5)), rtol=1e-15)

    def test_saturation(self):
        p = FirstOrderPathParams(d_inf=-1.4, rate_u=0.02)
        assert_allclose(first_order_path(1e6, p), -1.4, rtol=1e-8)

    def test_acceleration_compresses_time(self):
        # Running at af = 7 reaches any level in 1/7 the time.
        use = FirstOrderPathParams(d_inf=0.8, rate_u=0.1, af=1.0)
        fast = FirstOrderPathParams(d_inf=0.8, rate_u=0.1, af=7.0)
        for t in (0.5, 3.0, 12.0):
            assert_allclose(first_order_path(t, fast),
                            first_order_path(7.0 * t, use), rtol=1e-12)

    def test_crossing_closed_form(self):
        # T = -log(1 - 0.5/0.8)/0.1 = 9.80829...
        p = FirstOrderPathParams(d_inf=0.8, rate_u=0.1)
        t = crossing_time(p, FailureThreshold(0.5))
        assert_allclose(t, -math.log(1.0 - 0.625) / 0.1, rtol=1e-15)
        assert_allclose(first_order_path(t, p), 0.5, rtol=1e-12)

    def test_crossing_time_scales_inversely_with_af(self):
        p1 = FirstOrderPathParams(d_inf=0.8, rate_u=0.1, af=1.0)
        p9 = FirstOrderPathParams(d_inf=0.8, rate_u=0.1, af=9.0)
        th = FailureThreshold(0.5)
        assert_allclose(crossing_time(p1, th) / crossing_time(p9, th), 9.0,
                        rtol=1e-12)

    def test_negative_direction_paths(self):
        # A path decaying toward -1.4 crosses a negative threshold.
        p = FirstOrderPathParams(d_inf=-1.4, rate_u=0.05)
        t = crossing_time(p, FailureThreshold(-0.7))
        assert_allclose(first_order_path(t, p), -0.7, rtol=1e-12)

    def test_no_crossing(self):
        p = FirstOrderPathParams(d_inf=0.8, rate_u=0.1)
        with pytest.raises(NoCrossingError):
            crossing_time(p, FailureThreshold(0.9))  # beyond the asymptote
        with pytest.raises(NoCrossingError):
            crossing_time(p, FailureThreshold(-0.1))  # wrong direction

    def test_validation(self):
        with pytest.raises(DomainError):
            FirstOrderPathParams(d_inf=0.0, rate_u=0.1)
        with pytest.raises(DomainError):
            FirstOrderPathParams(d_inf=0.8, rate_u=-0.1)
        with pytest.raises(DomainError, match="^af must be > 0$"):
            FirstOrderPathParams(d_inf=0.8, rate_u=0.1, af=0.0)
        with pytest.raises(DomainError):
            first_order_path(-1.0, FirstOrderPathParams(d_inf=0.8, rate_u=0.1))


class TestParallelPath:
    def test_sum_of_components(self):
        p = ParallelPathParams(
            FirstOrderPathParams(d_inf=0.5, rate_u=0.2),
            FirstOrderPathParams(d_inf=0.3, rate_u=0.01),
        )
        for t in (0.0, 2.0, 50.0):
            assert_allclose(parallel_path(t, p),
                            first_order_path(t, p.first)
                            + first_order_path(t, p.second), rtol=1e-15)

    def test_crossing_solves_the_path(self):
        p = ParallelPathParams(
            FirstOrderPathParams(d_inf=0.5, rate_u=0.2),
            FirstOrderPathParams(d_inf=0.3, rate_u=0.01),
        )
        th = FailureThreshold(0.45)
        t = parallel_crossing_time(p, th)
        assert_allclose(parallel_path(t, p), 0.45, rtol=1e-9)

    def test_matches_single_reaction_when_rates_equal(self):
        # Two equal-rate components behave as one with the summed asymptote.
        p = ParallelPathParams(
            FirstOrderPathParams(d_inf=0.5, rate_u=0.1),
            FirstOrderPathParams(d_inf=0.3, rate_u=0.1),
        )
        single = FirstOrderPathParams(d_inf=0.8, rate_u=0.1)
        th = FailureThreshold(0.45)
        assert_allclose(parallel_crossing_time(p, th),
                        crossing_time(single, th), rtol=1e-9)

    def test_not_a_scale_acceleration_with_unequal_af(self):
        # Accelerating only the fast component distorts the path shape, so
        # crossing-time ratios depend on the threshold: no single AF.
        def times(th):
            base = ParallelPathParams(
                FirstOrderPathParams(d_inf=0.5, rate_u=0.2, af=1.0),
                FirstOrderPathParams(d_inf=0.3, rate_u=0.01, af=1.0))
            accel = ParallelPathParams(
                FirstOrderPathParams(d_inf=0.5, rate_u=0.2, af=12.0),
                FirstOrderPathParams(d_inf=0.3, rate_u=0.01, af=1.0))
            return (parallel_crossing_time(base, FailureThreshold(th)),
                    parallel_crossing_time(accel, FailureThreshold(th)))

        t1_base, t1_acc = times(0.2)
        t2_base, t2_acc = times(0.7)
        ratio_low = t1_base / t1_acc
        ratio_high = t2_base / t2_acc
        assert abs(ratio_low / ratio_high - 1.0) > 0.2

    def test_no_crossing(self):
        p = ParallelPathParams(
            FirstOrderPathParams(d_inf=0.5, rate_u=0.2),
            FirstOrderPathParams(d_inf=0.3, rate_u=0.01),
        )
        with pytest.raises(NoCrossingError):
            parallel_crossing_time(p, FailureThreshold(0.85))
        cancelling = ParallelPathParams(
            FirstOrderPathParams(d_inf=0.5, rate_u=0.2),
            FirstOrderPathParams(d_inf=-0.5, rate_u=0.01),
        )
        with pytest.raises(NoCrossingError, match="combined asymptote is 0"):
            parallel_crossing_time(cancelling, FailureThreshold(0.1))


class TestDielectric:
    def test_simple_variant_closed_form(self):
        # Strength delta0 * t^(1/beta1) meets the applied voltage at
        # T = (volt/delta0)^beta1; with beta1 < 0 lower voltage lasts longer.
        p = DielectricPathParams(delta0=400.0, beta1=-9.0)
        t170, af170 = dielectric_failure_time(170.0, 120.0, p)
        assert_allclose(t170, (170.0 / 400.0) ** -9.0, rtol=1e-12)
        assert_allclose(af170, inverse_power_af(170.0, 120.0, -9.0), rtol=1e-12)
        # The failure-time ratio IS the acceleration factor.
        t120, _ = dielectric_failure_time(120.0, 120.0, p)
        assert_allclose(t120 / t170, af170, rtol=1e-12)

    def test_strength_decays_to_applied_voltage(self):
        p = DielectricPathParams(delta0=400.0, beta1=-9.0)
        t, _ = dielectric_failure_time(170.0, 120.0, p)
        assert_allclose(dielectric_strength(t, 170.0, p), 170.0, rtol=1e-12)

    def test_rate_extended_variant(self):
        # With R(volt) = gamma0 * volt^gamma2 driving the clock, the factor
        # becomes (volt/volt_u)^(gamma2 - gamma1).
        p = DielectricPathParams(delta0=400.0, gamma0=2.0, gamma1=-9.0,
                                 gamma2=3.0)
        t, af = dielectric_failure_time(170.0, 120.0, p, variant="rate_extended")
        rate = 2.0 * 170.0**3.0
        assert_allclose(t, (170.0 / 400.0) ** -9.0 / rate, rtol=1e-12)
        assert_allclose(af, (170.0 / 120.0) ** (3.0 - -9.0), rtol=1e-12)
        strength = dielectric_strength(t, 170.0, p, variant="rate_extended")
        assert_allclose(strength, 170.0, rtol=1e-12)

    def test_variant_configuration_errors(self):
        with pytest.raises(ConfigError):
            dielectric_failure_time(170.0, 120.0,
                                    DielectricPathParams(delta0=400.0))
        with pytest.raises(ConfigError):
            dielectric_failure_time(
                170.0, 120.0, DielectricPathParams(delta0=400.0, beta1=-9.0),
                variant="rate_extended")
        with pytest.raises(ConfigError):
            dielectric_failure_time(
                170.0, 120.0, DielectricPathParams(delta0=400.0, beta1=-9.0),
                variant="quadratic")
        with pytest.raises(DomainError):
            dielectric_failure_time(0.0, 120.0,
                                    DielectricPathParams(delta0=400.0, beta1=-9.0))
        with pytest.raises(ConfigError, match="needs beta1"):
            dielectric_strength(1.0, 170.0, DielectricPathParams(delta0=400.0))
        with pytest.raises(ConfigError, match="needs gamma1 and gamma2"):
            dielectric_strength(
                1.0, 170.0, DielectricPathParams(delta0=400.0, beta1=-9.0, gamma1=-9.0),
                variant="rate_extended")
        with pytest.raises(ConfigError, match="unknown variant"):
            dielectric_strength(
                1.0, 170.0, DielectricPathParams(delta0=400.0, beta1=-9.0),
                variant="quadratic")

    def test_domain(self):
        with pytest.raises(DomainError, match="^delta0 must be > 0$"):
            DielectricPathParams(delta0=0.0, beta1=-9.0)
        with pytest.raises(DomainError, match="^gamma0 must be > 0$"):
            DielectricPathParams(delta0=400.0, gamma0=0.0)
        with pytest.raises(DomainError, match="^time must be >= 0$"):
            dielectric_strength(-1.0, 170.0, DielectricPathParams(delta0=400.0, beta1=-9.0))


class TestPseudoFailureTimes:
    def test_exact_crossing_on_collinear_points(self):
        # Three collinear points: response = 1 - 0.05 t crosses 0.5 at t = 10.
        s = DegradationSample("u1", (0.0, 4.0, 8.0), (1.0, 0.8, 0.6),
                              {"temp_C": 80.0})
        rec, = pseudo_failure_times([s], threshold=0.5, horizon=math.inf)
        assert rec.failed
        assert_allclose(rec.time, 10.0, rtol=1e-12)
        assert rec.condition == {"temp_C": 80.0}

    def test_least_squares_averages_noise(self):
        rng = np.random.default_rng(5)
        t = np.arange(0.0, 10.0, 1.0)
        y = 2.0 - 0.1 * t + 1e-3 * rng.standard_normal(t.size)
        s = DegradationSample("u1", t, y)
        rec, = pseudo_failure_times([s], threshold=1.0, horizon=math.inf)
        assert_allclose(rec.time, 10.0, atol=0.05)

    def test_sqrt_time_scale(self):
        # Linear in sqrt(t): response = 3 sqrt(t) crosses 6 at t = 4.
        t = (1.0, 4.0, 9.0)
        y = tuple(3.0 * math.sqrt(v) for v in t)
        s = DegradationSample("u1", t, y)
        rec, = pseudo_failure_times([s], threshold=6.0,
                                    time_transform="sqrt", horizon=math.inf)
        assert rec.failed
        assert_allclose(rec.time, 4.0, rtol=1e-10)

    def test_default_horizon_censors_at_last_observation(self):
        # The fitted line would cross at t = 10, after the last point at 8.
        s = DegradationSample("u1", (0.0, 4.0, 8.0), (1.0, 0.8, 0.6))
        rec, = pseudo_failure_times([s], threshold=0.5)
        assert not rec.failed
        assert rec.time == 8.0

    def test_explicit_horizon(self):
        s = DegradationSample("u1", (0.0, 4.0, 8.0), (1.0, 0.8, 0.6))
        rec, = pseudo_failure_times([s], threshold=0.5, horizon=12.0)
        assert rec.failed
        assert_allclose(rec.time, 10.0, rtol=1e-12)

    def test_flat_path_censored(self):
        s = DegradationSample("u1", (0.0, 4.0, 8.0), (1.0, 1.0, 1.0))
        rec, = pseudo_failure_times([s], threshold=0.5, horizon=math.inf)
        assert not rec.failed
        assert rec.time == 8.0  # censored at the last observation

    def test_zero_slope_path_censored(self):
        # Round-off gives the path above a slope of about 5e-17; constant
        # zero responses give a least-squares slope of exactly 0.
        s = DegradationSample("u1", (0.0, 4.0, 8.0), (0.0, 0.0, 0.0), {"volt": 150.0})
        recs = pseudo_failure_times([s], threshold=0.5, horizon=math.inf)
        assert [(r.time, r.failed, r.condition) for r in recs] == [(8.0, False, {"volt": 150.0})]

    # The least-squares slope of constant responses is round-off, of either
    # sign; taken as a real slope, it put a crossing at about 1e16.
    @pytest.mark.parametrize("times, responses, threshold", [
        ((0.0, 1.0, 2.0), (1.0, 1.0, 1.0), 0.5),
        ((0.0, 4.0, 8.0), (1.0, 1.0, 1.0), 1.5),
        ((0.0, 1.0, 2.0), (1e6, 1e6, 1e6), 5e5),
    ])
    def test_round_off_slope_is_flat(self, times, responses, threshold):
        s = DegradationSample("u1", times, responses)
        rec, = pseudo_failure_times([s], threshold=threshold, horizon=math.inf)
        assert (rec.time, rec.failed) == (times[-1], False)

    def test_small_real_slope_still_crosses(self):
        # A rise of 1e-9 per unit time, about 9e6 times the round-off bound.
        s = DegradationSample("u1", (0.0, 1.0, 2.0), (1.0, 1.0 + 1e-9, 1.0 + 2e-9))
        rec, = pseudo_failure_times([s], threshold=1.5, horizon=math.inf)
        assert rec.failed
        assert_allclose(rec.time, 5e8, rtol=1e-6)

    def test_mixed_units_keep_input_order(self):
        fast = DegradationSample("a", (0.0, 2.0), (1.0, 0.5), {"volt": 200.0})
        slow = DegradationSample("b", (0.0, 2.0), (1.0, 0.9), {"volt": 150.0})
        recs = pseudo_failure_times([fast, slow], threshold=0.4, horizon=5.0)
        assert recs[0].failed and not recs[1].failed
        assert recs[0].condition["volt"] == 200.0

    def test_validation(self):
        with pytest.raises(IllPosedFitError):
            pseudo_failure_times([DegradationSample("u", (1.0,), (0.5,))], 0.4)
        with pytest.raises(DomainError):
            DegradationSample("u", (1.0, 1.0), (0.5, 0.4))
        with pytest.raises(DomainError):
            DegradationSample("u", (2.0, 1.0), (0.5, 0.4))
        # Two times one ulp apart have the same square root.
        close = DegradationSample("u", (1.0, math.nextafter(1.0, 2.0)), (0.5, 0.4))
        with pytest.raises(IllPosedFitError, match="^unit 'u': constant times$"):
            pseudo_failure_times([close], 0.4, time_transform="sqrt")

    @pytest.mark.parametrize("times, responses, message", [
        ((-1.0, 1.0), (0.5, 0.4), "measurement times must be >= 0"),
        ((0.0, 1.0), (0.5,), "times and responses must have equal length"),
    ])
    def test_errors_name_the_unit(self, times, responses, message):
        with pytest.raises(DomainError, match=f"^unit 'u': {message}$"):
            DegradationSample("u", times, responses)

    # A non-finite point would make the line fit raise numpy's LinAlgError.
    @pytest.mark.parametrize("times, responses", [
        ((0.0, math.nan, 2.0), (1.0, 2.0, 3.0)),
        ((0.0, 1.0, 2.0), (1.0, math.nan, 3.0)),
        ((0.0, 1.0, math.inf), (1.0, 2.0, 3.0)),
        ((0.0, 1.0, 2.0), (-math.inf, 2.0, 3.0)),
    ], ids=["nan-time", "nan-response", "inf-time", "inf-response"])
    def test_non_finite_point_rejected(self, times, responses):
        with pytest.raises(DomainError, match="^unit 'u': times and responses must be finite$"):
            DegradationSample("u", times, responses)
        with pytest.raises(ConfigError):
            pseudo_failure_times([DegradationSample("u", (0.0, 1.0), (1.0, 0.9))],
                                 0.4, time_transform="cbrt")
        with pytest.raises(ConfigError):
            pseudo_failure_times([DegradationSample("u", (0.0, 1.0), (1.0, 0.9))],
                                 0.4, horizon=-1.0)
