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
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from altkit import (
    BootstrapQuantiles,
    LifeData,
    LifeRecord,
    design_matrix,
    design_row,
    default_profile_grid,
    fit_ml,
    likelihood_gradient,
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
from altkit.fitml import (
    NEWTON_STEPS,
    SKIP_REASONS,
    _default_init,
    _fit_replicates,
    _Likelihood,
    _rank_deficient,
    _segment_bounds,
    _Standardizer,
)
from altkit.lifetime import std_quantile
from fd import fd_gradient, fd_hessian, information, likelihood, nll, reference, score

GAB_MODELS = [
    "lognormal: mu ~ log(voltstress)",
    "weibull: mu ~ log(voltstress)",
    "lognormal: mu ~ log(voltstress); sigma ~ log(voltstress)",
    "weibull: mu ~ log(voltstress); sigma ~ log(voltstress)",
]


def record_nll(records, spec, theta) -> float:
    return nll(likelihood(records, spec), theta)


def assert_gradient_matches_fd(like, theta):
    assert_allclose(score(like, theta), fd_gradient(partial(nll, like), theta),
                    rtol=1e-5, atol=1e-8)


def assert_hessian_matches_fd(like, theta):
    hess = information(like, theta)
    assert_allclose(hess, fd_hessian(partial(nll, like), theta), rtol=1e-4,
                    atol=1e-6 * float(np.max(np.abs(hess))))


class TestNegLogLikelihood:
    def test_single_failure_lognormal(self):
        # -log phi(0) = log sqrt(2 pi) = 0.918938533204672...; t = 1 makes
        # the log t and log sigma terms vanish.
        spec = parse_model("lognormal: mu ~ 1")
        value = record_nll([LifeRecord(1.0, "failed", {})], spec, [0.0, 0.0])
        assert_allclose(value, 0.9189385332046727, rtol=1e-15)

    def test_single_censored_lognormal(self):
        # -log S(0) = -log(1/2) = log 2.
        spec = parse_model("lognormal: mu ~ 1")
        value = record_nll([LifeRecord(1.0, "censored", {})], spec, [0.0, 0.0])
        assert_allclose(value, math.log(2.0), rtol=1e-15)

    def test_single_records_weibull(self):
        # SEV at z = 0: -logpdf = 1 and -log S = e^0 = 1, both exactly.
        spec = parse_model("weibull: mu ~ 1")
        failed = record_nll([LifeRecord(1.0, "failed", {})], spec, [0.0, 0.0])
        censored = record_nll([LifeRecord(1.0, "censored", {})], spec, [0.0, 0.0])
        assert_allclose(failed, 1.0, rtol=1e-15)
        assert_allclose(censored, 1.0, rtol=1e-15)

    def test_additive_over_records(self):
        spec = parse_model("lognormal: mu ~ 1")
        r1 = [LifeRecord(2.0, "failed", {})]
        r2 = [LifeRecord(5.0, "censored", {})]
        theta = [0.3, -0.2]
        assert_allclose(
            record_nll(r1 + r2, spec, theta),
            record_nll(r1, spec, theta) + record_nll(r2, spec, theta),
            rtol=1e-14)

    def test_later_censoring_cannot_decrease_the_log_survival_term(self):
        # A censored unit that survives longer is rarer: -log S increases
        # with the censoring time at fixed parameters.
        spec = parse_model("lognormal: mu ~ 1")
        theta = [1.0, 0.0]
        values = [record_nll([LifeRecord(t, "censored", {})], spec, theta)
                  for t in (1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_barrier_instead_of_overflow(self):
        spec = parse_model("lognormal: mu ~ 1")
        bad = record_nll([LifeRecord(1.0, "failed", {})], spec, [0.0, 1000.0])
        assert math.isfinite(bad)

    def test_theta_length_validated(self):
        spec = parse_model("lognormal: mu ~ 1")
        with pytest.raises(DomainError):
            likelihood_gradient([LifeRecord(1.0, "failed", {})], spec, [0.0])

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
            record_nll(scaled, spec, theta_shift),
            record_nll(gab, spec, theta) + n_failed * math.log(1000.0),
            rtol=1e-12)


class TestGradient:
    def test_matches_finite_differences(self, gab):
        # The score and every block of the information, for unit weights and
        # for a replicate whose counts include zeros and repeats.
        counts = np.bincount(np.random.default_rng(7).integers(0, len(gab), len(gab)),
                             minlength=len(gab))
        assert (counts == 0).any() and (counts > 1).any()
        thetas = [[22.0, -9.0, -0.5], [20.0, -8.0, -0.2], [22.0, -9.0, 4.0, -0.8],
                  [50.0, -9.0, -1.0, 0.05]]
        for text, theta in zip(GAB_MODELS, thetas):
            spec = parse_model(text)
            like = likelihood(gab, spec)
            theta = np.asarray(theta, dtype=float)
            assert_array_equal(likelihood_gradient(gab, spec, theta), score(like, theta))
            assert_gradient_matches_fd(like, theta)
            assert_hessian_matches_fd(like, theta)
            weighted = like.weighted(counts[None])
            assert_gradient_matches_fd(weighted, theta)
            assert_hessian_matches_fd(weighted, theta)

    def test_random_points(self):
        rng = np.random.default_rng(0)
        recs = [LifeRecord(float(t), "failed" if i % 3 else "censored",
                           {"v": float(v)})
                for i, (t, v) in enumerate(zip(
                    np.exp(rng.normal(1.0, 0.8, 40)),
                    rng.uniform(100.0, 300.0, 40)))]
        spec = parse_model("lognormal: mu ~ log(v)")
        like = likelihood(recs, spec)
        for _ in range(10):
            theta = np.array([rng.normal(5.0, 1.0), rng.normal(0.0, 0.5),
                              rng.normal(0.0, 0.3)])
            assert_gradient_matches_fd(like, theta)
            assert_hessian_matches_fd(like, theta)


@st.composite
def likelihood_cases(draw):
    """Records on 1 to 4 levels of v, grouped by level (repeated design rows),
    shuffled, or all distinct; their times continuous, or tied as a test's
    readouts tie them (one censoring time per level, failures at a few
    inspection times); either family; no weights, unit weights or 1 to 3
    bootstrap replicates, one of which may drop every failure of one
    level; and, under weights, a level u = 1000 of weight 0 in every
    replicate where theta makes mu infinite or sigma infinite or 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["lognormal", "weibull"]))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    layout = draw(st.sampled_from(["grouped", "shuffled", "distinct"]))
    times = draw(st.sampled_from(["continuous", "readouts"]))
    v = np.repeat([1.0, 2.0, 3.0, 5.0][: len(sizes)], sizes)
    if layout == "distinct":
        v = 1.0 + 0.37 * np.arange(v.size)
    elif layout == "shuffled":
        rng.shuffle(v)
    failed = rng.uniform(size=v.size) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    weighting = draw(st.sampled_from(["none", "unit", "bootstrap", "drop-level"]))
    blowup = "none" if weighting == "none" else draw(
        st.sampled_from(["none", "mu", "sigma", "sigma0"]))
    u = np.zeros(v.size)
    if blowup != "none":  # a level of weight 0 where mu or sigma is infinite
        v, u = np.append(v, [2.0, 2.0, 2.0]), np.append(u, [1000.0] * 3)
        failed = np.append(failed, [True, False, True])
    time = np.exp(rng.normal(1.0, 0.7, v.size))
    if times == "readouts":
        _, level = np.unique(v + u, return_inverse=True)
        ends = np.exp(rng.normal(1.5, 0.3, level.max() + 1))
        time = np.where(failed, rng.choice(time[:3], size=v.size), ends[level])
    data = LifeData(time, failed, {"v": v, "u": u})
    spec = parse_model(f"{family}: mu ~ log(v) + u; sigma ~ u")
    theta = np.array([rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0),
                      1e306 if blowup == "mu" else 0.0, rng.uniform(-1.0, 0.5),
                      {"sigma": 1.0, "sigma0": -1.0}.get(blowup, 0.0)])
    weights = None
    if weighting != "none":
        weights = (np.ones((1, v.size)) if weighting == "unit" else
                   rng.integers(0, 4, size=(int(rng.integers(1, 4)), v.size)).astype(float))
        if weighting == "drop-level":
            weights[0, failed & (v == v[0])] = 0.0
        weights[:, u > 0.0] = 0.0
    return data, spec, theta, weights


class TestReferenceLikelihood:
    # The segment sums, the lognormal failures' pseudo points, the tied
    # records' entries and the weights against a plain sum over records of
    # the lifetime kernels.
    @settings(max_examples=300, deadline=None)
    @given(case=likelihood_cases())
    def test_matches_the_record_by_record_sums(self, case):
        data, spec, theta, weights = case
        like = _Likelihood(data, spec)
        if weights is not None:
            like = like.weighted(weights)
        point = like.at(np.tile(theta, (1 if weights is None else len(weights), 1)))
        got_score, got_info = point.derivatives
        for r, w in enumerate([None] if weights is None else weights):
            want = reference(data, spec, theta, w)
            assert np.isfinite(point.nll[r]) and np.isfinite(got_info[r]).all()
            assert_allclose(point.nll[r], want[0], rtol=1e-12)
            for got, ref in ((got_score[r], want[1]), (got_info[r], want[2])):
                assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


class TestRowOrder:
    # The stored order and the segments follow the rows' order; shuffled
    # rows only make more segments, never another fit.
    @pytest.mark.parametrize("which", ["gab", "three-level"])
    def test_shuffled_rows_fit_alike(self, gab, arrhenius_population, which):
        if which == "gab":
            data, spec = LifeData.of(gab), parse_model("lognormal: mu ~ log(voltstress)")
        else:
            records, spec, _ = arrhenius_population(seed=5, n_total=300)
            data = LifeData.of(records)
        rows = np.random.default_rng(17).permutation(len(data))
        shuffled = LifeData.of([data[i] for i in rows])
        assert _Likelihood(shuffled, spec).starts.size > _Likelihood(data, spec).starts.size
        fit, again = fit_ml(data, spec), fit_ml(shuffled, spec)
        assert_allclose(again.estimates, fit.estimates, rtol=1e-10)
        assert_allclose(again.loglik, fit.loglik, rtol=1e-10)

    @pytest.mark.parametrize("family", ["lognormal", "weibull"])
    def test_profile_sweeps_agree_across_row_orders(self, gab, family):
        # The default sweep on the records as given, reversed and permuted.
        # The delta-method bounds at the extrapolated use condition are
        # resolved less finely than the fits: over as given, reversed and
        # seeds 2 to 5 they move by up to 2.3e-11 (lognormal) and 4.5e-11
        # (Weibull), where the logliks move by 3.2e-16 and the quantiles
        # by 4.8e-13.
        spec = parse_model(f"{family}: mu ~ boxcox(voltstress, 1)")
        want = profile_lambda(gab, spec, GAB_USE)
        n = len(gab)
        for rows in [np.arange(n)[::-1]] + [np.random.default_rng(seed).permutation(n)
                                             for seed in (2, 3)]:
            got = profile_lambda([gab[i] for i in rows], spec, GAB_USE)
            assert [pt.converged for pt in got] == [pt.converged for pt in want]
            for name, rtol in (("loglik", 1e-12), ("quantile", 5e-12), ("lower", 5e-10),
                               ("upper", 5e-10)):
                assert_allclose([getattr(pt, name) for pt in got],
                                [getattr(pt, name) for pt in want], rtol=rtol)


def count_kernel_rows(monkeypatch) -> dict[str, list[int]]:
    """Replace the lifetime kernels that altkit.fitml calls with wrappers
    that record the number of rows each call sees, by kernel name."""
    rows: dict[str, list[int]] = {}
    for name in ("std_logpdf", "std_logsf", "std_dlogpdf", "std_dlogsf"):
        kernel = getattr(altkit.fitml, name)

        def counted(z, fam, _kernel=kernel, _rows=rows.setdefault(name, [])):
            _rows.append(np.size(z))
            return _kernel(z, fam)

        monkeypatch.setattr(altkit.fitml, name, counted)
    return rows


class TestKernelPass:
    @pytest.mark.parametrize("family", ["lognormal", "weibull"])
    def test_failures_and_censored_units_reach_their_own_kernels(
            self, gab, monkeypatch, family):
        # The kernels see a level's records with one time once: the 39
        # censored units come off test at one time per level, so the
        # survival kernels see 4 rows, and the Weibull's density kernels see
        # every failure (their times differ within a level).  The
        # lognormal's failures enter through their segments' two pseudo
        # points, so its density kernels see 2 rows per failing level.
        rows = count_kernel_rows(monkeypatch)
        fit = fit_ml(gab, parse_model(f"{family}: mu ~ log(voltstress)"))
        assert fit.n_records - fit.n_failed == 39
        assert rows["std_logsf"] and set(rows["std_logsf"]) == {4}
        assert rows["std_dlogsf"] and set(rows["std_dlogsf"]) == {4}
        failures = 2 * 4 if family == "lognormal" else fit.n_failed
        assert rows["std_logpdf"] and set(rows["std_logpdf"]) == {failures}
        assert rows["std_dlogpdf"] and set(rows["std_dlogpdf"]) == {failures}

    def test_record_counts_and_rank_tolerance_stay_per_record(self, gab, monkeypatch):
        # Tied records are one entry of the likelihood, but a fit reports
        # records, and the rank check keeps matrix_rank's tolerance factor
        # max(records, columns).
        ranks = []

        def spy(xs, roots, n, _rank=_rank_deficient):
            ranks.append(n)
            return _rank(xs, roots, n)

        monkeypatch.setattr(altkit.fitml, "_rank_deficient", spy)
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        like = likelihood(gab, spec)
        assert like.estarts.size == 4 < len(gab) - like.n_failed
        fit = fit_ml(gab, spec)
        assert (fit.n_records, fit.n_failed) == (75, 36)
        assert ranks == [75, 75]

    @pytest.mark.parametrize("family", ["lognormal", "weibull"])
    def test_objective_and_derivative_passes(self, gab, monkeypatch, family):
        # A point computes its objective once, when it is made, and its
        # derivatives only when they are read, then once however often.
        like = likelihood(gab, parse_model(f"{family}: mu ~ log(voltstress)"))
        rows = count_kernel_rows(monkeypatch)
        point = like.at(np.array([[40.0, -7.0, -0.5], [50.0, -9.0, 0.0]]))
        assert np.isfinite(point.nll).all()
        assert [len(rows[k]) for k in ("std_logsf", "std_dlogsf")] == [1, 0]
        score, hessian = point.derivatives
        again = point.derivatives
        assert again[0] is score and again[1] is hessian
        assert [len(rows[k]) for k in ("std_logsf", "std_dlogsf")] == [1, 1]


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

    HUGE = ((5.0, 1e200), (6.0, 2e200), (7.0, 3.0))

    def fit_v(self, scale: int):
        return fit_ml([LifeRecord(t, "failed", {"v": math.ldexp(v, scale)})
                       for t, v in self.HUGE], parse_model("lognormal: mu ~ v"))

    def test_se_of_a_huge_column_does_not_underflow(self):
        # The slope's variance (about 4e-403) is below the smallest double,
        # but its SE is not: it scales exactly with the column.
        huge, scaled = self.fit_v(0), self.fit_v(-664)
        assert huge.converged and huge.standard_error("mu:v") > 0.0
        assert_allclose(huge.standard_error("mu:v"),
                        math.ldexp(scaled.standard_error("mu:v"), -664), rtol=1e-12)

    def test_quantile_se_of_a_huge_column_does_not_underflow(self):
        # The slope's share of the quantile's variance is kept, as on the
        # column scaled to O(1).
        q = quantile_at_use(self.fit_v(0), {"v": 1.5e200}, 0.1)
        scaled = quantile_at_use(self.fit_v(-664), {"v": math.ldexp(1.5e200, -664)}, 0.1)
        assert_allclose(q.se_log, 0.10462430127615306, rtol=1e-9)
        assert_allclose(q.se_log, scaled.se_log, rtol=1e-9)
        assert_allclose(q.log_quantile, scaled.log_quantile, rtol=1e-9)

    def test_default_init_is_finite(self, gab):
        init = _default_init(likelihood(gab, parse_model("lognormal: mu ~ log(voltstress)")))
        assert init.shape == (1, 3)
        assert np.all(np.isfinite(init))


def random_design(rng) -> np.ndarray:
    """A design held as xt (one row per column) with 1 to 8 records and 1 to
    4 columns, some of them collinear or nearly so, constant, all zero or
    scaled by 2^600 or 2^-600."""
    n, cols = int(rng.integers(1, 9)), int(rng.integers(1, 5))
    xt = rng.integers(-3, 4, size=(cols, n)).astype(float)
    for j in range(cols):
        kind = rng.integers(8)
        if kind == 0:
            xt[j] = 1.0 if rng.integers(2) else rng.normal()  # an intercept, or constant
        elif kind == 1:
            xt[j] = 0.0
        elif kind == 2 and j:
            xt[j] = rng.integers(-2, 3) * xt[rng.integers(j)] + (xt[0] if j > 1 else 0.0)
        elif kind == 3:
            xt[j] = np.ldexp(xt[j] + rng.normal(size=n), int(rng.choice([-600, 600])))
        elif kind == 4 and j:  # collinear but for a few ulps: near matrix_rank's threshold
            xt[j] = xt[j - 1] + np.ldexp(rng.normal(size=n), -int(rng.integers(46, 54)))
    return xt


class TestRankVerdict:
    # _rank_deficient takes matrix_rank's verdict on the weighted records
    # from one SVD per design (none for one column) of its segment rows,
    # each scaled by the square root of its weight under each replicate.
    @staticmethod
    def verdict(xt, weights):
        """_rank_deficient on the segments of the record design xt."""
        n = xt.shape[1]
        starts = _segment_bounds(xt, np.zeros(n), n, n)[0][:-1]
        w = np.ones((1, xt.shape[1])) if weights is None else weights
        return _rank_deficient(xt[:, starts], np.sqrt(np.add.reduceat(w, starts, axis=1)),
                               xt.shape[1])

    def test_agrees_with_matrix_rank(self):
        rng = np.random.default_rng(21)
        seen = Counter()
        for _ in range(600):
            xt = random_design(rng)
            repeated = bool(rng.integers(2))
            if repeated:  # each record's row 1 to 3 times in a row
                xt = np.repeat(xt, rng.integers(1, 4, size=xt.shape[1]), axis=1)
            kind = int(rng.integers(3))
            if kind == 0:
                weights = None
            elif kind == 1:  # bootstrap counts, sometimes a replicate of no weight
                weights = rng.integers(0, 3, size=(int(rng.integers(1, 5)), xt.shape[1]))
            else:  # zero-weight rows and fractional weights
                weights = rng.choice([0.0, 0.0, 0.25, 1.0, 2.0, 3.0],
                                     size=(int(rng.integers(1, 5)), xt.shape[1]))
            designs = [xt.T] if weights is None else [np.sqrt(w)[:, None] * xt.T for w in weights]
            want = [np.linalg.matrix_rank(x) < len(xt) for x in designs]
            got = self.verdict(xt, None if weights is None else weights.astype(float))
            assert got.tolist() == want, (xt, weights)
            seen[len(xt) == 1, kind, repeated, *want[:1]] += 1
        # Every kind of design, with both verdicts.
        assert len(seen) == 24

    def test_a_design_that_is_not_finite(self):
        xt = np.array([[1.0, 1.0, 1.0], [1.0, np.inf, 2.0]])
        for weights in (None, np.ones((3, 3))):
            got = self.verdict(xt, weights)
            assert got.all() and got.shape == (1 if weights is None else 3,)


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

    @pytest.mark.parametrize("p", [0.0, 2.0, math.nan])
    def test_p_checked_before_any_fit(self, gab, monkeypatch, p):
        def no_fit(*args):
            raise AssertionError("fit_ml was called")

        monkeypatch.setattr(altkit.fitml, "fit_ml", no_fit)
        with pytest.raises(DomainError, match="p must lie"):
            profile_lambda(gab, parse_model("lognormal: mu ~ boxcox(voltstress, 1)"),
                           GAB_USE, p=p)

    def test_failed_points_are_flagged(self, gab):
        spec = parse_model("lognormal: mu ~ boxcox(voltstress, 1)")
        # voltstress^400 overflows, so the design is ill-posed: a nan row.
        bad, good = profile_lambda(gab, spec, GAB_USE, grid=[400.0, 1.0])
        assert not bad.converged and good.converged
        assert all(math.isnan(v) for v in (bad.loglik, bad.quantile, bad.lower, bad.upper))
        # A use condition without the variable: the fit stands, the quantile is nan.
        (pt,) = profile_lambda(gab, spec, {"other": 1.0}, grid=[1.0])
        assert pt.converged and pt.loglik == good.loglik
        assert all(math.isnan(v) for v in (pt.quantile, pt.lower, pt.upper))

    def test_point_that_stops_short_keeps_its_fit(self):
        # A six-record Weibull sample on which fit_ml stops short from its
        # default start; the point reports that fit, unconverged.
        data = [LifeRecord(t, status, {"v": v}) for t, status, v in
                [(10.0, "failed", 1.0)] * 3 + [(6.5, "failed", 2.0)] * 2
                + [(7.0, "censored", 2.0)]]
        spec = parse_model("weibull: mu ~ boxcox(v, 1)")
        with pytest.raises(NonConvergenceError) as info:
            fit_ml(data, spec)
        (pt,) = profile_lambda(data, spec, {"v": 1.5}, grid=[1.0])
        assert not pt.converged
        assert pt.loglik == info.value.result.loglik
        assert pt.lower < pt.quantile < pt.upper


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

    def test_p_value_in_the_far_tail(self):
        # |z| of about 13.9, where 1 - Phi(|z|) is exactly 0 in doubles.
        res = reciprocity_test(self.dosage_records(0.3, seed=14))
        assert res.wald_z < -13.0
        assert_allclose(res.p_value, math.erfc(abs(res.wald_z) / math.sqrt(2.0)), rtol=1e-12)

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
    @pytest.mark.parametrize("model", GAB_MODELS)
    def test_weights_equal_duplicated_records(self, gab, model):
        spec = parse_model(model)
        idx = np.random.default_rng(4).integers(0, len(gab), size=len(gab))
        counts = np.bincount(idx, minlength=len(gab))
        assert (counts == 0).any() and (counts > 1).any()
        weighted = likelihood(gab, spec).weighted(counts[None])
        duplicated = likelihood([gab[i] for i in idx], spec)
        theta = fit_ml(gab, spec).estimates + 0.05
        assert_allclose(nll(weighted, theta), nll(duplicated, theta), rtol=1e-12)
        for f in (score, information):
            a, b = f(weighted, theta), f(duplicated, theta)
            assert_allclose(a, b, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(b))))

    @pytest.mark.parametrize("model", GAB_MODELS)
    def test_unit_weights_change_nothing(self, gab, model):
        # The start, the rank test and the Newton loop weigh every row;
        # a weight of exactly 1 must leave every bit of the fit as it is.
        like = _Standardizer(likelihood(gab, parse_model(model))).like
        plain = _fit_replicates(like, None)
        unit = _fit_replicates(like.weighted(np.ones((1, len(gab)))), None)
        assert_array_equal(plain[0], unit[0])
        for attr in ("theta", "score", "hessian", "steps"):
            assert_array_equal(getattr(plain[2], attr), getattr(unit[2], attr))

    @pytest.mark.parametrize("family", ["lognormal", "weibull"])
    def test_zero_weight_row_adds_exactly_nothing(self, family):
        # sigma = exp(-400) puts the last unit's log survival at -inf; with
        # weight 0 it must drop out, not turn the sums into nan.
        spec = parse_model(f"{family}: mu ~ log(v)")
        kept = [LifeRecord(1.0, "failed", {"v": v}) for v in (1.0, 2.0, 3.0)]
        data = kept + [LifeRecord(1e300, "censored", {"v": 2.0})]
        theta = np.array([0.0, 0.0, -400.0])
        assert nll(likelihood(data, spec), theta) == altkit.fitml.BARRIER
        weighted = likelihood(data, spec).weighted(np.array([[1, 1, 1, 0]]))
        without = likelihood(kept, spec)
        assert math.isfinite(nll(weighted, theta))
        assert nll(weighted, theta) == nll(without, theta)
        assert_array_equal(score(weighted, theta), score(without, theta))
        assert_array_equal(information(weighted, theta), information(without, theta))


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


def last_point_sweep(data, spec, grid):
    """The sweep with each fit started from the last converged point's
    solution alone, the start profile_lambda took before the secant."""
    data, warm, fits = LifeData.of(data), None, []
    for lam in grid:
        lspec = spec.with_boxcox_lambda(lam)
        std = _Standardizer(_Likelihood(data, lspec))
        fit = fit_ml(data, lspec, None if warm is None else std.original_params(warm)[0])
        warm = std.standardized_params(fit.estimates[None])
        fits.append(fit)
    return fits


def oracle_stored_design(data, spec):
    """The stored order and design as one whole-array gather."""
    order = np.argsort(~data.failed, kind="stable")
    x = [design_matrix(spec.mu_terms, data).T, design_matrix(spec.sigma_terms, data).T]
    return order, np.concatenate(x).take(order, axis=1)


def oracle_standardized(xt, n_mu):
    """Every row's statistics and the standardized design, from whole-array
    arithmetic over every row, the intercepts then reset to (0, 1, 0)."""
    intercepts = [0, n_mu]
    with np.errstate(over="ignore", invalid="ignore"):
        _, e = np.frexp(np.abs(xt).max(axis=1, initial=0.0))
        scaled = np.ldexp(xt, -e[:, None])
        mean = scaled.sum(axis=1, keepdims=True) / xt.shape[1]
        m = np.ldexp(mean[:, 0], e)
        s = np.ldexp(np.sqrt(np.square(scaled - mean).sum(axis=1) / xt.shape[1]), e)
        m[intercepts], s[intercepts], e[intercepts] = 0.0, 1.0, 0
        s[s == 0.0] = 1.0
        to_original, from_original = np.diag(1.0 / s), np.diag(s)
        for lo, hi in ((0, n_mu), (n_mu, s.size)):
            to_original[lo, lo + 1 : hi] = -m[lo + 1 : hi] / s[lo + 1 : hi]
            from_original[lo, lo + 1 : hi] = m[lo + 1 : hi]
        return (xt - m[:, None]) / s[:, None], e, to_original, from_original


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestColumnSetUp:
    # _Likelihood and _Standardizer build their designs a column at a time
    # and standardize only the segment rows; the whole-array oracles above
    # fix every bit they must give.
    TERMS = ["a", "b", "c", "k", "up", "down", "sq(big)", "sq(big):zero"]

    @staticmethod
    def data(rng, n, failed):
        big = np.where(rng.integers(2, size=n) == 1, 1e200, 3.0)  # sq overflows to inf
        columns = {"a": rng.normal(size=n), "b": rng.uniform(1.0, 3.0, n),
                   "c": rng.integers(-3, 4, n).astype(float), "k": np.full(n, 2.5),
                   "up": np.ldexp(rng.normal(size=n), 600),
                   "down": np.ldexp(rng.normal(size=n), -600),
                   "big": big, "zero": np.where(big > 3.0, 0.0, 1.0)}  # inf * 0 is nan
        return LifeData(np.exp(rng.normal(size=n)), failed, columns)

    def test_designs_equal_the_whole_array_oracle(self):
        rng = np.random.default_rng(22)
        seen = Counter()
        for _ in range(300):
            n = int(rng.choice([1, 2, 7, 40, 300]))
            failed = [rng.uniform(size=n) < 0.6, np.ones(n, bool), np.zeros(n, bool)][
                rng.integers(3)]
            data = self.data(rng, n, failed)
            mu = rng.choice(self.TERMS, size=rng.integers(0, 4), replace=False)
            sigma = rng.choice(self.TERMS, size=rng.integers(0, 2), replace=False)
            spec = parse_model("lognormal: mu ~ " + (" + ".join(mu) or "1")
                               + ("; sigma ~ " + sigma[0] if len(sigma) else ""))
            like = _Likelihood(data, spec)
            order, xt = oracle_stored_design(data, spec)
            assert_same_bits(like.order, order)
            assert_same_bits(like.xt, xt)
            assert like.n_failed == failed.sum()
            if rng.integers(2):
                like = like.weighted(rng.integers(0, 3, size=(2, n)))
            std = _Standardizer(like)
            xs, e, to_original, from_original = oracle_standardized(xt, spec.n_mu)
            assert_same_bits(like.xs, xt[:, like.starts])
            assert_same_bits(std.like.xs, xs[:, like.starts])
            assert std.like.xt is None
            assert_same_bits(std.exponents, e)
            assert_same_bits(std.to_original, to_original)
            assert_same_bits(std.from_original, from_original)
            assert std.like.weights is like.weights and std.like.logt is like.logt
            rows = [j for j in range(1, len(xt)) if j != spec.n_mu]
            # A range holding nan never reaches a FitResult (the fit refuses
            # the design), so its nan's sign bit is not pinned.
            assert_array_equal(np.array(std.ranges).reshape(-1, 2),
                               np.stack([xt.min(axis=1), xt.max(axis=1)], axis=1)[rows])
            seen[len(mu) + 1, len(sigma) + 1] += 1
            seen["failed" if failed.all() else "censored" if not failed.any() else "mixed"] += 1
            seen["weighted" if like.replicate_weights else "unweighted"] += 1
            seen["not finite"] += not np.isfinite(xt).all()
        assert len(seen) == 4 * 2 + 3 + 2 + 1 and seen["not finite"]  # every kind, some inf or nan

    @pytest.mark.parametrize("family", ["lognormal", "weibull"])
    def test_segments_and_their_sums_equal_a_record_loop(self, family):
        # Runs of one design row among the failures or the censored units,
        # each failed run's weight, mean log time and sum of squares, and
        # the lognormal's pseudo points, which keep those three; and the
        # entries the kernels see, runs of a segment's records with one
        # time, with their log time and summed weight.
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            levels = rng.choice([1.0, 2.0, 4.0], size=n) if rng.integers(2) else np.sort(
                rng.choice([1.0, 2.0, 4.0], size=n))
            times = rng.normal(size=n) if rng.integers(2) else rng.choice([0.0, 0.5, 1.0], n)
            data = LifeData(np.exp(times), rng.uniform(size=n) < 0.7,
                            {"v": levels, "u": rng.choice([0.0, 0.0, 1.0], size=n)})
            spec = parse_model(f"{family}: mu ~ log(v); sigma ~ u")
            like = _Likelihood(data, spec)
            xt, nf, logt = like.xt, like.n_failed, like.logt
            new = [i for i in range(n) if i == 0 or i == nf or (xt[:, i] != xt[:, i - 1]).any()]
            assert like.starts.tolist() == new
            assert like.lengths.tolist() == np.diff(new + [n]).tolist()
            assert like.n_fseg == sum(i < nf for i in new)
            first, ps, kernel = (nf, 2 * like.n_fseg, like.n_fseg) if family == "lognormal" else (
                0, 0, 0)
            entries = [i for i in range(first, n) if i in new or logt[i] != logt[i - 1]]
            assert like.estarts.tolist() == entries
            assert like.multiplicity.tolist() == np.diff(entries + [n]).tolist()
            assert like.n_fentries == ps + sum(i < nf for i in entries)
            for s, (a, b) in enumerate(zip(new, new[1:] + [n])):  # each one's entries of y
                if s >= kernel:
                    mine = [e for e, i in enumerate(entries) if a <= i < b]
                    assert like.ystarts[s] == ps + mine[0] and like.reps[s] == len(mine)
            weights = rng.integers(0, 3, size=(3, n)).astype(float)
            for part, w in ((like, np.ones((1, n))),
                            (like.weighted(weights), weights[:, like.order])):
                for i in range(len(w)):
                    for e, (a, b) in enumerate(zip(entries, entries[1:] + [n])):
                        assert part.y[i, ps + e] == logt[a]
                        assert part.weights[i, ps + e] == w[i, a:b].sum()
                    wf = w[i, :nf]
                    for s, (a, b) in enumerate(zip(new[: like.n_fseg], (new + [n])[1:])):
                        count = wf[a:b].sum()
                        mean = (wf[a:b] * logt[a:b]).sum() / count if count else 0.0
                        sumsq = (wf[a:b] * (logt[a:b] - mean) ** 2).sum()
                        assert part.counts[i, s] == count
                        assert_allclose(part.means[i, s], mean, rtol=1e-14, atol=1e-14)
                        assert_allclose(part.sumsq[i, s], sumsq, rtol=1e-12, atol=1e-14)
                        if family == "lognormal":  # two points of half the weight
                            at = slice(like.ystarts[s], like.ystarts[s] + 2)
                            points, weight = part.y[i, at], part.weights[i, at]
                            assert like.reps[s] == 2 and (weight == weight[0]).all()
                            assert weight.sum() == count
                            assert_allclose(points.mean(), mean, rtol=1e-14, atol=1e-14)
                            assert_allclose((weight * (points - mean) ** 2).sum(), sumsq,
                                            rtol=1e-12, atol=1e-14)

    def test_default_sweep_sets_up_once_per_point(self, gab, monkeypatch):
        built = Counter()
        for cls in (_Likelihood, _Standardizer):
            def counted(self, *args, init=cls.__init__, name=cls.__name__):
                built[name] += 1
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        points = profile_lambda(gab, parse_model("lognormal: mu ~ boxcox(voltstress, 1)"), GAB_USE)
        assert len(points) == 31
        assert built == {"_Likelihood": 31, "_Standardizer": 31}


class TestProfileSecantStart:
    @staticmethod
    def recorded_fits(monkeypatch):
        """fit_ml replaced by one that records each call's init and result."""
        calls = []
        cold_fit = altkit.fitml.fit_ml

        def recorded(data, spec, init=None):
            fit = cold_fit(data, spec, init)
            calls.append((init, fit))
            return fit

        monkeypatch.setattr(altkit.fitml, "fit_ml", recorded)
        return calls

    @pytest.mark.parametrize("family, steps", [("lognormal", 67), ("weibull", 68)])
    def test_default_sweep_takes_fewer_steps_for_the_same_results(
            self, gab, monkeypatch, family, steps):
        spec = parse_model(f"{family}: mu ~ boxcox(voltstress, 1)")
        calls = self.recorded_fits(monkeypatch)
        points = profile_lambda(gab, spec, GAB_USE)
        monkeypatch.undo()
        # 6 or 7 steps cold, 3 from the first point alone, then 2 per point
        # where the last point alone takes 3 (96 and 97 in all).
        assert len(calls) == 31
        assert sum(fit.iterations for _, fit in calls) <= steps
        for pt, fit in zip(points, last_point_sweep(gab, spec, default_profile_grid())):
            assert pt.converged == fit.converged
            assert_allclose(pt.loglik, fit.loglik, rtol=1e-12)

    @pytest.mark.parametrize("grid", [
        [1.0, 1.0, 1.0, 1.5],  # a repeated exponent: no secant through one point
        [0.0, 0.5, 400.0, 1.0, 1.5],  # 400 fails between converged points
        [0.0, 1e-300, 1.0],  # a secant 1e300 spacings long is not taken
    ], ids=["repeated", "failing-point", "far-reach"])
    def test_every_start_is_finite_and_every_point_as_cold(self, gab, monkeypatch, grid):
        spec = parse_model("lognormal: mu ~ boxcox(voltstress, 1)")
        calls = self.recorded_fits(monkeypatch)
        points = profile_lambda(gab, spec, GAB_USE, grid=grid)
        monkeypatch.undo()
        assert calls[0][0] is None
        assert all(np.isfinite(init).all() for init, _ in calls[1:])
        for pt in points:
            if pt.lam == 400.0:
                assert not pt.converged and math.isnan(pt.loglik)
                continue
            cold = fit_ml(gab, spec.with_boxcox_lambda(pt.lam))
            assert pt.converged
            assert_allclose(pt.loglik, cold.loglik, rtol=1e-10)


class TestWorkCounts:
    # The work a fit does, counted without a clock: objective passes
    # (std_logsf calls), derivative passes (std_dlogsf calls) and Newton
    # steps.  A change to the optimizer's path moves these pins.
    @pytest.mark.parametrize("family, passes, steps", [("lognormal", 7, 6), ("weibull", 8, 7)])
    def test_cold_gab_fit(self, gab, monkeypatch, family, passes, steps):
        rows = count_kernel_rows(monkeypatch)
        fit = fit_ml(gab, parse_model(f"{family}: mu ~ log(voltstress)"))
        assert len(rows["std_logsf"]) == len(rows["std_dlogsf"]) == passes
        assert fit.iterations == steps

    def test_default_boxcox_sweep(self, gab, monkeypatch):
        rows = count_kernel_rows(monkeypatch)
        calls = TestProfileSecantStart.recorded_fits(monkeypatch)
        profile_lambda(gab, parse_model("lognormal: mu ~ boxcox(voltstress, 1)"), GAB_USE)
        assert len(rows["std_logsf"]) == 103
        assert len(rows["std_dlogsf"]) == 98
        assert sum(fit.iterations for _, fit in calls) == 67


class TestBootstrapDraws:
    @pytest.mark.parametrize("n", [6, 39, 74, 75])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_counts_equal_one_draw_per_resample(self, gab, monkeypatch, n, seed):
        seen = []
        weighted = _Likelihood.weighted

        def spy(self, counts):
            seen.append(np.array(counts))
            return weighted(self, counts)

        monkeypatch.setattr(_Likelihood, "weighted", spy)
        # Blocks of 3 resamples, so that the stream runs across blocks.
        monkeypatch.setattr(altkit.fitml, "_BLOCK_ELEMENTS", 3 * n)
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        bootstrap_quantile(gab[:n], spec, GAB_USE, 0.1, 8, seed)
        rng = np.random.default_rng(seed)
        want = [np.bincount(rng.integers(0, n, size=n), minlength=n) for _ in range(8)]
        assert [len(c) for c in seen] == [3, 3, 2]
        assert_array_equal(np.concatenate(seen), want)


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
