"""Maximum-likelihood fitting of censored log-location-scale regressions.

The negative log-likelihood sums, over records, -log density for failures
and -log survival for right-censored units.  sigma enters on the log
scale so the search is unconstrained.

The fit is damped Newton on the analytic score and observed information,
in a space where every covariate column is centred and scaled.  Each step
solves with the Hessian, adds a growing ridge when that is not a descent
direction, and halves the step until the objective falls.  The loop ends
when the objective can no longer resolve the predicted decrease, when no
step lowers it, or after NEWTON_STEPS steps; the fit has converged when
the scaled gradient max-norm at the returned point is below 1e-5.

Each point the search visits is evaluated in one pass.  Records are
stored failures first, so the density kernels run on the failures only
and the survival kernels on the censored units only.  sigma and z are
computed once per point; the objective, the score and the Hessian are
built from them on first use, the survival derivative runs at most once
per point, and the accepted point's score and Hessian serve both the next
step and the final covariance.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from .data import LifeRecord, resolve_variable
from .errors import (
    DomainError,
    IllPosedFitError,
    InestimableError,
    MissingVariableError,
    NonConvergenceError,
)
from .formula import Factor, ModelSpec, Term, design_matrix, design_row
from .lifetime import (
    std_d2logpdf,
    std_d2logsf,
    std_dlogpdf,
    std_dlogsf,
    std_logpdf,
    std_logsf,
    std_quantile,
)

BARRIER = 1e300
NEWTON_STEPS = 50
GRAD_TOL = 1e-5
DECREMENT_TOL = 1e-12
_Z975 = 1.959963984540054  # standard normal 0.975 quantile


def fd_gradient(f, x: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate step rel_step*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        h = rel_step * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_hessian(f, x: np.ndarray, rel_step: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian, symmetrized, step rel_step*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = rel_step * (1.0 + np.abs(x))
    hess = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        hess[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / h[i] ** 2
        for j in range(i + 1, n):
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[[i, j]] += [h[i], h[j]]
            xpm[i] += h[i]
            xpm[j] -= h[j]
            xmp[i] -= h[i]
            xmp[j] += h[j]
            xmm[[i, j]] -= [h[i], h[j]]
            hess[i, j] = hess[j, i] = (
                f(xpp) - f(xpm) - f(xmp) + f(xmm)
            ) / (4.0 * h[i] * h[j])
    return 0.5 * (hess + hess.T)


class _Likelihood:
    """Prepared design matrices and the negative log-likelihood callable.

    Rows are stored failures first, so the failed and the censored rows
    are the two slices [:n_failed] and [n_failed:] of every array.
    """

    def __init__(self, data: Sequence[LifeRecord], spec: ModelSpec):
        failed = np.array([r.failed for r in data], dtype=bool)
        order = np.argsort(~failed, kind="stable")
        conditions = [r.condition for r in data]
        self.x_mu = design_matrix(spec.mu_terms, conditions)[order]
        self.x_sig = design_matrix(spec.sigma_terms, conditions)[order]
        self.logt = np.log(np.array([r.time for r in data]))[order]
        self.n_failed = int(failed.sum())
        self.family = spec.family
        self.n_mu = spec.n_mu

    def rescaled(self, x_mu: np.ndarray, x_sig: np.ndarray) -> "_Likelihood":
        clone = copy.copy(self)
        clone.x_mu = x_mu
        clone.x_sig = x_sig
        return clone

    def at(self, theta: np.ndarray) -> "_Point":
        return _Point(self, np.asarray(theta, dtype=float))

    def __call__(self, theta: np.ndarray) -> float:
        return self.at(theta).nll()

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """Analytic score of the negative log-likelihood (same sign as the
        finite-difference gradient of ``__call__``)."""
        return self.at(theta).score()

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """Analytic Hessian of the negative log-likelihood (the observed
        information)."""
        return self.at(theta).hessian()


class _Point:
    """The likelihood at one theta.  sigma and z are computed once; the
    objective, the score and the Hessian are each computed on first use
    and kept.  The kernels see the failed rows and the censored rows
    apart: log density and its derivatives on failures, log survival and
    its derivatives on censored units."""

    def __init__(self, like: _Likelihood, theta: np.ndarray):
        self.like = like
        self.theta = theta
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            self.logsig = like.x_sig @ theta[like.n_mu :]
            self.sigma = np.exp(self.logsig)
            self.z = (like.logt - like.x_mu @ theta[: like.n_mu]) / self.sigma
        self._nll = self._lprime = self._score = self._hessian = None

    def nll(self) -> float:
        """Negative log-likelihood; BARRIER where it is not finite."""
        if self._nll is None:
            like, nf, z = self.like, self.like.n_failed, self.z
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                ll = float(
                    np.sum(std_logpdf(z[:nf], like.family) - self.logsig[:nf] - like.logt[:nf])
                    + np.sum(std_logsf(z[nf:], like.family))
                )
            finite = math.isfinite(ll) and np.all(np.isfinite(self.theta))
            self._nll = -ll if finite else BARRIER
        return self._nll

    def _l1(self) -> np.ndarray:
        """L' = d/dz of each row's log density (failures) or log survival
        (censored units)."""
        if self._lprime is None:
            like, nf, z = self.like, self.like.n_failed, self.z
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                self._lprime = np.concatenate([
                    std_dlogpdf(z[:nf], like.family), std_dlogsf(z[nf:], like.family)
                ])
        return self._lprime

    def score(self) -> np.ndarray:
        """Analytic score of the negative log-likelihood."""
        if self._score is None:
            like, l1 = self.like, self._l1()
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                w_sig = l1 * self.z
                w_sig[: like.n_failed] += 1.0
                self._score = np.concatenate(
                    [like.x_mu.T @ (l1 / self.sigma), like.x_sig.T @ w_sig]
                )
        return self._score

    def hessian(self) -> np.ndarray:
        """Observed information.  With L'' the second z-derivative per row,
        the (mu, mu), (mu, log sigma) and (log sigma, log sigma) blocks are
        X'diag(w)X with w = -L''/sigma^2, -(L''z + L')/sigma and
        -(L''z^2 + L'z)."""
        if self._hessian is None:
            like, nf, z, l1 = self.like, self.like.n_failed, self.z, self._l1()
            k = like.n_mu
            h = np.empty((k + like.x_sig.shape[1],) * 2)
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                l2 = np.concatenate([
                    std_d2logpdf(z[:nf], like.family),
                    std_d2logsf(z[nf:], like.family, dlogsf=l1[nf:]),
                ])
                w = -(l2 * z + l1)
                h[:k, :k] = (like.x_mu.T * (-l2 / self.sigma**2)) @ like.x_mu
                h[:k, k:] = (like.x_mu.T * (w / self.sigma)) @ like.x_sig
                h[k:, :k] = h[:k, k:].T
                h[k:, k:] = (like.x_sig.T * (w * z)) @ like.x_sig
            self._hessian = h
        return self._hessian


def neg_log_likelihood(
    data: Sequence[LifeRecord], spec: ModelSpec, theta: Sequence[float]
) -> float:
    """Negative log-likelihood at theta = (mu coefficients, log-sigma
    coefficients); returns a large barrier value instead of overflowing."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != spec.n_params:
        raise DomainError(f"theta must have length {spec.n_params}")
    return _Likelihood(list(data), spec)(theta)


def likelihood_gradient(
    data: Sequence[LifeRecord], spec: ModelSpec, theta: Sequence[float]
) -> np.ndarray:
    """Analytic gradient of neg_log_likelihood with respect to theta."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != spec.n_params:
        raise DomainError(f"theta must have length {spec.n_params}")
    return _Likelihood(list(data), spec).gradient(theta)


def default_init(data: Sequence[LifeRecord], spec: ModelSpec) -> np.ndarray:
    """Deterministic starting point: OLS of log time on the mu design over
    failed records; log sigma from the residual spread inflated by the
    reciprocal of the failed fraction (heavy censoring hides spread)."""
    like = _Likelihood(list(data), spec)
    return _default_init(like, spec.n_params)


def _default_init(like: _Likelihood, n_params: int) -> np.ndarray:
    xf = like.x_mu[: like.n_failed]
    yf = like.logt[: like.n_failed]
    beta, *_ = np.linalg.lstsq(xf, yf, rcond=None)
    resid = yf - xf @ beta
    dof = max(1, yf.size - like.n_mu)
    s0 = max(math.sqrt(float(resid @ resid) / dof), 1e-3)
    sigma0 = s0 / (like.n_failed / like.logt.size)
    theta = np.zeros(n_params)
    theta[: like.n_mu] = beta
    theta[like.n_mu] = math.log(sigma0)
    return theta


class _Standardizer:
    """Center/scale the non-intercept design columns for optimization.

    The search runs where every covariate has mean 0 and spread 1, so the
    Hessian is well conditioned and the scaled-gradient stopping rule is
    meaningful regardless of covariate units; estimates and covariance map
    back through the affine reparameterization afterwards.
    """

    def __init__(self, like: _Likelihood):
        def stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            m = x.mean(axis=0)
            s = x.std(axis=0)
            m[0], s[0] = 0.0, 1.0  # intercept column untouched
            s[s == 0.0] = 1.0  # constant column; the rank check rejects it
            return m, s

        self.m_mu, self.s_mu = stats(like.x_mu)
        self.m_sig, self.s_sig = stats(like.x_sig)
        self.like = like.rescaled(
            (like.x_mu - self.m_mu) / self.s_mu,
            (like.x_sig - self.m_sig) / self.s_sig,
        )
        self.to_original = _block_diag(
            _affine_map(self.m_mu, self.s_mu), _affine_map(self.m_sig, self.s_sig)
        )
        self.from_original = _block_diag(
            _affine_inverse(self.m_mu, self.s_mu),
            _affine_inverse(self.m_sig, self.s_sig),
        )

    def original_params(self, theta_std: np.ndarray) -> np.ndarray:
        return self.to_original @ theta_std

    def standardized_params(self, theta: np.ndarray) -> np.ndarray:
        return self.from_original @ theta

    def original_covariance(self, cov_std: np.ndarray) -> np.ndarray:
        return self.to_original @ cov_std @ self.to_original.T


def _affine_map(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """b_original = map @ b_standardized for columns x' = (x - m)/s."""
    k = m.size
    t = np.zeros((k, k))
    t[0, 0] = 1.0
    for j in range(1, k):
        t[j, j] = 1.0 / s[j]
        t[0, j] = -m[j] / s[j]
    return t


def _affine_inverse(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    k = m.size
    t = np.zeros((k, k))
    t[0, 0] = 1.0
    for j in range(1, k):
        t[j, j] = s[j]
        t[0, j] = m[j]
    return t


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def _scaled_grad(g: np.ndarray, x: np.ndarray, f: float) -> float:
    return float(np.max(np.abs(g) * np.maximum(1.0, np.abs(x)))) / max(1.0, abs(f))


def _descent_step(h: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """The Newton step solving h @ step = g; where that is not a descent
    direction (h singular or indefinite), retry with a growing ridge."""
    ridge = 0.0
    scale = float(np.max(np.abs(np.diag(h)))) or 1.0
    for _ in range(12):
        try:
            step = np.linalg.solve(h + ridge * np.eye(g.size), g)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and float(g @ step) > 0.0:
            return step
        ridge = max(ridge * 10.0, 1e-8 * scale)
    return None


def _newton(like: _Likelihood, point: _Point) -> tuple[_Point, int]:
    """Damped Newton from `point`; returns the final point and the number
    of steps taken."""
    steps = 0
    while steps < NEWTON_STEPS and np.all(np.isfinite(point.score())):
        g = point.score()
        step = _descent_step(point.hessian(), g)
        if step is None:
            break
        if float(g @ step) < DECREMENT_TOL * max(1.0, abs(point.nll())):
            # f cannot resolve the decrease the quadratic model predicts
            # (half of g @ step) but the score can: take the full step if
            # it shrinks the score, then stop.
            trial = like.at(point.theta - step)
            if np.max(np.abs(trial.score())) < np.max(np.abs(g)):
                point = trial
                steps += 1
            break
        alpha = 1.0
        while alpha > 1e-10:
            trial = like.at(point.theta - alpha * step)
            if trial.nll() < point.nll():
                break
            alpha *= 0.5
        else:
            break
        point = trial
        steps += 1
    return point, steps


@dataclass
class FitResult:
    """A converged (or best-so-far) censored-ML fit."""

    spec: ModelSpec
    param_names: tuple[str, ...]
    estimates: np.ndarray
    loglik: float
    covariance: np.ndarray
    converged: bool
    iterations: int  # Newton steps taken
    warnings: list[str] = field(default_factory=list)
    n_records: int = 0
    n_failed: int = 0
    mu_column_ranges: tuple[tuple[float, float], ...] = ()
    sigma_column_ranges: tuple[tuple[float, float], ...] = ()

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def _index(self, name: str) -> int:
        try:
            return self.param_names.index(name)
        except ValueError:
            raise DomainError(
                f"unknown parameter {name!r}; available: {', '.join(self.param_names)}"
            ) from None

    def estimate(self, name: str) -> float:
        return float(self.estimates[self._index(name)])

    def standard_error(self, name: str) -> float:
        return float(self.se[self._index(name)])


def _column_ranges(x: np.ndarray) -> tuple[tuple[float, float], ...]:
    return tuple(
        (float(x[:, j].min()), float(x[:, j].max())) for j in range(1, x.shape[1])
    )


def fit_ml(
    data: Sequence[LifeRecord],
    spec: ModelSpec,
    init: Sequence[float] | None = None,
) -> FitResult:
    """Fit by maximum likelihood; deterministic given data, spec and init.

    Raises InestimableError when no record is a failure, IllPosedFitError on
    a rank-deficient design, and NonConvergenceError (carrying the
    best-so-far FitResult in `.result`) when the Newton loop stops short
    of the scaled-gradient tolerance.
    """
    data = list(data)
    if not data:
        raise InestimableError("no records")
    like = _Likelihood(data, spec)
    if like.n_failed == 0:
        raise InestimableError(
            "all records are censored; the model parameters are inestimable"
        )
    if np.linalg.matrix_rank(like.x_mu) < like.x_mu.shape[1]:
        raise IllPosedFitError("mu design matrix is rank deficient on these data")
    if np.linalg.matrix_rank(like.x_sig) < like.x_sig.shape[1]:
        raise IllPosedFitError("sigma design matrix is rank deficient on these data")

    std = _Standardizer(like)
    nll = std.like
    if init is None:
        x = _default_init(nll, spec.n_params)
    else:
        init = np.asarray(init, dtype=float)
        if init.size != spec.n_params:
            raise DomainError(f"init must have length {spec.n_params}")
        x = std.standardized_params(init)
    point, iterations = _newton(nll, nll.at(x))
    f = point.nll()
    scaled_grad = _scaled_grad(point.score(), point.theta, f)
    converged = scaled_grad < GRAD_TOL

    warnings: list[str] = []
    hess = point.hessian()
    try:
        cov_std = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        cov_std = np.linalg.pinv(hess)
        warnings.append("observed information is singular; covariance is a pseudo-inverse")
    covariance = std.original_covariance(cov_std)
    covariance = 0.5 * (covariance + covariance.T)
    # Congruence preserves eigenvalue signs, so test definiteness where the
    # parameters are O(1) instead of on the unit-dependent original scale.
    min_eig = float(np.linalg.eigvalsh(0.5 * (cov_std + cov_std.T)).min())
    if min_eig < -1e-8:
        warnings.append(
            f"covariance is not positive semidefinite (min eigenvalue {min_eig:.3e})"
        )

    result = FitResult(
        spec=spec,
        param_names=spec.param_names,
        estimates=std.original_params(point.theta),
        loglik=-f,
        covariance=covariance,
        converged=converged,
        iterations=iterations,
        warnings=warnings,
        n_records=len(data),
        n_failed=like.n_failed,
        mu_column_ranges=_column_ranges(like.x_mu),
        sigma_column_ranges=_column_ranges(like.x_sig),
    )
    if not converged:
        raise NonConvergenceError(
            f"no convergence after {iterations} Newton steps "
            f"(scaled gradient {scaled_grad:.3e})",
            result,
        )
    return result


@dataclass(frozen=True)
class QuantileEstimate:
    """A lifetime quantile at a use condition with delta-method uncertainty."""

    p: float
    quantile: float
    se: float
    log_quantile: float
    se_log: float
    lower: float
    upper: float
    extrapolated: bool


def _is_extrapolated(row: np.ndarray, ranges: tuple[tuple[float, float], ...]) -> bool:
    for j, (lo, hi) in enumerate(ranges):
        v = row[1 + j]
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        if v < lo - slack or v > hi + slack:
            return True
    return False


def quantile_at_use(
    fit: FitResult, use: Mapping[str, float], p: float
) -> QuantileEstimate:
    """Quantile t_p = exp(mu(use) + z_p*sigma(use)) with a delta-method
    standard error and a normal-approximation interval on the log scale.

    A use condition outside the fitted covariate range is allowed but the
    estimate is flagged as extrapolated.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie strictly inside (0, 1)")
    spec = fit.spec
    xm = design_row(spec.mu_terms, use)
    xs = design_row(spec.sigma_terms, use)
    beta = fit.estimates[: spec.n_mu]
    s = fit.estimates[spec.n_mu :]
    mu = float(xm @ beta)
    sigma = math.exp(float(xs @ s))
    zp = float(std_quantile(p, spec.family))
    log_tp = mu + zp * sigma
    grad = np.concatenate([xm, zp * sigma * xs])
    var_log = float(grad @ fit.covariance @ grad)
    se_log = math.sqrt(max(var_log, 0.0))
    tp = math.exp(log_tp)
    return QuantileEstimate(
        p=p,
        quantile=tp,
        se=tp * se_log,
        log_quantile=log_tp,
        se_log=se_log,
        lower=math.exp(log_tp - _Z975 * se_log),
        upper=math.exp(log_tp + _Z975 * se_log),
        extrapolated=(
            _is_extrapolated(xm, fit.mu_column_ranges)
            or _is_extrapolated(xs, fit.sigma_column_ranges)
        ),
    )


def default_profile_grid() -> np.ndarray:
    """The default exponent grid -1(0.1)2, 31 points."""
    return np.linspace(-1.0, 2.0, 31)


@dataclass(frozen=True)
class ProfilePoint:
    """One grid point of a power-transform profile sweep."""

    lam: float
    loglik: float
    quantile: float
    lower: float
    upper: float
    converged: bool


def profile_lambda(
    data: Sequence[LifeRecord],
    spec: ModelSpec,
    use: Mapping[str, float],
    p: float = 0.1,
    grid: Sequence[float] | None = None,
) -> list[ProfilePoint]:
    """Profile the power-transform exponent: refit all other parameters at
    each grid value and report the log-likelihood and the use-condition
    quantile.  Grid points are independent; a point that fails to converge
    is flagged, not fatal.
    """
    data = list(data)
    spec.boxcox_lambda()  # validates that the model has a boxcox term
    lams = default_profile_grid() if grid is None else np.asarray(grid, dtype=float)

    def eval_point(lam: float) -> ProfilePoint:
        nan = float("nan")
        try:
            fit = fit_ml(data, spec.with_boxcox_lambda(lam))
            ok = fit.converged
        except NonConvergenceError as err:
            fit, ok = err.result, False
        except (IllPosedFitError, InestimableError, DomainError):
            return ProfilePoint(float(lam), nan, nan, nan, nan, False)
        try:
            q = quantile_at_use(fit, use, p)
            return ProfilePoint(float(lam), fit.loglik, q.quantile, q.lower, q.upper, ok)
        except (MissingVariableError, DomainError):
            return ProfilePoint(float(lam), fit.loglik, nan, nan, nan, ok)

    return [eval_point(lam) for lam in lams]


@dataclass(frozen=True)
class ReciprocityResult:
    """Estimate of the intensity exponent p and the Wald test of p = 1."""

    p_hat: float
    se: float
    wald_z: float
    p_value: float
    fit: FitResult

    @property
    def reject_at_5pct(self) -> bool:
        return self.p_value < 0.05


def reciprocity_test(
    data: Sequence[LifeRecord], family: str = "lognormal"
) -> ReciprocityResult:
    """Test exact reciprocity from dosage-to-failure data across intensity
    levels.

    Records carry the dosage at failure/censoring as `time` and the
    concentration factor as condition variable `cf`.  Under the
    effective-exposure model cf**p scales dosage, so log dosage-to-failure
    has slope -p on log(cf): the fit estimates p_hat = -slope, and the Wald
    statistic (p_hat - 1)/se tests p = 1.
    """
    data = list(data)
    levels = {resolve_variable(r.condition, "cf") for r in data}
    if len(levels) < 2:
        raise InestimableError("need at least 2 distinct cf levels to estimate p")
    spec = ModelSpec(
        family, (Term((Factor("log", inner=Factor("var", var="cf")),)),)
    )
    fit = fit_ml(data, spec)
    slope = fit.estimate("mu:log(cf)")
    se = fit.standard_error("mu:log(cf)")
    p_hat = -slope
    wald = (p_hat - 1.0) / se
    p_value = 2.0 * float(1.0 - ndtr(abs(wald)))
    return ReciprocityResult(p_hat, se, wald, p_value, fit)


@dataclass(frozen=True)
class BootstrapQuantiles:
    """Bootstrap draws of a use-condition quantile."""

    quantiles: np.ndarray
    n_requested: int
    n_skipped: int

    @property
    def se_log(self) -> float:
        return float(np.std(np.log(self.quantiles), ddof=1))


def bootstrap_quantile(
    data: Sequence[LifeRecord],
    spec: ModelSpec,
    use: Mapping[str, float],
    p: float,
    n_boot: int,
    seed: int,
) -> BootstrapQuantiles:
    """Nonparametric bootstrap of quantile_at_use; resamples records with
    replacement.  Replicates whose fit degenerates (no failures, rank
    deficiency, non-convergence) are skipped and counted."""
    data = list(data)
    rng = np.random.default_rng(seed)
    out: list[float] = []
    skipped = 0
    for _ in range(n_boot):
        idx = rng.integers(0, len(data), size=len(data))
        sample = [data[i] for i in idx]
        try:
            fit = fit_ml(sample, spec)
            out.append(quantile_at_use(fit, use, p).quantile)
        except (InestimableError, IllPosedFitError, NonConvergenceError, DomainError):
            skipped += 1
    return BootstrapQuantiles(np.array(out), n_boot, skipped)
