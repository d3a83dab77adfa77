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
"""

from __future__ import annotations

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
    """Prepared design matrices and the negative log-likelihood callable."""

    def __init__(self, data: Sequence[LifeRecord], spec: ModelSpec):
        conditions = [r.condition for r in data]
        self.x_mu = design_matrix(spec.mu_terms, conditions)
        self.x_sig = design_matrix(spec.sigma_terms, conditions)
        self.logt = np.log(np.array([r.time for r in data]))
        self.failed = np.array([r.failed for r in data], dtype=bool)
        self.family = spec.family
        self.n_mu = spec.n_mu

    def rescaled(self, x_mu: np.ndarray, x_sig: np.ndarray) -> "_Likelihood":
        clone = object.__new__(_Likelihood)
        clone.x_mu = x_mu
        clone.x_sig = x_sig
        clone.logt = self.logt
        clone.failed = self.failed
        clone.family = self.family
        clone.n_mu = self.n_mu
        return clone

    def __call__(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        if not np.all(np.isfinite(theta)):
            return BARRIER
        beta = theta[: self.n_mu]
        s = theta[self.n_mu :]
        mu = self.x_mu @ beta
        logsig = self.x_sig @ s
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            sigma = np.exp(logsig)
            z = (self.logt - mu) / sigma
            ll = float(
                np.sum(
                    std_logpdf(z[self.failed], self.family)
                    - logsig[self.failed]
                    - self.logt[self.failed]
                )
                + np.sum(std_logsf(z[~self.failed], self.family))
            )
        if not math.isfinite(ll):
            return BARRIER
        return -ll

    def _residuals(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """sigma, z and L' = d/dz of each record's log density (failures)
        or log survival (censored units)."""
        theta = np.asarray(theta, dtype=float)
        sigma = np.exp(self.x_sig @ theta[self.n_mu :])
        z = (self.logt - self.x_mu @ theta[: self.n_mu]) / sigma
        dfail = std_dlogpdf(z, self.family)
        dcens = std_dlogsf(z, self.family)
        return sigma, z, np.where(self.failed, dfail, dcens)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """Analytic score of the negative log-likelihood (same sign as the
        finite-difference gradient of ``__call__``)."""
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            sigma, z, lprime = self._residuals(theta)
            g_mu = self.x_mu.T @ (lprime / sigma)
            g_sig = self.x_sig.T @ (lprime * z + np.where(self.failed, 1.0, 0.0))
        return np.concatenate([g_mu, g_sig])

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """Analytic Hessian of the negative log-likelihood (the observed
        information).  With L'' the second z-derivative per record, the
        (mu, mu), (mu, log sigma) and (log sigma, log sigma) blocks are
        X'diag(w)X with w = -L''/sigma^2, -(L''z + L')/sigma and
        -(L''z^2 + L'z)."""
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            sigma, z, lprime = self._residuals(theta)
            d2fail = std_d2logpdf(z, self.family)
            d2cens = std_d2logsf(z, self.family)
            l2 = np.where(self.failed, d2fail, d2cens)
            w = -(l2 * z + lprime)
            h_mu = (self.x_mu.T * (-l2 / sigma**2)) @ self.x_mu
            h_cross = (self.x_mu.T * (w / sigma)) @ self.x_sig
            h_sig = (self.x_sig.T * (w * z)) @ self.x_sig
        return np.block([[h_mu, h_cross], [h_cross.T, h_sig]])


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
    xf = like.x_mu[like.failed]
    yf = like.logt[like.failed]
    beta, *_ = np.linalg.lstsq(xf, yf, rcond=None)
    resid = yf - xf @ beta
    dof = max(1, yf.size - like.n_mu)
    s0 = max(math.sqrt(float(resid @ resid) / dof), 1e-3)
    sigma0 = s0 / float(like.failed.mean())
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


def _newton(like, x: np.ndarray, f: float) -> tuple[np.ndarray, float, np.ndarray, int]:
    """Damped Newton from x with f = like(x); returns the final point, its
    objective and score, and the number of steps taken."""
    g = like.gradient(x)
    steps = 0
    while steps < NEWTON_STEPS and np.all(np.isfinite(g)):
        step = _descent_step(like.hessian(x), g)
        if step is None:
            break
        if float(g @ step) < DECREMENT_TOL * max(1.0, abs(f)):
            # f cannot resolve the decrease the quadratic model predicts
            # (half of g @ step) but the score can: take the full step if
            # it shrinks the score, then stop.
            trial = x - step
            gt = like.gradient(trial)
            if np.max(np.abs(gt)) < np.max(np.abs(g)):
                x, f, g = trial, like(trial), gt
                steps += 1
            break
        alpha = 1.0
        while alpha > 1e-10:
            trial = x - alpha * step
            ft = like(trial)
            if ft < f:
                break
            alpha *= 0.5
        else:
            break
        x, f, g = trial, ft, like.gradient(trial)
        steps += 1
    return x, f, g, steps


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
    if not like.failed.any():
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
    x, f, grad, iterations = _newton(nll, x, nll(x))
    scaled_grad = _scaled_grad(grad, x, f)
    converged = scaled_grad < GRAD_TOL

    warnings: list[str] = []
    hess = nll.hessian(x)
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
        estimates=std.original_params(x),
        loglik=-f,
        covariance=covariance,
        converged=converged,
        iterations=iterations,
        warnings=warnings,
        n_records=len(data),
        n_failed=int(like.failed.sum()),
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
