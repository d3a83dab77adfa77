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

Every point carries a leading replicate axis.  A replicate is the same
records under integer row weights; a bootstrap resample is the number of
times each record was drawn, and its weighted likelihood equals that of
the duplicated records.  A row of weight 0 adds exactly 0, even where its
kernel value is not finite.  The Newton loop moves all replicates
together, with one likelihood pass and one stacked solve per round, while
the ridge, the step halving and the stop are decided per replicate; every
product is taken one replicate at a time, so no replicate's result depends
on the others in its batch.  One replicate fit judges every fit by one
set of rules, the first broken rule deciding: no failure weight, a
standardized design that is not finite or loses rank under the row
weights, a scaled gradient of GRAD_TOL or more after Newton.  fit_ml is
its batch of one with unit weights.

bootstrap_quantile standardizes once with the full sample's column
statistics, starts every resample from the full sample's own replicate
fit, and fits the resamples in blocks of bounded size.  profile_lambda starts each
grid point from the last converged point's solution in standardized
coordinates, which move little with the exponent even though the
transformed column changes scale.
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
# The bootstrap fits its replicates in blocks whose (replicates, rows)
# arrays hold at most this many elements.
_BLOCK_ELEMENTS = 1 << 16
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
    `weights` is None for one replicate that counts every row once, or a
    (replicates, rows) array of row weights in the stored row order.
    """

    def __init__(self, data: Sequence[LifeRecord], spec: ModelSpec):
        failed = np.array([r.failed for r in data], dtype=bool)
        self.order = np.argsort(~failed, kind="stable")
        conditions = [r.condition for r in data]
        self.x_mu = design_matrix(spec.mu_terms, conditions)[self.order]
        self.x_sig = design_matrix(spec.sigma_terms, conditions)[self.order]
        self.logt = np.log(np.array([r.time for r in data]))[self.order]
        self.n_failed = int(failed.sum())
        self.family = spec.family
        self.n_mu = spec.n_mu
        self.weights = None

    def _with(self, **attrs) -> "_Likelihood":
        clone = copy.copy(self)
        clone.__dict__.update(attrs)
        return clone

    def rescaled(self, x_mu: np.ndarray, x_sig: np.ndarray) -> "_Likelihood":
        return self._with(x_mu=x_mu, x_sig=x_sig)

    def weighted(self, counts: np.ndarray) -> "_Likelihood":
        """One replicate per row of `counts` (replicates, records), the
        weight of each record given in the order of the data."""
        return self._with(weights=np.asarray(counts, dtype=float)[:, self.order])

    def replicates(self, which: np.ndarray) -> "_Likelihood":
        """The replicates selected by index or mask `which`."""
        return self if self.weights is None else self._with(weights=self.weights[which])

    def row_weights(self) -> np.ndarray:
        """The (replicates, rows) weights; one row of ones when unweighted."""
        return np.ones((1, self.logt.size)) if self.weights is None else self.weights

    def weigh(self, values: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """`values` (replicates, rows) times the weights of `rows`; exactly 0
        where a weight is 0, even where the value is not finite."""
        if self.weights is None:
            return values
        w = self.weights[:, rows]
        return np.where(w > 0.0, w * values, 0.0)

    def at(self, theta: np.ndarray) -> "_Point":
        """The point theta, one row of parameters per replicate."""
        return _Point(self, np.asarray(theta, dtype=float))

    def __call__(self, theta: np.ndarray) -> float:
        return float(self.at(np.atleast_2d(theta)).nll()[0])

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """Analytic score of the negative log-likelihood (same sign as the
        finite-difference gradient of ``__call__``)."""
        return self.at(np.atleast_2d(theta)).score()[0]

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """Analytic Hessian of the negative log-likelihood (the observed
        information)."""
        return self.at(np.atleast_2d(theta)).hessian()[0]


class _Point:
    """The likelihood at one theta per replicate.  sigma and z are computed
    once; the objective, the score and the Hessian are each computed on
    first use and kept.  The kernels see the failed rows and the censored
    rows apart: log density and its derivatives on failures, log survival
    and its derivatives on censored units."""

    def __init__(self, like: _Likelihood, theta: np.ndarray):
        self.like = like
        self.theta = theta
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            self.logsig = _per_row(theta[:, like.n_mu :], like.x_sig.T)
            self.sigma = np.exp(self.logsig)
            self.z = (like.logt - _per_row(theta[:, : like.n_mu], like.x_mu.T)) / self.sigma
        self._nll = self._lprime = self._score = self._hessian = None

    def take(self, keep: np.ndarray) -> "_Point":
        """The replicates where `keep` is true, with what is computed so far."""
        if keep.all():
            return self
        part = copy.copy(self)
        part.like = self.like.replicates(keep)
        for name in ("theta", "logsig", "sigma", "z", "_nll", "_lprime", "_score", "_hessian"):
            value = getattr(self, name)
            if value is not None:
                setattr(part, name, value[keep])
        return part

    def nll(self) -> np.ndarray:
        """Negative log-likelihood per replicate; BARRIER where it is not
        finite."""
        if self._nll is None:
            like, nf, z = self.like, self.like.n_failed, self.z
            fail, cens = slice(None, nf), slice(nf, None)
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                ll = like.weigh(
                    std_logpdf(z[:, fail], like.family) - self.logsig[:, fail] - like.logt[fail],
                    fail,
                ).sum(axis=1) + like.weigh(std_logsf(z[:, cens], like.family), cens).sum(axis=1)
            finite = np.isfinite(ll) & np.isfinite(self.theta).all(axis=1)
            self._nll = np.where(finite, -ll, BARRIER)
        return self._nll

    def _l1(self) -> np.ndarray:
        """L' = d/dz of each row's log density (failures) or log survival
        (censored units)."""
        if self._lprime is None:
            like, nf, z = self.like, self.like.n_failed, self.z
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                self._lprime = np.concatenate([
                    std_dlogpdf(z[:, :nf], like.family), std_dlogsf(z[:, nf:], like.family)
                ], axis=1)
        return self._lprime

    def score(self) -> np.ndarray:
        """Analytic score of the negative log-likelihood, per replicate."""
        if self._score is None:
            like, l1 = self.like, self._l1()
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                w_sig = l1 * self.z
                w_sig[:, : like.n_failed] += 1.0
                self._score = np.concatenate(
                    [_per_row(like.weigh(l1 / self.sigma), like.x_mu),
                     _per_row(like.weigh(w_sig), like.x_sig)],
                    axis=1,
                )
        return self._score

    def hessian(self) -> np.ndarray:
        """Observed information per replicate.  With L'' the second
        z-derivative per row, the (mu, mu), (mu, log sigma) and (log sigma,
        log sigma) blocks are X'diag(w)X with w = -L''/sigma^2,
        -(L''z + L')/sigma and -(L''z^2 + L'z)."""
        if self._hessian is None:
            like, nf, z, l1 = self.like, self.like.n_failed, self.z, self._l1()
            k = like.n_mu
            h = np.empty((self.theta.shape[0],) + (self.theta.shape[1],) * 2)
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                l2 = np.concatenate([
                    std_d2logpdf(z[:, :nf], like.family),
                    std_d2logsf(z[:, nf:], like.family, dlogsf=l1[:, nf:]),
                ], axis=1)
                w = -(l2 * z + l1)
                h[:, :k, :k] = _gram(like.x_mu, like.weigh(-l2 / self.sigma**2), like.x_mu)
                h[:, :k, k:] = _gram(like.x_mu, like.weigh(w / self.sigma), like.x_sig)
                h[:, k:, :k] = h[:, :k, k:].transpose(0, 2, 1)
                h[:, k:, k:] = _gram(like.x_sig, like.weigh(w * z), like.x_sig)
            self._hessian = h
        return self._hessian


def _per_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b for each row of a, as a stack of one-row products, so that
    no row's value depends on the rows beside it (a two-dimensional
    product's rounding can depend on the row's place in the block)."""
    return (a[:, None, :] @ b)[:, 0, :]


def _gram(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a'diag(c)b for each replicate's row weights c (replicates, rows)."""
    return (a.T * c[:, None, :]) @ b


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
    return _default_init(_Likelihood(list(data), spec))[0]


def _default_init(like: _Likelihood) -> np.ndarray:
    """default_init for each replicate, its rows counted by their weights."""
    nf, k = like.n_failed, like.n_mu
    xf, yf = like.x_mu[:nf], like.logt[:nf]
    weights = like.row_weights()
    theta = np.zeros((len(weights), k + like.x_sig.shape[1]))
    for row, w in zip(theta, weights):
        r = np.sqrt(w[:nf])
        beta, *_ = np.linalg.lstsq(xf * r[:, None], yf * r, rcond=None)
        resid = r * (yf - xf @ beta)
        n_failed = float(w[:nf].sum())
        s0 = max(math.sqrt(float(resid @ resid) / max(1.0, n_failed - k)), 1e-3)
        row[:k] = beta
        row[k] = math.log(s0 / (n_failed / float(w.sum())))
    return theta


def _rank_deficient(like: _Likelihood, x: np.ndarray) -> np.ndarray:
    """Whether design x (rows in the stored order) is not finite or loses
    rank under each replicate's row weights."""
    weights = like.row_weights()
    if not np.isfinite(x).all():
        return np.ones(len(weights), dtype=bool)
    x = np.sqrt(weights)[:, :, None] * x
    return np.linalg.matrix_rank(x) < x.shape[-1]


class _Standardizer:
    """Center/scale the non-intercept design columns for optimization.

    The search runs where every covariate has mean 0 and spread 1, so the
    Hessian is well conditioned and the scaled-gradient stopping rule is
    meaningful regardless of covariate units; estimates and covariance map
    back through the affine reparameterization afterwards.  A column with
    x' = (x - m)/s has coefficient b = b'/s, and its intercept gains -b'm/s.
    """

    def __init__(self, like: _Likelihood):
        def stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            m = x.mean(axis=0)
            s = x.std(axis=0)
            m[0], s[0] = 0.0, 1.0  # intercept column untouched
            s[s == 0.0] = 1.0  # constant column; the rank check rejects it
            return m, s

        # A column too wide for double precision standardizes to 0 or nan,
        # which the rank check rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            m_mu, s_mu = stats(like.x_mu)
            m_sig, s_sig = stats(like.x_sig)
            self.like = like.rescaled((like.x_mu - m_mu) / s_mu, (like.x_sig - m_sig) / s_sig)
            m, s = np.concatenate([m_mu, m_sig]), np.concatenate([s_mu, s_sig])
            self.to_original = np.diag(1.0 / s)
            self.from_original = np.diag(s)
            for lo, hi in ((0, like.n_mu), (like.n_mu, s.size)):
                self.to_original[lo, lo + 1 : hi] = -m[lo + 1 : hi] / s[lo + 1 : hi]
                self.from_original[lo, lo + 1 : hi] = m[lo + 1 : hi]

    def original_params(self, theta_std: np.ndarray) -> np.ndarray:
        """Original-scale parameters, one row per replicate."""
        return _per_row(theta_std, self.to_original.T)

    def standardized_params(self, theta: np.ndarray) -> np.ndarray:
        return _per_row(theta, self.from_original.T)

    def original_covariance(self, cov_std: np.ndarray) -> np.ndarray:
        return self.to_original @ cov_std @ self.to_original.T


def _solve(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """h[i] @ x[i] = g[i] for a stack; a row of nan where h[i] is singular."""
    try:
        return np.linalg.solve(h, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(g.shape, np.nan)
        for i in range(len(g)):
            try:
                x[i] = np.linalg.solve(h[i], g[i])
            except np.linalg.LinAlgError:
                pass
        return x


def _descent_steps(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton steps solving h @ step = g, one stacked solve for all
    replicates; where that is not a descent direction (h singular or
    indefinite), that replicate retries with a growing ridge.  Returns the
    steps and each one's g @ step, which is positive where a step was
    found."""
    steps = _solve(h, g)
    decrease = np.einsum("ij,ij->i", g, steps)
    for i in np.flatnonzero(~(decrease > 0.0)):
        ridge = 1e-8 * (float(np.max(np.abs(np.diag(h[i])))) or 1.0)
        for _ in range(11):
            step = _solve(h[i : i + 1] + ridge * np.eye(g.shape[1]), g[i : i + 1])[0]
            gain = float(g[i] @ step)
            if gain > 0.0:
                steps[i], decrease[i] = step, gain
                break
            ridge *= 10.0
    return steps, decrease


class _Solution:
    """Where the Newton loop has left each replicate: theta, the objective,
    score and Hessian there, and the steps taken."""

    def __init__(self, start: _Point):
        self.theta = start.theta.copy()
        self.nll = start.nll().copy()
        self.score = start.score().copy()
        self.hessian = start.hessian().copy()
        self.steps = np.zeros(len(self.theta), dtype=int)

    def accept(self, idx: np.ndarray, trial: _Point, keep: np.ndarray) -> np.ndarray:
        """Move replicates idx[keep] to their trial points; returns them."""
        if not keep.all():
            trial, idx = trial.take(keep), idx[keep]
        if idx.size:
            self.theta[idx] = trial.theta
            self.nll[idx] = trial.nll()
            self.score[idx] = trial.score()
            self.hessian[idx] = trial.hessian()
            self.steps[idx] += 1
        return idx

    def scaled_grad(self) -> np.ndarray:
        return np.max(
            np.abs(self.score) * np.maximum(1.0, np.abs(self.theta)), axis=1
        ) / np.maximum(1.0, np.abs(self.nll))


def _newton(like: _Likelihood, theta: np.ndarray) -> _Solution:
    """Damped Newton from theta, one row per replicate.  The replicates
    move together, one likelihood pass and one stacked solve per round,
    but each has its own ridge, step length and stop."""
    sol = _Solution(like.at(theta))
    idx = np.flatnonzero(np.isfinite(sol.score).all(axis=1))
    # Every replicate still moving has taken one step per round.
    for _ in range(NEWTON_STEPS):
        if not idx.size:
            break
        g = sol.score[idx]
        step, decrease = _descent_steps(sol.hessian[idx], g)
        found = decrease > 0.0
        small = decrease < DECREMENT_TOL * np.maximum(1.0, np.abs(sol.nll[idx]))
        last = found & small
        if last.any():
            # f cannot resolve the decrease the quadratic model predicts
            # (half of g @ step) but the score can: take the full step
            # where it shrinks the score, then stop.
            trial = like.replicates(idx[last]).at(sol.theta[idx[last]] - step[last])
            shrinks = np.abs(trial.score()).max(axis=1) < np.abs(g[last]).max(axis=1)
            sol.accept(idx[last], trial, shrinks)
        search = found & ~small
        if not search.all():
            idx, step = idx[search], step[search]
        moved = []
        alpha = 1.0
        while idx.size and alpha > 1e-10:
            trial = like.replicates(idx).at(sol.theta[idx] - alpha * step)
            lower = trial.nll() < sol.nll[idx]
            moved.append(sol.accept(idx, trial, lower))
            if lower.all():
                break
            idx, step = idx[~lower], step[~lower]
            alpha *= 0.5
        # Replicates where no step lowered the objective stop here.
        idx = moved[0] if len(moved) == 1 else np.sort(np.concatenate(moved or [idx]))
        idx = idx[np.isfinite(sol.score[idx]).all(axis=1)]
    return sol


SKIP_REASONS = ("inestimable", "ill_posed", "non_converged", "domain")
# A replicate's skip reason: _KEPT, or 1 + its index in SKIP_REASONS.
_KEPT, _INESTIMABLE, _ILL_POSED, _NON_CONVERGED, _DOMAIN = range(1 + len(SKIP_REASONS))


def _fit_replicates(
    like: _Likelihood, theta: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, _Solution | None]:
    """Fit every replicate of the standardized `like` from `theta` (one
    row for all; default_init when None) and give each one's reason: the
    first of _INESTIMABLE, _ILL_POSED and _NON_CONVERGED whose rule it
    breaks, else _KEPT.  Returns the reasons, the indices of the
    replicates fitted and their _Solution (None when none was)."""
    weights = like.row_weights()
    reasons = np.full(len(weights), _KEPT)
    reasons[_rank_deficient(like, like.x_mu) | _rank_deficient(like, like.x_sig)] = _ILL_POSED
    reasons[weights[:, : like.n_failed].sum(axis=1) == 0.0] = _INESTIMABLE
    fit = np.flatnonzero(reasons == _KEPT)
    if not fit.size:
        return reasons, fit, None
    part = like.replicates(fit)
    sol = _newton(part, _default_init(part) if theta is None else np.repeat(theta, fit.size, axis=0))
    reasons[fit[~(sol.scaled_grad() < GRAD_TOL)]] = _NON_CONVERGED
    return reasons, fit, sol


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
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.size != spec.n_params:
            raise DomainError(f"init must have length {spec.n_params}")
    like = _Likelihood(data, spec)
    std = _Standardizer(like)
    (reason,), _, sol = _fit_replicates(
        std.like, None if init is None else std.standardized_params(init[None])
    )
    if reason == _INESTIMABLE:
        raise InestimableError(
            "all records are censored; the model parameters are inestimable"
        )
    if reason == _ILL_POSED:
        design = "mu" if _rank_deficient(std.like, std.like.x_mu)[0] else "sigma"
        raise IllPosedFitError(f"{design} design matrix is rank deficient on these data")

    warnings: list[str] = []
    hess = sol.hessian[0]
    if not np.isfinite(hess).all():
        covariance = np.full_like(hess, np.nan)
        warnings.append("observed information is not finite; covariance is undefined")
    else:
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
        estimates=std.original_params(sol.theta)[0],
        loglik=-float(sol.nll[0]),
        covariance=covariance,
        converged=bool(reason == _KEPT),
        iterations=int(sol.steps[0]),
        warnings=warnings,
        n_records=len(data),
        n_failed=like.n_failed,
        mu_column_ranges=_column_ranges(like.x_mu),
        sigma_column_ranges=_column_ranges(like.x_sig),
    )
    if not result.converged:
        raise NonConvergenceError(
            f"no convergence after {result.iterations} Newton steps "
            f"(scaled gradient {float(sol.scaled_grad()[0]):.3e})",
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


def _exp(x: float) -> float:
    """math.exp, but inf where the result overflows double precision."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def quantile_at_use(
    fit: FitResult, use: Mapping[str, float], p: float
) -> QuantileEstimate:
    """Quantile t_p = exp(mu(use) + z_p*sigma(use)) with a delta-method
    standard error and a normal-approximation interval on the log scale.

    A use condition outside the fitted covariate range is allowed but the
    estimate is flagged as extrapolated.  A value whose exponential
    overflows double precision is inf (and anything computed from an inf
    may be nan); the JSON report prints both as null.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie strictly inside (0, 1)")
    spec = fit.spec
    xm = design_row(spec.mu_terms, use)
    xs = design_row(spec.sigma_terms, use)
    beta = fit.estimates[: spec.n_mu]
    s = fit.estimates[spec.n_mu :]
    mu = float(xm @ beta)
    sigma = _exp(float(xs @ s))
    zp = float(std_quantile(p, spec.family))
    log_tp = mu + zp * sigma
    grad = np.concatenate([xm, zp * sigma * xs])
    var_log = float(grad @ fit.covariance @ grad)
    se_log = math.sqrt(max(var_log, 0.0))
    tp = _exp(log_tp)
    return QuantileEstimate(
        p=p,
        quantile=tp,
        se=tp * se_log,
        log_quantile=log_tp,
        se_log=se_log,
        lower=_exp(log_tp - _Z975 * se_log),
        upper=_exp(log_tp + _Z975 * se_log),
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
    quantile.  A point that fails to converge is flagged, not fatal.

    Each fit starts from the last converged point's solution in
    standardized coordinates, where it stays close as the exponent moves
    even though the transformed column changes scale; the first fit, and
    every fit before a point has converged, starts cold.
    """
    data = list(data)
    spec.boxcox_lambda()  # validates that the model has a boxcox term
    lams = default_profile_grid() if grid is None else np.asarray(grid, dtype=float)
    nan = float("nan")
    points: list[ProfilePoint] = []
    warm = None  # standardized estimates of the last converged point
    for lam in map(float, lams):
        lspec = spec.with_boxcox_lambda(lam)
        try:
            std = _Standardizer(_Likelihood(data, lspec))
            fit = fit_ml(data, lspec, None if warm is None else std.original_params(warm)[0])
            ok = fit.converged
        except NonConvergenceError as err:
            fit, ok = err.result, False
        except (IllPosedFitError, InestimableError, DomainError):
            points.append(ProfilePoint(lam, nan, nan, nan, nan, False))
            continue
        if ok:
            warm = std.standardized_params(fit.estimates[None])
        try:
            q = quantile_at_use(fit, use, p)
            points.append(ProfilePoint(lam, fit.loglik, q.quantile, q.lower, q.upper, ok))
        except (MissingVariableError, DomainError):
            points.append(ProfilePoint(lam, fit.loglik, nan, nan, nan, ok))
    return points


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
    """Bootstrap draws of a use-condition quantile.

    `quantiles` holds one value per kept replicate, or, when several p were
    asked for, one row per kept replicate and one column per p.
    `skip_reasons` counts the skipped replicates by the first rule each
    broke, keyed by SKIP_REASONS: no failure resampled (inestimable), a
    rank-deficient design (ill_posed), no convergence (non_converged), or
    a quantile undefined at the use condition (domain).  The counts sum to
    n_skipped.
    """

    quantiles: np.ndarray
    n_requested: int
    n_skipped: int
    skip_reasons: Mapping[str, int] = field(default_factory=dict)

    @property
    def se_log(self):
        """Standard deviation of the log quantiles (one per p when there
        are several, each over its own contiguous column so that it does
        not depend on the others); nan when fewer than 2 were kept."""
        with np.errstate(divide="ignore", invalid="ignore"):  # draws of 0 or inf give nan
            logq = np.ascontiguousarray(np.log(self.quantiles).T)
            if logq.shape[-1] < 2:
                se = np.full(logq.shape[:-1], np.nan)
            else:
                se = np.std(logq, ddof=1, axis=-1)
        return float(se) if se.ndim == 0 else se


def bootstrap_quantile(
    data: Sequence[LifeRecord],
    spec: ModelSpec,
    use: Mapping[str, float],
    p: float | Sequence[float],
    n_boot: int,
    seed: int,
) -> BootstrapQuantiles:
    """Nonparametric bootstrap of quantile_at_use; resamples records with
    replacement.  Replicates whose fit degenerates (no failures, rank
    deficiency, non-convergence) or whose quantile is undefined are skipped
    and counted.

    Each resample is fitted once: `p` may be a sequence, and then every p
    is read off the same fits.  A resample is the count of each record in
    n draws with replacement, and the resamples are fitted as weighted
    replicates of one likelihood, all starting from the full-sample
    estimates (from default_init when the full-sample fit fails).
    """
    if n_boot < 2:
        raise DomainError(f"the bootstrap needs at least 2 resamples, got {n_boot}")
    data = list(data)
    n = len(data)
    reasons = np.full(n_boot, _INESTIMABLE)
    estimates = np.full((n_boot, spec.n_params), np.nan)
    if data:
        std = _Standardizer(_Likelihood(data, spec))
        (reason,), _, sol = _fit_replicates(std.like, None)
        start = sol.theta if reason == _KEPT else None
        rng = np.random.default_rng(seed)
        block = max(1, _BLOCK_ELEMENTS // n)
        for lo in range(0, n_boot, block):
            counts = np.array([
                np.bincount(rng.integers(0, n, size=n), minlength=n)
                for _ in range(min(block, n_boot - lo))
            ])
            hi = lo + len(counts)
            reasons[lo:hi], fit, sol = _fit_replicates(std.like.weighted(counts), start)
            if fit.size:
                estimates[lo + fit] = std.original_params(sol.theta)

    kept = reasons == _KEPT
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    quantiles = np.empty((0, ps.size))
    if kept.any():
        try:
            if not np.all((ps > 0.0) & (ps < 1.0)):
                raise DomainError("p must lie strictly inside (0, 1)")
            xm = design_row(spec.mu_terms, use)
            xs = design_row(spec.sigma_terms, use)
        except DomainError:
            reasons[kept] = _DOMAIN
        else:
            est = estimates[kept]
            mu = _per_row(est[:, : spec.n_mu], xm[:, None])
            with np.errstate(over="ignore", invalid="ignore"):
                sigma = np.exp(_per_row(est[:, spec.n_mu :], xs[:, None]))
                quantiles = np.exp(mu + sigma * std_quantile(ps, spec.family))
    tally = np.bincount(reasons, minlength=1 + len(SKIP_REASONS))
    return BootstrapQuantiles(
        quantiles[:, 0] if np.ndim(p) == 0 else quantiles,
        n_boot,
        int(n_boot - tally[_KEPT]),
        dict(zip(SKIP_REASONS, map(int, tally[1:]))),
    )
