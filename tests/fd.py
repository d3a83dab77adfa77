"""The tests' ways into the likelihood, a plain per-record reference for
it, and central finite differences, their check on the analytic score and
observed information."""

import numpy as np

from altkit import LifeData, design_matrix
from altkit.fitml import _Likelihood
from altkit.lifetime import (
    std_d2logpdf,
    std_d2logsf,
    std_dlogpdf,
    std_dlogsf,
    std_logpdf,
    std_logsf,
)


def likelihood(data, spec) -> _Likelihood:
    """The likelihood of `data`, records or a LifeData, under `spec`."""
    return _Likelihood(LifeData.of(data), spec)


def nll(like: _Likelihood, theta) -> float:
    """The negative log-likelihood of `like`'s one replicate at theta."""
    return float(like.at(np.atleast_2d(theta)).nll[0])


def score(like: _Likelihood, theta) -> np.ndarray:
    """The analytic score of `like`'s one replicate at theta."""
    return like.at(np.atleast_2d(theta)).derivatives[0][0]


def information(like: _Likelihood, theta) -> np.ndarray:
    """The observed information of `like`'s one replicate at theta."""
    return like.at(np.atleast_2d(theta)).derivatives[1][0]


def reference(data, spec, theta, weights=None):
    """The negative log-likelihood, its score and the observed information
    at theta, summed record by record from the lifetime kernels, each record
    counted by its weight in `weights` (one per record, in data order; 1
    when None).  A record of weight 0 adds exactly 0 to each."""
    data = LifeData.of(data)
    k, theta = spec.n_mu, np.asarray(theta, dtype=float)
    xm, xs = design_matrix(spec.mu_terms, data), design_matrix(spec.sigma_terms, data)
    w = np.ones(len(data)) if weights is None else np.asarray(weights, dtype=float)
    failed, fam = data.failed, spec.family
    nll, score, info = 0.0, np.zeros(theta.size), np.zeros((theta.size, theta.size))
    with np.errstate(all="ignore"):
        for i in np.flatnonzero(w > 0.0):
            x, logsig = np.concatenate([xm[i], xs[i]]), xs[i] @ theta[k:]
            sigma = np.exp(logsig)
            y = np.log(data.time[i])
            z = (y - xm[i] @ theta[:k]) / sigma
            if failed[i]:
                ll = std_logpdf(z, fam) - logsig - y
                l1, l2 = std_dlogpdf(z, fam), std_d2logpdf(z, fam)
            else:
                ll, l1 = std_logsf(z, fam), std_dlogsf(z, fam)
                l2 = std_d2logsf(z, fam)
            # d/dmu and d/dlog sigma of -ll, then of those.
            grad = np.concatenate([l1 / sigma * x[:k], (l1 * z + failed[i]) * x[k:]])
            hess = np.empty_like(info)
            hess[:k, :k] = -l2 / sigma**2 * np.outer(x[:k], x[:k])
            hess[k:, :k] = -(l2 * z + l1) / sigma * np.outer(x[k:], x[:k])
            hess[:k, k:] = hess[k:, :k].T
            hess[k:, k:] = -(l2 * z**2 + l1 * z) * np.outer(x[k:], x[k:])
            nll, score, info = nll - w[i] * ll, score + w[i] * grad, info + w[i] * hess
    return float(nll), score, info


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
