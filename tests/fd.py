"""The tests' ways into the likelihood, and central finite differences,
their check on the analytic score and observed information."""

import numpy as np

from altkit import LifeData
from altkit.fitml import _Likelihood


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
