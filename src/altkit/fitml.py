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

Set-up builds X = [x_mu | x_sig], held transposed with records failures
first, a column at a time, and splits the records into segments: runs of
identical design rows among the failures or among the censored units,
found by comparing each record's row with the one before it.  An
accelerated test puts its units on a few levels, so there are few (6 of
the 50,000 arrhenius-50k records, 8 in the insulation data; all-distinct
rows make one per record).  Only the segment rows are standardized, and
the start and the rank check run on them.  Under the normal model the
failures of a segment enter the likelihood only through their weight,
mean log time and sum of squared deviations (Nelson 1990; Meeker and
Escobar 1998), so each lognormal failed segment becomes two pseudo points
with the same three.  The records the kernels evaluate (the censored units
for the lognormal, every record for the Weibull, whose failure terms are
not quadratic in z) are taken an entry at a time: a run of a segment's
records with one log time, found by the same comparison with the log times
added, and weighted by its number of records.  A test that takes each
level's survivors off at one time (type-I censoring) makes a level's
censored units one entry: 3 entries for the 15,000 censored arrhenius-50k
units, 4 for the 39 of the insulation data.  So the likelihood has two
kinds of term: a failure's log density, for the pseudo points and the
failed entries, and a censored entry's log survival.
Each point the search visits is then evaluated in at most two passes: an
objective pass when the point is made (sigma and mu per segment, z for
the pseudo points and the entries, and the objective), and a derivative
pass for the score and the observed information together, once and only
when the point is accepted or its score is asked for: per-entry weights
summed per segment, then one product with the segments' x x'.  So a
Newton round costs one objective pass per trial point and one derivative
pass per accepted point (or tried full step, whose score decides it).

Every point carries a leading replicate axis.  A replicate is the same
records under integer row weights; a bootstrap resample is the number of
times each record was drawn, and its weighted likelihood equals that of
the duplicated records.  A record, an entry or a segment of weight 0 adds
exactly 0, even where its kernel value, mu or sigma is not finite (as
long as the products of its design row's entries are, as on a
standardized design).  The Newton loop moves all replicates together,
with one likelihood pass and one stacked solve per round, while the
ridge, the step halving and the stop are decided per replicate; every
product is taken one replicate at a time, so no replicate's result depends
on the others in its batch.  One replicate fit judges every fit by one
set of rules, the first broken rule deciding: no failure weight, a
standardized design that is not finite or loses rank under the row
weights, a scaled gradient of GRAD_TOL or more after Newton.  fit_ml is
its batch of one with unit weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .data import LifeData, LifeRecord, raise_first_bad
from .errors import (
    DomainError,
    IllPosedFitError,
    InestimableError,
    MissingVariableError,
    NonConvergenceError,
)
from .formula import Factor, ModelSpec, Term, design_matrix, design_row
from .lifetime import (
    std_cdf,
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
# profile_lambda extrapolates its start along the secant through the last
# two converged points only to an exponent at most this many times their
# spacing beyond the last; a longer reach amplifies their rounding.
_MAX_SECANT_STEP = 2.0


def _failures_first(failed: np.ndarray) -> np.ndarray:
    """The stored row order: the failed rows, then the censored, each in data order."""
    return np.concatenate([failed.nonzero()[0], (~failed).nonzero()[0]])


def _stored_design(data: LifeData, spec: ModelSpec, order: np.ndarray) -> np.ndarray:
    """`_Likelihood.xt` for the rows in `order`, built a column at a time:
    ones on the intercept rows, each covariate column gathered into its row."""
    xt, k = np.ones((spec.n_params, order.size)), spec.n_mu
    for rows, terms in ((xt[1:k], spec.mu_terms), (xt[k + 1 :], spec.sigma_terms)):
        for row, column in zip(rows, design_matrix(terms, data).T[1:] if terms else ()):
            column.take(order, out=row, mode="clip")  # in range; clip skips a buffered copy
    return xt


def _segment_bounds(xt: np.ndarray, logt: np.ndarray, n_failed: int,
                    first: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bounds of the segments of the stored design xt and of the
    entries from record `first` on: the first record of each, then the
    number of records; and where the segments from `first` on begin among
    the entries' bounds.  A segment is a maximal run of identical design
    rows among the failed or among the censored records, found by comparing
    each record's row with the one before it (a row holding nan is a
    segment of its own); an entry is a maximal run of a segment's records
    with one log time in `logt`, found by the same comparison with the log
    times added."""
    new = np.ones(xt.shape[1] + 1, dtype=bool)
    np.logical_or.reduce(xt[:, 1:] != xt[:, :-1], axis=0, out=new[1:-1])
    new[n_failed] = True  # the first censored record, if any
    entry = new[first:].copy()
    entry[1:-1] |= logt[first + 1 :] != logt[first:-1]
    entries = entry.nonzero()[0] + first
    return new.nonzero()[0], entries, new[entries].nonzero()[0]


@lru_cache
def _derivative_entries(p: int, k: int) -> np.ndarray:
    """Where the derivative pass finds the score, then the flattened p x p
    information, in its product flattened per replicate, five p * p blocks
    of x x' sums, one per weight.  The score's mu entries are in row 0 (xs[0]
    is ones, so row 0 of x x' is x) of the first weight's block, its log
    sigma entries in row 0 of the fourth's; the information's (mu, log
    sigma) and (log sigma, mu) entries are in the second's, (mu, mu) in the
    third's, (log sigma, log sigma) in the fifth's."""
    mu, entries = np.arange(p) < k, np.arange(p * p)
    block = np.where(mu[:, None] != mu, 1, np.where(mu, 2, 4)).ravel()
    found = np.concatenate([np.where(mu, 0, 3) * p * p + entries[:p], block * p * p + entries])
    found.flags.writeable = False  # shared by every call
    return found


# The attributes of a _Likelihood that hold one row per replicate.
_PER_REPLICATE = ("weights", "counts", "means", "sumsq", "offset", "y")
_PAIR = np.array([-1.0, 1.0])


class _Likelihood:
    """The design and log times of the negative log-likelihood; `at` evaluates it.

    Records are stored failures first, each block in data order; `logt`
    holds their log times and `xt` their design [x_mu | x_sig] transposed,
    a row per column, each intercept (ones) first (_stored_design).  A
    segment is a maximal run of identical design rows among the failed or
    among the censored records: `starts` holds each one's first record,
    `lengths` its size and `xs` its design row; the first n_fseg hold the
    failures.  Per replicate, `counts` holds each segment's weight W, and
    `means` and `sumsq` each failed segment's weighted mean log time (0
    where W is) and sum of squared deviations from it; `offset` is the
    failures' weighted sum of log time.

    The kernels see the censored records of the lognormal and every record
    of the Weibull an entry at a time: an entry is a maximal run of a
    segment's records with one log time, such as the units that come off
    test together at one level.  `estarts` holds each entry's first record
    and `multiplicity` its size.  The normal log density is quadratic in z,
    so a lognormal failed segment enters the likelihood, the score and the
    information as two pseudo points at mean -+ sqrt(sumsq / W) of weight
    W/2 each, which have its weight, mean and sum of squares.  `y` holds
    the log times whose z a point computes: the `pseudo` points, then the
    entries; the first n_fentries are failures.  `reps` counts the entries
    of y in each segment and `ystarts` is where each segment's begin.
    `weights` holds their weights per replicate: W/2 for a pseudo point,
    then the summed weight of each entry's records, its multiplicity unless
    `weighted` gave record weights (`replicate_weights`), which may be 0.
    """

    def __init__(self, data: LifeData, spec: ModelSpec):
        self.order = _failures_first(data.failed)
        self.xt = _stored_design(data, spec, self.order)
        self.logt = np.log(data.time)[self.order]
        self.n_failed = nf = int(np.count_nonzero(data.failed))
        self.family = spec.family
        self.n_mu = spec.n_mu
        lognormal = spec.family == "lognormal"
        first = nf if lognormal else 0  # the first record the kernels see
        bounds, entries, at = _segment_bounds(self.xt, self.logt, nf, first)
        self.starts, self.lengths = bounds[:-1], bounds[1:] - bounds[:-1]
        self.xs = self.xt.take(self.starts, axis=1)
        self.n_fseg = nfs = int(bounds.searchsorted(nf))
        self.estarts = entries[:-1]
        # float, as replicate weights are, so the passes multiply without a cast
        self.multiplicity = np.subtract(entries[1:], entries[:-1], dtype=float)
        # The segments from ks on hold the entries; at[i] is segment ks + i's first.
        self.pseudo, ks = (2 * nfs, nfs) if lognormal else (0, 0)
        self.reps = np.empty_like(self.lengths)
        self.reps[:ks] = 2
        np.subtract(at[1:], at[:-1], out=self.reps[ks:])
        self.ystarts = self.reps.cumsum() - self.reps
        self.n_fentries = self.pseudo + int(at[nfs - ks])
        self.replicate_weights = False
        self.__dict__.update(self._sums(None))

    def _with(self, **attrs) -> "_Likelihood":
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, **attrs)
        if "xs" in attrs:
            clone.__dict__.pop("xx", None)
        return clone

    @cached_property
    def xx(self) -> np.ndarray:
        """x x' flattened, one row per segment row x: X'diag(w)X is w @ xx
        for per-segment weights w."""
        xs = self.xs
        return (xs[:, None] * xs).reshape(len(xs) ** 2, -1).T

    def _sums(self, w: np.ndarray | None) -> dict:
        """The attributes in _PER_REPLICATE for record weights w, (replicates,
        records) in the stored order (None: one replicate that counts every
        record once)."""
        nf, nfs, ps = self.n_failed, self.n_fseg, self.pseudo
        logt, fstarts, ylogt = self.logt[:nf], self.starts[:nfs], self.logt[self.estarts]
        if w is None:
            counts, wy, weights = self.lengths[None], logt[None], self.multiplicity[None]
        else:
            counts, wy = np.add.reduceat(w, self.starts, axis=1), w[:, :nf] * logt
            weights = np.add.reduceat(w, self.estarts, axis=1)
        fcounts = counts[:, :nfs]
        divisor = fcounts if w is None else fcounts + (fcounts == 0.0)  # 0 / 1 where W is 0
        sums = np.add.reduceat(wy, fstarts, axis=1)
        means = sums / divisor
        sq = np.square(logt - means.repeat(self.lengths[:nfs], axis=1))
        sumsq = np.add.reduceat(sq if w is None else w[:, :nf] * sq, fstarts, axis=1)
        y = ylogt[None] if w is None else np.broadcast_to(ylogt, (len(w), ylogt.size))
        offset = np.add.reduce(sums, axis=1)
        if ps:
            pairs = means[:, :, None] + np.sqrt(sumsq / divisor)[:, :, None] * _PAIR
            y = np.concatenate([pairs.reshape(len(y), ps), y], axis=1)
            weights = np.concatenate([(fcounts * 0.5).repeat(2, axis=1), weights], axis=1)
        return dict(weights=weights, counts=counts, means=means, sumsq=sumsq,
                    offset=offset, y=y)

    def weighted(self, counts: np.ndarray) -> "_Likelihood":
        """One replicate per row of `counts` (replicates, records), the
        weight of each record given in the order of the data."""
        sums = self._sums(np.asarray(counts, dtype=float)[:, self.order])
        return self._with(replicate_weights=True, **sums)

    def replicates(self, which: np.ndarray) -> "_Likelihood":
        """The replicates selected by index or mask `which`."""
        if not self.replicate_weights:
            return self
        return self._with(**{name: getattr(self, name)[which] for name in _PER_REPLICATE})

    def weigh(self, values: np.ndarray) -> np.ndarray:
        """`values` (..., replicates, entries of y) times their weights, in
        place, then `drop_unweighted`."""
        values *= self.weights
        return self.drop_unweighted(values)

    def drop_unweighted(self, values: np.ndarray) -> np.ndarray:
        """`values` (..., replicates, entries of y), in place exactly 0 where
        a weight is 0, even where the value is not finite."""
        if self.replicate_weights:
            np.copyto(values, 0.0, where=self.weights == 0.0)
        return values

    def weigh_segments(self, values: np.ndarray) -> np.ndarray:
        """`values` (..., replicates, segments), exactly 0 in a segment of no
        weight, even where the value is not finite."""
        return np.where(self.counts > 0.0, values, 0.0) if self.replicate_weights else values

    def expand(self, a: np.ndarray) -> np.ndarray:
        """Per-segment values a (replicates, segments) repeated over the
        entries of `y`; a single column as it is, to broadcast."""
        return a if a.shape[1] == 1 else a.repeat(self.reps, axis=1)

    def at(self, theta: np.ndarray) -> "_Point":
        """The point theta, one row of parameters per replicate."""
        return _Point(self, np.asarray(theta, dtype=float))


class _Point:
    """The likelihood at one theta per replicate.  Construction computes
    sigma per segment, z for the entries of the likelihood's `y` and `nll`,
    the objective per replicate (BARRIER where it is not finite);
    `derivatives` computes the score and the observed information together
    on first use.  The density kernels see the failure entries of y, the
    survival kernels the censored ones."""

    def __init__(self, like: _Likelihood, theta: np.ndarray):
        self.like = like
        self.theta = theta
        k, nf = like.n_mu, like.n_fentries
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            logsig = _linear(theta[:, k:], like.xs[k:])
            self.sigma = np.exp(logsig)
            self.z = z = (like.y - like.expand(_linear(theta[:, :k], like.xs[:k]))
                          ) / like.expand(self.sigma)
            # Each entry's log-likelihood term but for offset; a single
            # column of log sigma stays one under the slice, and broadcasts.
            failed = std_logpdf(z[:, :nf], like.family) - like.expand(logsig)[:, :nf]
            terms = np.concatenate([failed, std_logsf(z[:, nf:], like.family)], axis=1)
            nll = like.offset - like.weigh(terms).sum(axis=1)
        self.nll = np.where(np.isfinite(nll) & np.isfinite(theta).all(axis=1), nll, BARRIER)

    @cached_property
    def derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """The score of the negative log-likelihood and the observed
        information, per replicate.  With L' and L'' the first and second
        z-derivatives per record, the score is X'w with w = L'/sigma (mu) and
        L'z, plus 1 on failures (log sigma); the information's (mu, mu),
        (mu, log sigma) and (log sigma, log sigma) blocks are X'diag(w)X
        with w = -L''/sigma^2, -(L''z + L')/sigma and -(L''z^2 + L'z).  The
        records of a segment share their row of X and their sigma, so each
        w is summed per segment, and one product with `xx` gives every
        X'diag(w)X."""
        like, z = self.like, self.z
        k, p, nf = like.n_mu, len(like.xs), like.n_fentries
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            # Per entry of y: L', L''z + L', L'', L'z (plus 1 on failures),
            # (L''z + L')z, each times its weight (L' and L'' are, so the
            # products are).
            rows, w = np.empty((5,) + z.shape), like.weights
            l1, c, l2, l1z, cz = rows
            zf, zc = z[:, :nf], z[:, nf:]
            np.multiply(std_dlogpdf(zf, like.family), w[:, :nf], out=l1[:, :nf])
            np.multiply(std_d2logpdf(zf, like.family), w[:, :nf], out=l2[:, :nf])
            dlogsf = std_dlogsf(zc, like.family)
            np.multiply(dlogsf, w[:, nf:], out=l1[:, nf:])
            np.multiply(std_d2logsf(zc, like.family, dlogsf=dlogsf), w[:, nf:],
                        out=l2[:, nf:])
            np.multiply(l1, z, out=l1z)
            l1z[:, :nf] += w[:, :nf]
            np.multiply(l2, z, out=c)
            c += l1
            np.multiply(c, z, out=cz)
            like.drop_unweighted(rows)
            # Their sums per segment, then the docstring's w (the information's
            # negated): L' and L''z + L' over sigma, L'' over sigma^2.
            seg = np.add.reduceat(rows, like.ystarts, axis=2)
            seg[:3] /= self.sigma
            seg[2] /= self.sigma
            m = like.weigh_segments(seg).transpose(1, 0, 2) @ like.xx  # (replicates, 5, p * p)
        m = m.reshape(len(m), -1).take(_derivative_entries(p, k), axis=1)
        return m[:, :p], np.negative(m[:, p:]).reshape(-1, p, p)


def _linear(theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """theta[i] @ xs per replicate; xs[0] is ones, so for one row theta
    itself, a single column that broadcasts."""
    return theta if len(xs) == 1 else _per_row(theta, xs)


def _per_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b for each row of a, as a stack of one-row products, so that
    no row's value depends on the rows beside it (a two-dimensional
    product's rounding can depend on the row's place in the block)."""
    return (a[:, None, :] @ b)[:, 0, :]


def _params(values: Sequence[float], spec: ModelSpec, what: str) -> np.ndarray:
    """`values` as a float array, or DomainError unless it has spec.n_params entries."""
    values = np.asarray(values, dtype=float)
    if values.size != spec.n_params:
        raise DomainError(f"{what} must have length {spec.n_params}")
    return values


def likelihood_gradient(
    data: Sequence[LifeRecord], spec: ModelSpec, theta: Sequence[float]
) -> np.ndarray:
    """The analytic score of the negative log-likelihood at theta (mu, then log-sigma)."""
    theta = _params(theta, spec, "theta")
    return _Likelihood(LifeData.of(data), spec).at(theta[None]).derivatives[0][0]


def _default_init(like: _Likelihood) -> np.ndarray:
    """The deterministic start, one row per replicate, its records counted
    by their weights: OLS of log time on the mu design over the failed
    records; log sigma from the residual spread inflated by the reciprocal
    of the failed fraction (heavy censoring hides spread).  Both come from
    the failed segments: the OLS of their mean log times on their rows, each
    scaled by the square root of its weight, has the failed records' normal
    equations, and their residual sum of squares is its own plus the
    segments' sums of squares."""
    k, nfs = like.n_mu, like.n_fseg
    xf = like.xs[:k, :nfs].T
    theta = np.zeros((len(like.counts), len(like.xs)))
    for row, w, means, sumsq in zip(theta, like.counts, like.means, like.sumsq):
        r = np.sqrt(w[:nfs])
        beta, *_ = np.linalg.lstsq(xf * r[:, None], means * r, rcond=None)
        resid = r * (means - xf @ beta)
        n_failed, n = float(w[:nfs].sum()), float(w.sum())
        s0 = max(math.sqrt((float(sumsq.sum()) + float(resid @ resid)) / max(1.0, n_failed - k)),
                 1e-3)
        row[:k] = beta
        row[k] = math.log(s0 / (n_failed / n))
    return theta


def _rank_deficient(xs: np.ndarray, roots: np.ndarray, n: int) -> np.ndarray:
    """Whether a design of n records is not finite or loses rank under each
    replicate's record weights, by np.linalg.matrix_rank's rule (a
    singular value at most max(n, columns) * eps times the largest is 0)
    applied to its segment rows scaled by the square roots of their
    weights.  `xs` holds one segment row per column and `roots`
    (replicates, segments) those square roots: the rows so scaled have the
    Gram matrix, so the singular values, of the records scaled by theirs.
    Their SVD rounds otherwise, so where the smallest singular value lies
    within a few percent of the threshold the verdict can differ from
    matrix_rank's on the scaled records (9 of 120,000 random designs).  One
    column's singular value is its norm, which is finite on a standardized
    design, so it has rank 1 exactly where some weighted entry is not 0."""
    x = roots[:, :, None] * xs.T
    if not np.isfinite(xs).all():
        return np.ones(len(x), dtype=bool)
    if len(xs) == 1:
        return ~x.any(axis=(1, 2))
    s = np.linalg.svd(x, compute_uv=False)  # in descending order
    return (x.shape[1] < len(xs)) | ~(s[:, -1] > s[:, 0] * (max(n, len(xs)) * np.finfo(float).eps))


class _ColumnScales:
    """The centre m, spread s and range of each covariate row of a stored
    design, and the affine maps between its parameters and those of the
    standardized design x' = (x - m)/s, which `standardized` holds for the
    columns `xs` of the design when they are given: a coefficient is b =
    b'/s, and its intercept gains -b'm/s.  Each row is scaled by a power
    of two 2^e near its largest magnitude first, so its mean and spread
    (np.mean's and np.std's arithmetic) do not overflow; a row that is not
    finite, or whose centred values overflow, standardizes to inf or nan,
    which the rank check rejects.  Intercepts are untouched."""

    def __init__(self, xt: np.ndarray, n_mu: int, xs: np.ndarray | None = None):
        p, n = xt.shape
        self.exponents = np.zeros(p, dtype=np.intc)
        self.to_original, self.from_original = np.eye(p), np.eye(p)
        self.ranges = []  # (lo, hi) per covariate row
        self.standardized = out = None if xs is None else np.ones(xs.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in (j for j in range(1, p) if j != n_mu):
                lo, hi = xt[j].min(initial=np.inf), xt[j].max(initial=-np.inf)
                _, e = np.frexp(max(-lo, hi))  # of the largest magnitude (nan if any is)
                scaled = np.ldexp(xt[j], -e)
                mean = scaled.sum() / n
                scaled -= mean
                m = np.ldexp(mean, e)
                # A constant row's s is 0, then 1; the rank check rejects it.
                s = np.ldexp(np.sqrt(np.square(scaled, out=scaled).sum() / n), e) or 1.0
                i = 0 if j < n_mu else n_mu  # its intercept
                self.exponents[j] = e
                self.to_original[j, j], self.to_original[i, j] = 1.0 / s, -m / s
                self.from_original[j, j], self.from_original[i, j] = s, m
                self.ranges.append((float(lo), float(hi)))
                if out is not None:
                    np.divide(np.subtract(xs[j], m, out=out[j]), s, out=out[j])

    def original_params(self, theta_std: np.ndarray) -> np.ndarray:
        """Original-scale parameters, one row per replicate."""
        return _per_row(theta_std, self.to_original.T)

    def standardized_params(self, theta: np.ndarray) -> np.ndarray:
        return _per_row(theta, self.from_original.T)

    def scaled_covariance(self, cov_std: np.ndarray) -> np.ndarray:
        """The original parameters' covariance with row and column i times
        2^exponents[i], the power of two its column was scaled by: none of
        its entries underflows where the covariance's own would."""
        t = np.ldexp(self.to_original, self.exponents[:, None])
        return t @ cov_std @ t.T


class _Standardizer(_ColumnScales):
    """`like` on the standardized design, where the Hessian is well
    conditioned and the scaled-gradient stopping rule does not depend on
    covariate units: the column statistics come from every record, and only
    the segment rows are standardized (the record design is dropped)."""

    def __init__(self, like: _Likelihood):
        super().__init__(like.xt, like.n_mu, like.xs)
        self.like = like._with(xt=None, xs=self.standardized)


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
    for i in () if (decrease > 0.0).all() else np.flatnonzero(~(decrease > 0.0)):
        ridge = 1e-8 * (float(np.max(np.abs(np.diag(h[i])))) or 1.0)
        for _ in range(11):
            with np.errstate(invalid="ignore"):  # an inf ridge times eye's zeros: nan, no step
                step = _solve(h[i : i + 1] + ridge * np.eye(g.shape[1]), g[i : i + 1])[0]
            gain = float(g[i] @ step)
            if gain > 0.0:
                steps[i], decrease[i] = step, gain
                break
            ridge *= 10.0
    return steps, decrease


class _Solution:
    """Where the Newton loop has left each replicate: theta, the objective,
    score and Hessian there (which serve the next step and the final
    covariance), and the steps taken."""

    def __init__(self, start: _Point):
        self.theta, self.nll = start.theta.copy(), start.nll  # theta is the caller's
        self.score, self.hessian = start.derivatives
        self.steps = np.zeros(len(self.theta), dtype=int)

    def accept(self, idx: np.ndarray, trial: _Point, keep: np.ndarray) -> np.ndarray:
        """Move replicates idx[keep] to their trial points, the rows of
        `trial` where `keep` is true; idx is ascending.  Returns the indices
        of those moved whose score is finite there, ascending."""
        if not keep.any():
            return idx[keep]
        new = (trial.theta, trial.nll, *trial.derivatives)
        if not keep.all():
            idx, new = idx[keep], [a[keep] for a in new]
        if idx.size == self.steps.size:  # every replicate moves: keep the trial's arrays
            self.theta, self.nll, self.score, self.hessian = new
        else:
            for mine, a in zip((self.theta, self.nll, self.score, self.hessian), new):
                mine[idx] = a
        self.steps[idx] += 1
        return idx[np.isfinite(new[2]).all(axis=1)]

    def scaled_grad(self) -> np.ndarray:
        return (np.abs(self.score) * np.maximum(1.0, np.abs(self.theta))).max(
            axis=1) / np.maximum(1.0, np.abs(self.nll))


def _newton(like: _Likelihood, theta: np.ndarray) -> _Solution:
    """Damped Newton from theta, one row per replicate.  The replicates
    move together, one likelihood pass and one stacked solve per round,
    but each has its own ridge, step length and stop."""
    sol = _Solution(like.at(theta))
    # The replicates still moving, each having taken one step per round.
    idx = np.flatnonzero(np.isfinite(sol.score).all(axis=1))
    for _ in range(NEWTON_STEPS):
        if not idx.size:
            break
        # The rows of idx, taken before any moves (the arrays themselves for all).
        mine = (sol.theta, sol.nll, sol.score, sol.hessian)
        theta, nll, g, h = mine if idx.size == sol.steps.size else [a[idx] for a in mine]
        step, decrease = _descent_steps(h, g)
        bound = DECREMENT_TOL * np.maximum(1.0, np.abs(nll))
        search = decrease >= bound  # a decrease f can resolve (so positive)
        if not search.all():
            last = (decrease > 0.0) & (decrease < bound)
            if last.any():
                # f cannot resolve the decrease the quadratic model predicts
                # (half of g @ step) but the score can: take the full step
                # where it shrinks the score, then stop.
                trial = like.replicates(idx[last]).at(theta[last] - step[last])
                shrinks = np.abs(trial.derivatives[0]).max(axis=1) < np.abs(g[last]).max(axis=1)
                sol.accept(idx[last], trial, shrinks)
            idx, theta, nll, step = idx[search], theta[search], nll[search], step[search]
        # Only a replicate that a step below lowers, to a finite score, keeps moving.
        alpha, moved = 1.0, [idx[:0]]
        while idx.size and alpha > 1e-10:
            trial = like.replicates(idx).at(theta - alpha * step)
            lower = trial.nll < nll
            moved.append(sol.accept(idx, trial, lower))
            if lower.all():
                break
            idx, theta, nll, step = idx[~lower], theta[~lower], nll[~lower], step[~lower]
            alpha *= 0.5
        idx = moved[-1] if len(moved) < 3 else np.sort(np.concatenate(moved))  # ascending
    return sol


SKIP_REASONS = ("inestimable", "ill_posed", "non_converged", "domain")
# A replicate's skip reason: _KEPT, or 1 + its index in SKIP_REASONS.
_KEPT, _INESTIMABLE, _ILL_POSED, _NON_CONVERGED, _DOMAIN = range(1 + len(SKIP_REASONS))


def _fit_replicates(
    like: _Likelihood, theta: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, _Solution | None]:
    """Fit every replicate of the standardized `like` from `theta` (one
    row for all; _default_init when None) and give each one's reason: the
    first of _INESTIMABLE, _ILL_POSED and _NON_CONVERGED whose rule it
    breaks, else _KEPT.  Returns the reasons, the indices of the
    replicates fitted and their _Solution (None when none was)."""
    k, n = like.n_mu, like.logt.size
    roots = np.sqrt(like.counts)
    ill = _rank_deficient(like.xs[:k], roots, n) | _rank_deficient(like.xs[k:], roots, n)
    failed = like.counts[:, : like.n_fseg].sum(axis=1)
    reasons = np.where(failed == 0.0, _INESTIMABLE, np.where(ill, _ILL_POSED, _KEPT))
    fit = np.flatnonzero(reasons == _KEPT)
    if not fit.size:
        return reasons, fit, None
    part = like.replicates(fit)
    sol = _newton(part, _default_init(part) if theta is None else np.repeat(theta, fit.size, axis=0))
    reasons[fit[~(sol.scaled_grad() < GRAD_TOL)]] = _NON_CONVERGED
    return reasons, fit, sol


@dataclass
class FitResult:
    """A converged (or best-so-far) censored-ML fit.

    `covariance` is the estimates' covariance; on a huge or tiny covariate
    column its entries can underflow.  `scaled_covariance` is the same
    matrix with row and column i times 2^scale_exponents[i], which does
    not underflow.  `se` and quantile_at_use's standard error are taken
    from it, with the powers of two undone after the square root, so a
    standard error is positive even where its variance is below the
    smallest double."""

    spec: ModelSpec
    param_names: tuple[str, ...]
    estimates: np.ndarray
    loglik: float
    covariance: np.ndarray
    se: np.ndarray
    scaled_covariance: np.ndarray
    scale_exponents: np.ndarray
    converged: bool
    iterations: int  # Newton steps taken
    warnings: list[str] = field(default_factory=list)
    n_records: int = 0
    n_failed: int = 0
    mu_column_ranges: tuple[tuple[float, float], ...] = ()
    sigma_column_ranges: tuple[tuple[float, float], ...] = ()

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


def fit_ml(
    data: Sequence[LifeRecord],
    spec: ModelSpec,
    init: Sequence[float] | None = None,
) -> FitResult:
    """Fit by maximum likelihood; deterministic given data, spec and init.

    Raises InestimableError when no record is a failure, IllPosedFitError on
    a design that is rank deficient or not finite (a term overflows), and
    NonConvergenceError (carrying the best-so-far FitResult in `.result`)
    when the Newton loop stops short of the scaled-gradient tolerance.
    """
    data = LifeData.of(data)
    if not data:
        raise InestimableError("no records")
    init = None if init is None else _params(init, spec, "init")
    std, k = _Standardizer(_Likelihood(data, spec)), spec.n_mu
    (reason,), _, sol = _fit_replicates(
        std.like, None if init is None else std.standardized_params(init[None])
    )
    if reason == _INESTIMABLE:
        raise InestimableError(
            "all records are censored; the model parameters are inestimable"
        )
    if reason == _ILL_POSED:
        xs, roots = std.like.xs, np.sqrt(std.like.counts)
        design, xs = (("mu", xs[:k]) if _rank_deficient(xs[:k], roots, len(data))[0]
                      else ("sigma", xs[k:]))
        if not np.isfinite(xs).all():
            raise IllPosedFitError(
                f"{design} design matrix is not finite on these data (a term overflows)")
        raise IllPosedFitError(f"{design} design matrix is rank deficient on these data")

    warnings: list[str] = []
    hess = sol.hessian[0]
    if not np.isfinite(hess).all():
        cov_std = np.full_like(hess, np.nan)
        warnings.append("observed information is not finite; covariance is undefined")
    else:
        try:
            cov_std = np.linalg.inv(hess)
        except np.linalg.LinAlgError:
            cov_std = np.linalg.pinv(hess)
            warnings.append("observed information is singular; covariance is a pseudo-inverse")
        # Congruence preserves eigenvalue signs, so test definiteness where the
        # parameters are O(1) instead of on the unit-dependent original scale.
        min_eig = float(np.linalg.eigvalsh(0.5 * (cov_std + cov_std.T)).min())
        if min_eig < -1e-8:
            warnings.append(
                f"covariance is not positive semidefinite (min eigenvalue {min_eig:.3e})"
            )
    scaled = std.scaled_covariance(cov_std)
    scaled = 0.5 * (scaled + scaled.T)
    e = std.exponents
    result = FitResult(
        spec=spec,
        param_names=spec.param_names,
        estimates=std.original_params(sol.theta)[0],
        loglik=-float(sol.nll[0]),
        covariance=np.ldexp(scaled, -(e[:, None] + e)),
        se=np.ldexp(np.sqrt(np.maximum(scaled.diagonal(), 0.0)), -e),
        scaled_covariance=scaled,
        scale_exponents=e,
        converged=bool(reason == _KEPT),
        iterations=int(sol.steps[0]),
        warnings=warnings,
        n_records=len(data),
        n_failed=std.like.n_failed,
        mu_column_ranges=tuple(std.ranges[: k - 1]),
        sigma_column_ranges=tuple(std.ranges[k - 1 :]),
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


def _check_probability(p) -> None:
    """DomainError unless p (a number or an array) lies strictly inside (0, 1)."""
    if not all(0.0 < q < 1.0 for q in np.atleast_1d(p)):
        raise DomainError("p must lie strictly inside (0, 1)")


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
    _check_probability(p)
    spec = fit.spec
    xm = design_row(spec.mu_terms, use)
    xs = design_row(spec.sigma_terms, use)
    beta = fit.estimates[: spec.n_mu]
    s = fit.estimates[spec.n_mu :]
    mu = float(xm @ beta)
    sigma = _exp(float(xs @ s))
    zp = float(std_quantile(p, spec.family))
    log_tp = mu + zp * sigma
    grad = np.ldexp(np.concatenate([xm, zp * sigma * xs]), -fit.scale_exponents)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, reported as such
        var_log = float(grad @ fit.scaled_covariance @ grad)
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
    quantile.  A point that fails to converge is flagged, not fatal; a p
    outside (0, 1) raises DomainError before anything is fitted.

    Each fit starts in standardized coordinates, where the solution moves
    smoothly with the exponent even though the transformed column changes
    scale, at the extrapolation w1 + (w1 - w0)(lam - lam1)/(lam1 - lam0)
    through the solutions w0, w1 of the last two converged points lam0,
    lam1 (O(h^2) from the solution for a grid step h; w1 lies O(h) away),
    converted to the original scale with this point's column statistics,
    which fit_ml's own set-up code computes from one row order per sweep.
    It starts from w1 alone when only one point has converged, when lam1 ==
    lam0 (a grid may repeat an exponent), or when lam lies more than
    _MAX_SECANT_STEP spacings away from lam1; the first fit, and every fit
    before a point has converged, starts cold.
    """
    data = LifeData.of(data)
    spec.boxcox_lambda()  # validates that the model has a boxcox term
    _check_probability(p)
    lams = default_profile_grid() if grid is None else np.asarray(grid, dtype=float)
    nan = float("nan")
    points: list[ProfilePoint] = []
    warm: list[tuple[float, np.ndarray]] = []  # (lam, standardized estimates), last 2 converged
    order = _failures_first(data.failed)
    for lam in map(float, lams):
        lspec = spec.with_boxcox_lambda(lam)
        start = None
        if warm:
            (lam0, w0), (lam1, w1) = warm[0], warm[-1]
            step = (lam - lam1) / (lam1 - lam0) if lam1 != lam0 else math.inf
            start = w1 + (w1 - w0) * step if abs(step) <= _MAX_SECANT_STEP else w1
        try:
            std = _ColumnScales(_stored_design(data, lspec, order), lspec.n_mu)
            fit = fit_ml(data, lspec, None if start is None else std.original_params(start)[0])
        except NonConvergenceError as err:
            fit = err.result
        except (IllPosedFitError, InestimableError, DomainError):
            points.append(ProfilePoint(lam, nan, nan, nan, nan, False))
            continue
        if fit.converged:
            warm = [*warm[-1:], (lam, std.standardized_params(fit.estimates[None]))]
        try:
            q = quantile_at_use(fit, use, p)
            points.append(
                ProfilePoint(lam, fit.loglik, q.quantile, q.lower, q.upper, fit.converged))
        except (MissingVariableError, DomainError):
            points.append(ProfilePoint(lam, fit.loglik, nan, nan, nan, fit.converged))
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
    data = LifeData.of(data)
    rules: list = []
    levels = set(data.variable("cf", rules).tolist())
    raise_first_bad(rules, data.lines)
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
    p_value = 2.0 * float(std_cdf(-abs(wald), "lognormal"))
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
    replicates of one likelihood, standardized with the full sample's column
    statistics and all starting from its estimates (from the default start
    when its fit fails), in blocks of bounded size whose resamples are drawn
    at once.  Fewer than 2 resamples or a negative seed raise DomainError.
    """
    if n_boot < 2:
        raise DomainError(f"the bootstrap needs at least 2 resamples, got {n_boot}")
    if seed < 0:
        raise DomainError(f"the bootstrap seed must be >= 0, got {seed}")
    data = LifeData.of(data)
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
            # One draw of every resample in the block, counted per row of
            # draws by offsetting each row into its own n bins.
            draws = rng.integers(0, n, size=(min(block, n_boot - lo), n))
            draws += n * np.arange(len(draws))[:, None]
            counts = np.bincount(draws.ravel(), minlength=draws.size).reshape(draws.shape)
            hi = lo + len(counts)
            reasons[lo:hi], fit, sol = _fit_replicates(std.like.weighted(counts), start)
            if fit.size:
                estimates[lo + fit] = std.original_params(sol.theta)

    kept = reasons == _KEPT
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    quantiles = np.empty((0, ps.size))
    if kept.any():
        try:
            _check_probability(ps)
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
