"""Exploratory summaries of stochastic explanations.

Because each instance's attributions are jointly Gaussian, their absolute
values follow a folded Gaussian: global importance can either average the
folded-normal marginal means (uncertainty-aware) or the absolute values of
the means (uncertainty-blind).  The covariance additionally supports
correlation matrices and a partial-correlation graphical model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .explain import ExplanationBatch

SMALLEST_NORMAL = np.finfo(float).tiny


@dataclass(frozen=True)
class GlobalImportance:
    """Uncertainty-aware vs uncertainty-blind global feature importance."""

    mean_abs_ssv: np.ndarray
    abs_mean_ssv: np.ndarray


def folded_mean(mu: float | np.ndarray, sigma: float | np.ndarray) -> float | np.ndarray:
    """Mean of |N(mu, sigma^2)|, elementwise; reduces to |mu| where sigma == 0.

    Scalar inputs give a float, arrays an array of their broadcast shape.
    The normal CDF is ``numerics.ndtr``, scipy.special's compiled ufunc.
    """
    mu, sigma = np.broadcast_arrays(np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float))
    if np.any(sigma < 0):
        raise ValueError("sigma must be non-negative")
    with np.errstate(all="ignore"):     # every branch is computed; each entry keeps its own
        mu_sq, two_var = mu * mu, 2.0 * sigma * sigma
        # sigma^2 underflows: divide before squaring
        spread = np.where(two_var < SMALLEST_NORMAL, np.exp(-(mu / sigma) ** 2 / 2.0),
                          np.exp(-mu_sq / two_var))
        # past |mu| = 38 sigma the first term is below half an ulp of the second,
        # and mu^2 / (2 sigma^2) overflows once sigma^2 is denormal: skip it
        spread[mu_sq > 750.0 * two_var] = 0.0
        out = sigma * np.sqrt(2.0 / np.pi) * spread + mu * (1.0 - 2.0 * numerics.ndtr(-mu / sigma))
    out = np.where(sigma == 0.0, np.abs(mu), out)
    return float(out) if out.ndim == 0 else out


def average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of a vector's entries, ties sharing their average rank.

    The same values as ``scipy.stats.rankdata(x)`` (method "average"),
    NaN propagating to every rank; each rank is a whole or half integer,
    so the result is exact.
    """
    x = np.asarray(x, dtype=float).ravel()
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])   # first index of each tie group
    ends = np.r_[starts[1:], x.size]                          # one past its last index
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def importance(means: np.ndarray, sds: np.ndarray) -> GlobalImportance:
    """Folded-normal and absolute means per feature, averaged over the rows."""
    d = means.shape[1]
    folded = folded_mean(means, sds)
    # column by column: mean(axis=0) sums in another order and would change
    # the last bit of figures `ssvkit analyze` has always written
    return GlobalImportance(
        mean_abs_ssv=np.array([folded[:, i].mean() for i in range(d)]),
        abs_mean_ssv=np.array([np.abs(means[:, i]).mean() for i in range(d)]),
    )


def global_importance(batch: ExplanationBatch) -> GlobalImportance:
    """Average folded-normal means and absolute means across instances."""
    return importance(batch.means, batch.stds())


def value_quantiles(X: np.ndarray) -> np.ndarray:
    """Midpoint-convention quantile of every entry of X within its column."""
    return np.stack([(average_ranks(X[:, i]) - 0.5) / X.shape[0]
                     for i in range(X.shape[1])], axis=1)


def correlation_matrix(cov: np.ndarray) -> np.ndarray:
    """Normalize a covariance to correlations; degenerate rows become isolated."""
    cov = np.asarray(cov, dtype=float)
    diag = np.diag(cov).copy()
    degenerate = diag < 1e-12
    safe = np.where(degenerate, 1.0, diag)
    corr = cov / np.sqrt(np.outer(safe, safe))
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    np.fill_diagonal(corr, 1.0)
    return numerics.symmetrize(corr)


def precision_graph(cov: np.ndarray, sparsity: float = 0.9) -> list[tuple[int, int, float]]:
    """Edges of the Gaussian graphical model after sparsity thresholding.

    Computes partial correlations from the precision matrix of cov + 1e-8*I and
    keeps the edges whose magnitude is nonzero and at least the sparsity
    quantile of all off-diagonal magnitudes; sparsity 0.9 keeps roughly the
    top 10 percent.
    """
    if not (0.0 <= sparsity < 1.0):
        raise ValueError("sparsity must lie in [0, 1)")
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0]
    P = numerics.cholesky_psd(cov, shift=1e-8).solve(np.eye(d))
    denom = np.sqrt(np.outer(np.diag(P), np.diag(P)))
    rho = -P / denom
    np.fill_diagonal(rho, 1.0)
    iu = np.triu_indices(d, k=1)
    mags = np.abs(rho[iu])
    if mags.size == 0:
        return []
    cutoff = _quantile(mags, sparsity)
    edges = []
    for i, j, r in zip(iu[0], iu[1], rho[iu]):
        if abs(r) > 0.0 and abs(r) >= cutoff:
            edges.append((int(i), int(j), float(r)))
    return edges


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` bit for bit (its "linear" method) for a non-empty
    1-D float array and 0 <= q <= 1, without np.quantile's import of numpy.ma."""
    s = np.sort(values)
    virtual = (s.size - 1) * q
    lo = math.floor(virtual)
    # past the last index numpy interpolates the maximum with itself
    lo, hi = (lo, lo + 1) if lo < s.size - 1 else (-1, -1)
    a, b, t = s[lo], s[hi], virtual - lo
    out = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    return float(s[-1] if np.isnan(s[-1]) else out)     # a NaN sorts last


def beeswarm_export(means: np.ndarray, sds: np.ndarray,
                    X: np.ndarray) -> list[tuple[int, int, float, float, float, float]]:
    """Instance-major beeswarm rows (instance k, feature i, mean, sd, X[k, i],
    midpoint-convention quantile of X[k, i] within column i)."""
    if not means.shape == sds.shape == X.shape:
        raise ValueError(f"means {means.shape}, sds {sds.shape} and instances {X.shape} "
                         "differ in shape")
    q = value_quantiles(X)
    return [(k, i, float(means[k, i]), float(sds[k, i]), float(X[k, i]), float(q[k, i]))
            for k, i in np.ndindex(*X.shape)]
