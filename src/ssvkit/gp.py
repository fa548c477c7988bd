"""Exact Gaussian-process regression evaluated at a designated inducing set.

The explainers never see the training data directly: they consume the
posterior mean vector and covariance matrix at the inducing rows, so any
model producing that interface is interchangeable.  Here the posterior is
computed by exact Gaussian conditioning on the full training set and the
inducing rows are a subset of the training inputs, selected either
uniformly at random or by greedy farthest-point traversal.  ``fit``
chooses kernel and noise by a likelihood grid search and conditions once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import kernels, numerics
from .errors import CountOutOfRange, JitterExceeded
from .kernels import KernelParams


@dataclass(frozen=True)
class Dataset:
    """A regression dataset: features and targets."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y row counts differ")
        if X.shape[0] < 1:
            raise ValueError("dataset must contain at least one row")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite entries")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class GPPosterior:
    """Posterior mean and covariance of a GP at its inducing rows; ``cov_lower`` factors it once."""

    inducing_points: np.ndarray
    mean_at_inducing: np.ndarray
    cov_at_inducing: np.ndarray
    kernel: KernelParams
    noise: float

    def __post_init__(self):
        Z = np.asarray(self.inducing_points, dtype=float)
        mean = np.asarray(self.mean_at_inducing, dtype=float)
        cov = np.asarray(self.cov_at_inducing, dtype=float)
        object.__setattr__(self, "inducing_points", Z)
        object.__setattr__(self, "mean_at_inducing", mean)
        object.__setattr__(self, "cov_at_inducing", cov)
        if Z.ndim != 2 or Z.shape[0] < 1 or Z.shape[1] != self.kernel.dim:
            raise ValueError(f"inducing points must be an m x {self.kernel.dim} matrix "
                             f"(the kernel's dimension), got shape {Z.shape}")
        m = Z.shape[0]
        if mean.shape != (m,):
            raise ValueError(f"posterior mean must have length {m}, got shape {mean.shape}")
        if cov.shape != (m, m):
            raise ValueError(f"posterior covariance must be {m} x {m}, got shape {cov.shape}")
        if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(mean))
                and np.all(np.isfinite(cov))):
            raise ValueError("posterior contains non-finite entries")
        if np.max(np.abs(cov - cov.T)) > 1e-8 * np.max(np.abs(cov)):
            raise ValueError("posterior covariance is not symmetric")

    @property
    def n_inducing(self) -> int:
        return self.inducing_points.shape[0]

    @property
    def d(self) -> int:
        return self.inducing_points.shape[1]

    @cached_property
    def cov_lower(self) -> np.ndarray:
        """Cholesky factor of the covariance within a 1e-8 jitter (else JitterExceeded);
        exactly zero for a zero covariance, which jitter would lift to sqrt(jitter)."""
        if not np.any(self.cov_at_inducing):
            return np.zeros_like(self.cov_at_inducing)
        return numerics.cholesky_psd(self.cov_at_inducing, max_jitter=1e-8).lower

    def to_json(self) -> str:
        from .explain import dumps      # not at module import: explain imports gp

        return dumps({
            "inducing_points": self.inducing_points,
            "mean_at_inducing": self.mean_at_inducing,
            "cov_at_inducing": self.cov_at_inducing,
            "kernel": {
                "variance": self.kernel.variance,
                "lengthscales": self.kernel.lengthscales,
            },
            "noise": self.noise,
        })

    @classmethod
    def from_json(cls, text: str) -> "GPPosterior":
        doc = json.loads(text)
        posterior = cls(
            inducing_points=np.asarray(doc["inducing_points"], dtype=float),
            mean_at_inducing=np.asarray(doc["mean_at_inducing"], dtype=float),
            cov_at_inducing=np.asarray(doc["cov_at_inducing"], dtype=float),
            kernel=KernelParams(
                variance=float(doc["kernel"]["variance"]),
                lengthscales=np.asarray(doc["kernel"]["lengthscales"], dtype=float),
            ),
            noise=float(doc["noise"]),
        )
        try:
            posterior.cov_lower                     # factoring it is the PSD check
        except JitterExceeded:
            raise ValueError("posterior covariance is not positive semi-definite "
                             "within 1e-8") from None
        return posterior


def select_inducing(data: Dataset, count: int, strategy: str = "farthest_point",
                    seed: int = 0) -> np.ndarray:
    """Pick ``count`` inducing rows from the training set.

    ``uniform`` samples without replacement, ``farthest_point`` greedily
    maximizes the minimum Euclidean distance starting from the point nearest
    the data mean.  Every row is ``gp.fit``'s ``inducing=None``.
    """
    n = data.n
    if not (1 <= count <= n):
        raise CountOutOfRange(f"count must be in [1, {n}], got {count}")
    if strategy == "uniform":
        rng = np.random.default_rng(seed)
        return np.sort(rng.choice(n, size=count, replace=False))
    if strategy == "farthest_point":
        return farthest_point_indices(data.X, count)
    raise ValueError(f"unknown strategy {strategy!r}")


def farthest_point_indices(X: np.ndarray, count: int) -> np.ndarray:
    """Rows of X chosen greedily, each maximizing its minimum Euclidean
    distance to those before it, starting from the row nearest the mean."""
    center = X.mean(axis=0)
    start = int(np.argmin(np.linalg.norm(X - center, axis=1)))
    chosen = [start]
    min_dist = np.linalg.norm(X - X[start], axis=1)
    while len(chosen) < count:
        nxt = int(np.argmax(min_dist))
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(X - X[nxt], axis=1))
    return np.array(chosen, dtype=int)


def _require_noise(noise: float) -> None:
    if not (np.isfinite(noise) and noise > 0):
        raise ValueError(f"noise must be positive and finite, got {noise!r}")


def fit_exact(data: Dataset, kernel: KernelParams, noise: float,
              inducing: Optional[np.ndarray] = None) -> GPPosterior:
    """Exact GP regression, evaluated at the selected inducing rows.

    Posterior mean m(x) = k(x, X)(K + noise*I)^-1 y and covariance
    k(x, x') - k(x, X)(K + noise*I)^-1 k(X, x'), both restricted to the
    inducing rows.  One n x n gram K is built: the inducing rows' blocks
    are read out of it, and ``numerics.cholesky_psd`` adds the noise to
    its own copy.
    """
    _require_noise(noise)
    inducing = np.arange(data.n) if inducing is None else np.asarray(inducing, dtype=int)

    K = kernels.gram(kernel, (1 << data.d) - 1, data.X, data.X)
    K_ix, K_ii = K[inducing], K[np.ix_(inducing, inducing)]
    factor = numerics.cholesky_psd(K, shift=noise)
    return GPPosterior(
        inducing_points=data.X[inducing],
        mean_at_inducing=K_ix @ factor.solve(data.y),
        cov_at_inducing=numerics.symmetrize(K_ii - K_ix @ factor.solve(K_ix.T)),
        kernel=kernel,
        noise=float(noise),
    )


def log_marginal_likelihood(data: Dataset, kernel: KernelParams, noise: float,
                            gram: Optional[np.ndarray] = None) -> float:
    """Exact GP log marginal likelihood of the training targets.

    ``gram``, when given, must be ``kernels.gram(kernel, (1 << d) - 1, X, X)``; it
    is only read, so a caller can reuse it for other noise levels.
    """
    _require_noise(noise)
    if gram is None:
        gram = kernels.gram(kernel, (1 << data.d) - 1, data.X, data.X)
    factor = numerics.cholesky_psd(gram, shift=noise)
    alpha = factor.solve(data.y)
    return float(
        -0.5 * data.y @ alpha - 0.5 * factor.logdet() - 0.5 * data.n * np.log(2.0 * np.pi)
    )


def fit(data: Dataset, inducing: Optional[int] = None, strategy: str = "farthest_point",
        seed: int = 0, ls_multipliers: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
        noise_fractions: Sequence[float] = (1e-3, 1e-2, 1e-1, 1.0)
        ) -> tuple[GPPosterior, float]:
    """The exact GP at the maximum of a log marginal likelihood grid, and that maximum.

    The grid crosses median-heuristic lengthscale multiples with fractions
    of var(y) as noise, at unit kernel variance; it runs lengthscale-major
    and the first maximum wins.  Each multiplier's n x n gram serves its
    noise levels and is dropped before the next, so one gram and one factor
    are held at a time and every likelihood, the returned one too, equals a
    fresh call bit for bit.  ``inducing`` None or at least n keeps every
    row; otherwise ``select_inducing`` picks that many, before the search.
    """
    for name, values in (("ls_multipliers", ls_multipliers),
                         ("noise_fractions", noise_fractions)):
        if len(values) == 0:
            raise ValueError(f"{name} must not be empty")
        for v in values:
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
    rows = (None if inducing is None or inducing >= data.n
            else select_inducing(data, inducing, strategy, seed))
    base = kernels.median_heuristic(data.X)
    with np.errstate(over="ignore"):    # an overflow here fails the check
        var_y = float(np.var(data.y)) or 1.0
    if not np.isfinite(var_y):
        raise ValueError("the target's variance overflows a float; rescale the target")
    best, best_ll = None, -np.inf
    for mult in ls_multipliers:
        params = KernelParams(variance=1.0, lengthscales=mult * base)
        K = kernels.gram(params, (1 << data.d) - 1, data.X, data.X)
        for frac in noise_fractions:
            noise = frac * var_y
            ll = log_marginal_likelihood(data, params, noise, gram=K)
            if ll > best_ll:
                best, best_ll = (params, noise), ll
        del K                               # drop this gram before building the next
    return fit_exact(data, *best, rows), best_ll
