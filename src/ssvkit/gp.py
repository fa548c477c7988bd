"""Exact Gaussian-process regression evaluated at a designated inducing set.

The explainers never see the training data directly: they consume the
posterior mean vector and covariance matrix at the inducing rows, so any
model producing that interface is interchangeable.  Here the posterior is
computed by exact Gaussian conditioning on the full training set and the
inducing rows are a subset of the training inputs, selected either
uniformly at random or by greedy farthest-point traversal.  ``fit``
chooses kernel and noise by a likelihood grid search, bounded so that it
factors only the grid points that can win, and conditions once.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
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
        _require_noise(self.noise)

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
    are copied out of it (one copy serves both when every row is kept),
    and then K + noise*I is factored in K's own memory.  The covariance is
    ``symmetrize(K_ii - K_ix @ factor.solve(K_ix.T))``, the same operations
    in the same order, with each result put in a buffer already held: the
    product and the difference in the spent factor's, the average in K_ii's.
    With every row kept, three n x n arrays are alive at the peak, not five.
    """
    _require_noise(noise)
    K = kernels.gram(kernel, (1 << data.d) - 1, data.X, data.X)
    if inducing is None:
        inducing = np.arange(data.n)
        K_ix = K_ii = K.copy()
    else:
        inducing = np.asarray(inducing, dtype=int)
        K_ix, K_ii = K[inducing], K[np.ix_(inducing, inducing)]
    (factor,) = numerics.cholesky_in_place(K, [noise])
    mean = K_ix @ factor.solve(data.y)
    solved = factor.solve(K_ix.T)
    m = len(inducing)
    diff = np.matmul(K_ix, solved, out=K.reshape(-1)[:m * m].reshape(m, m))
    np.subtract(K_ii, diff, out=diff)
    cov = np.add(diff, diff.T, out=K_ii)      # numerics.symmetrize, in K_ii's memory
    cov *= 0.5
    del K, factor, solved, diff         # before the posterior's checks take two more
    return GPPosterior(inducing_points=data.X[inducing], mean_at_inducing=mean,
                       cov_at_inducing=cov, kernel=kernel, noise=float(noise))


def log_marginal_likelihood(data: Dataset, kernel: KernelParams, noise: float) -> float:
    """Exact GP log marginal likelihood of the training targets."""
    _require_noise(noise)
    K = kernels.gram(kernel, (1 << data.d) - 1, data.X, data.X)
    return _likelihood(data.y, numerics.cholesky_psd(K, shift=noise))[0]


def _likelihood(y: np.ndarray, factor: numerics.CholeskyFactor) -> tuple[float, float, float]:
    """Log density of the targets y under N(0, K + noise*I), given its factor,
    with two of its terms: y^T (K + noise*I)^-1 y and the log-determinant."""
    alpha = factor.solve(y)
    logdet = factor.logdet()
    ll = float(-0.5 * y @ alpha - 0.5 * logdet - 0.5 * y.size * np.log(2.0 * np.pi))
    return ll, float(y @ alpha), logdet


def _grid_row(data: Dataset, params: KernelParams,
              noises: Iterable[float]) -> Iterator[tuple[float, float, float, float, float]]:
    """The noise, ``_likelihood``'s three numbers and the jitter the factor
    needed, at ``params`` for each noise in turn, drawn from ``noises`` only
    when the previous one is done.  One gram is factored in its own memory
    for all of them; it is built at the first draw and dropped when the row
    ends."""
    K = kernels.gram(params, (1 << data.d) - 1, data.X, data.X)
    drawn = []

    def draw():
        for noise in noises:
            drawn.append(noise)
            yield noise

    for factor in numerics.cholesky_in_place(K, draw()):
        yield (drawn[-1], *_likelihood(data.y, factor), factor.jitter_used)


def _likelihood_bound(data: Dataset, params: KernelParams, q0: float, logdet0: float,
                      s0: float, noise: float) -> float:
    """An upper bound on the log marginal likelihood at ``noise`` and the
    unit-variance ``params``, from the factor at noise s0 (jitter included):
    q0 = y^T alpha and its log-determinant logdet0.  +inf where it does not
    apply.  See ``fit``; tau bounds in the 2-norm the rounding of the gram's
    GEMM form (``kernels.grams``: (d + 2) eps |x / ls|^2 + eps per entry at
    most, n times that in the norm) and the backward error of the factor and
    of each of its two triangular solves (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 8 and 10): (n + 1) eps || |L| |L^T| || each,
    at most (n + 1) n eps (n + s0), as || |L| ||^2 <= n ||L||^2 and
    ||L||^2 = ||K + s0 I|| <= trace(K) + s0 = n + s0."""
    n = data.n
    with np.errstate(over="ignore"):    # an infinite radius gives an infinite bound
        radius = float(np.max(np.sum((data.X / params.lengthscales) ** 2, axis=1)))
    tau = n * np.finfo(float).eps * ((data.d + 2) * radius + 1.0 + 3 * (n + 1) * (n + s0))
    low, delta = s0 - tau, noise - s0 - 2.0 * tau
    if not (low > 0.0 and delta > 0.0):
        return np.inf
    bound = (-0.5 * q0 * low / (noise + tau)
             - 0.5 * (logdet0 + n * np.log1p(delta / (1.0 + s0 + tau)))
             - 0.5 * n * np.log(2.0 * np.pi))
    return float(bound) if np.isfinite(bound) else np.inf


def fit(data: Dataset, inducing: Optional[int] = None, strategy: str = "farthest_point",
        seed: int = 0, ls_multipliers: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
        noise_fractions: Sequence[float] = (1e-3, 1e-2, 1e-1, 1.0)
        ) -> tuple[GPPosterior, float]:
    """The exact GP at the maximum of a log marginal likelihood grid, and that maximum.

    The grid crosses median-heuristic lengthscale multiples with fractions
    of var(y) as noise, at unit kernel variance; the first maximum in
    lengthscale-major order wins.  A repeated multiplier or noise repeats
    its likelihoods bit for bit and loses the tie, so each distinct value
    is searched once.  The search is a branch and bound that returns the
    exhaustive search's winner, noise and likelihood bit for bit, and
    never factors a point the bound rules out:

    1. Each multiplier's n x n gram K is factored at the smallest noise
       s0, giving its likelihood, q0 = y^T alpha (the same alpha) and
       L0 = log|K + s0' I|, where s0' is s0 plus the jitter it needed.
    2. K is positive semi-definite, so the eigenvalues mu_i of K + s0' I
       are at least s0'.  At a noise s = s0' + delta each term of
       y^T (K + s I)^-1 y scales by mu_i / (mu_i + delta) >= s0' / s, so
       the form is at least q0 s0' / s.  log(1 + delta / mu) is convex in
       mu, so by Jensen's inequality log|K + s I| is at least
       L0 + n log1p(delta / mu_bar), where mu_bar = trace(K) / n + s0' is
       1 + s0' for a unit-variance gram.  Hence (Rasmussen & Williams,
       GPML 2.2 and 5.4)

           LML(s) <= -q0 s0' / (2 s) - (L0 + n log1p(delta / (1 + s0'))) / 2
                     - n log(2 pi) / 2.

       Rounding moves the matrix a factor and its solves represent by up
       to tau in the 2-norm: the gram's entries' rounding plus the standard
       backward error of the factorization and of each triangular solve
       (``_likelihood_bound`` derives it).  So the bound takes s0' - tau for
       the smallest eigenvalue, s + tau for the noise in the quadratic
       term, delta - 2 tau and 1 + s0' + tau, and is +inf unless s0' > tau
       and s > s0' + 2 tau.  Without tau the bound fails where the computed
       gram is indefinite, as with a feature that carries a large offset.
    3. The other points are visited one multiplier at a time, the best
       bound first, and a multiplier's points in bound order through one
       rebuilt gram.  A point is skipped only if its bound plus the margin
       1e-6 (|q0| + |L0| + n), which covers rounding in the likelihoods,
       is below the best likelihood so far: it cannot win or tie.

    Each gram is factored in its own memory (``numerics.cholesky_in_place``)
    and dropped before the next is built, so one n x n buffer is held at a
    time, and every likelihood computed, the returned one too, equals a
    fresh ``log_marginal_likelihood`` bit for bit.  ``inducing`` None or at
    least n keeps every row; otherwise ``select_inducing`` picks that many,
    before the search.
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
    noises = [frac * var_y for frac in noise_fractions]
    for noise in noises:
        _require_noise(noise)
    mults, noises = list(dict.fromkeys(ls_multipliers)), list(dict.fromkeys(noises))
    params = [KernelParams(variance=1.0, lengthscales=mult * base) for mult in mults]
    first = noises.index(min(noises))
    best_ll, best_at = -np.inf, (len(mults), 0)     # past the grid's end

    def offer(ll, at):
        nonlocal best_ll, best_at
        if ll > best_ll or (ll == best_ll and at < best_at):
            best_ll, best_at = ll, at

    def unruled(bounds, margin):
        """The row's noises, best bound first, until the bound rules out the rest."""
        for bound, k in bounds:
            if bound + margin < best_ll:
                return
            yield noises[k]

    rest = []
    for i, p in enumerate(params):
        ((_, ll, q0, logdet0, jitter),) = _grid_row(data, p, [noises[first]])
        offer(ll, (i, first))
        s0 = noises[first] + jitter
        bounds = sorted(((_likelihood_bound(data, p, q0, logdet0, s0, s), k)
                         for k, s in enumerate(noises) if k != first), key=lambda b: -b[0])
        if bounds:
            rest.append((bounds[0][0], bounds, 1e-6 * (abs(q0) + abs(logdet0) + data.n), i))
    for top, bounds, margin, i in sorted(rest, key=lambda row: -row[0]):
        if top + margin < best_ll:
            continue
        for noise, ll, *_ in _grid_row(data, params[i], unruled(bounds, margin)):
            offer(ll, (i, noises.index(noise)))
    i, k = best_at
    return fit_exact(data, params[i], noises[k], rows), best_ll
