"""Conditional-mean-embedding weights linking the GP posterior to the game.

For each coalition S and input x, the weight vector
b(x, S) = (K_S + lambda*I)^-1 k_S(rows, x) turns values at a fixed set of
rows (the posterior's inducing rows for ``explain``, the anchors for the
Shapley prior) into the estimated conditional expectation given the
features in S.  Every coalition's K_S + lambda*I is factored exactly
once.  ``CoalitionEmbedding`` keeps the factors, for callers that map
batches again and again (the Shapley prior): it maps whole batches to B(X)
and to the projected maps A.B(X) without factoring again.
``embedding_batch`` maps one batch and drops each factor after its solve.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import kernels, numerics
from .coalition import CoalitionDesign, StochasticGame
from .errors import DesignMismatch
from .gp import GPPosterior
from .kernels import FeatureSubset, KernelParams
from .numerics import CholeskyFactor


def default_lambda(n_inducing: int) -> float:
    """Regularizer scaled with the embedding sample size."""
    return 1e-3 * n_inducing


def _coalition_factor(kernel: KernelParams, subset: FeatureSubset, rows: np.ndarray,
                      lam: float) -> CholeskyFactor:
    """Cholesky factor of K_S + lambda*I over the embedding rows."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    K_s = kernels.gram(kernel, subset, rows, rows)
    return numerics.cholesky_psd(K_s + lam * np.eye(rows.shape[0]))


def _solve_all(kernel: KernelParams, rows: np.ndarray,
               coalitions: tuple[FeatureSubset, ...], factors: Iterable[CholeskyFactor],
               X: np.ndarray) -> np.ndarray:
    """B(X), shape (n_coalitions, m, n), from one factor per coalition.

    ``factors`` may be a one-pass iterator, so a caller that maps a single
    batch can drop each factor as soon as it has been used.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty((len(coalitions), rows.shape[0], X.shape[0]))
    for j, (subset, factor) in enumerate(zip(coalitions, factors)):
        out[j] = factor.solve(kernels.gram(kernel, subset, rows, X))
    return out


def project(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Contract A (d x ell) into B (ell x m x n), giving shape (n, d, m)."""
    ell, m, n = B.shape
    return (A @ B.reshape(ell, m * n)).reshape(A.shape[0], m, n).transpose(2, 0, 1)


@dataclass(frozen=True)
class CoalitionEmbedding:
    """Per-coalition factors of K_S + lambda*I over fixed embedding rows.

    ``factors[j]`` belongs to ``design.coalitions[j]``.  Mapping inputs
    only builds k_S(rows, X) and back-substitutes; it never factors.
    """

    kernel: KernelParams
    rows: np.ndarray                        # m x d
    design: CoalitionDesign
    lam: float
    factors: tuple[CholeskyFactor, ...]

    def weights(self, X: np.ndarray) -> np.ndarray:
        """B(X): CME weights, shape (n_coalitions, m, n)."""
        return _solve_all(self.kernel, self.rows, self.design.coalitions, self.factors, X)

    def projected(self, X: np.ndarray) -> np.ndarray:
        """A.B(X): projected embedding maps, shape (n, d, m)."""
        return project(self.design.A, self.weights(X))


def coalition_embedding(kernel: KernelParams, rows: np.ndarray, design: CoalitionDesign,
                        lam: float) -> CoalitionEmbedding:
    """Factor K_S + lambda*I once for every coalition of ``design``."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    factors = tuple(_coalition_factor(kernel, c, rows, lam) for c in design.coalitions)
    return CoalitionEmbedding(kernel=kernel, rows=rows, design=design, lam=lam,
                              factors=factors)


@dataclass(frozen=True)
class EmbeddingWeights:
    """Per-coalition CME weights, one column per explained instance."""

    coalition: FeatureSubset
    lam: float
    weights: np.ndarray  # n_inducing x n_instances


@dataclass(frozen=True)
class EmbeddingBatch:
    """Embedding weights for every coalition of a design, in design order."""

    design: CoalitionDesign
    X_explain: np.ndarray
    weights: np.ndarray                     # n_coalitions x n_inducing x n_instances
    lam: float

    @property
    def n_instances(self) -> int:
        return self.X_explain.shape[0]

    @property
    def n_inducing(self) -> int:
        return self.weights.shape[1]

    @property
    def per_coalition(self) -> tuple[EmbeddingWeights, ...]:
        return tuple(EmbeddingWeights(coalition=c, lam=self.lam, weights=w)
                     for c, w in zip(self.design.coalitions, self.weights))

    def tensor(self) -> np.ndarray:
        """Stacked weights, shape (n_coalitions, n_inducing, n_instances)."""
        return self.weights


def embedding_weights(posterior: GPPosterior, subset: FeatureSubset,
                      X_explain: np.ndarray, lam: float) -> EmbeddingWeights:
    """CME weight columns for one coalition at a batch of instances."""
    X_explain = np.atleast_2d(np.asarray(X_explain, dtype=float))
    Xi = posterior.inducing_points
    factor = _coalition_factor(posterior.kernel, subset, Xi, lam)
    k_sx = kernels.gram(posterior.kernel, subset, Xi, X_explain)
    return EmbeddingWeights(coalition=subset, lam=lam, weights=factor.solve(k_sx))


def embedding_batch(posterior: GPPosterior, design: CoalitionDesign,
                    X_explain: np.ndarray, lam: float | None = None) -> EmbeddingBatch:
    """Embedding weights for every coalition in a design."""
    X_explain = np.atleast_2d(np.asarray(X_explain, dtype=float))
    if X_explain.shape[1] != design.d:
        raise DesignMismatch(
            f"instances have {X_explain.shape[1]} features, design expects {design.d}"
        )
    if posterior.d != design.d:
        raise DesignMismatch("posterior and design disagree on feature count")
    if lam is None:
        lam = default_lambda(posterior.n_inducing)
    # One batch only: each factor is dropped right after its solve instead of
    # being kept in a CoalitionEmbedding (ell*m^2 floats, 328 MB at d=10, m=200).
    kernel, Xi = posterior.kernel, posterior.inducing_points
    factors = (_coalition_factor(kernel, c, Xi, lam) for c in design.coalitions)
    return EmbeddingBatch(design=design, X_explain=X_explain, lam=lam,
                          weights=_solve_all(kernel, Xi, design.coalitions, factors,
                                             X_explain))


def game_moments(posterior: GPPosterior, batch: EmbeddingBatch) -> list[StochasticGame]:
    """Per-instance stochastic games: payoff means and covariances.

    payoff_mean[j] = b(x, S_j)^T m and payoff_cov[j, j'] =
    b(x, S_j)^T K b(x, S_j') with m, K the posterior moments at the
    inducing rows.
    """
    if batch.n_inducing != posterior.n_inducing:
        raise DesignMismatch("embedding batch and posterior disagree on inducing size")
    B = batch.tensor()                      # ell x n_I x n
    E = np.einsum("jik,i->jk", B, posterior.mean_at_inducing)
    games = []
    for k in range(batch.n_instances):
        Bk = B[:, :, k]
        cov = numerics.symmetrize(Bk @ posterior.cov_at_inducing @ Bk.T)
        games.append(
            StochasticGame(design=batch.design, payoff_mean=E[:, k], payoff_cov=cov)
        )
    return games
