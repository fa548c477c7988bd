"""Conditional-mean-embedding weights linking the GP posterior to the game.

For each coalition S and input x, the weight vector
b(x, S) = (K_S + lambda*I)^-1 k_S(rows, x) turns values at a fixed set of
rows (the posterior's inducing rows for ``explain``, the anchors for the
Shapley prior) into the estimated conditional expectation given the
features in S.  Every coalition's K_S + lambda*I is factored exactly
once.

The weights B(X) (ell x m x n) come from one generator, in blocks of
coalitions of at most ``CHUNK_ENTRIES`` entries.  Two kinds of consumer
read it:

* streamed: ``projected_batch`` (GP-SHAP) and
  ``CoalitionEmbedding.projected`` (the Shapley prior) add each block into
  the projected maps A.B(X) (n x d x m), and ``projected_batch`` also into
  the payoff means, then drop it, so B(X) is never held whole;
* whole: ``embedding_batch`` and ``CoalitionEmbedding.weights`` fill the
  full tensor, for ``game_moments`` and the oracles that need every
  coalition's payoff.

Both sides of every solve, the grams K_S(rows, rows) that are factored and
the right-hand sides k_S(rows, X), come from ``kernels.grams``: one stacked
product per run of equal-size masks (at most ``STACK_ENTRIES`` entries),
while each coalition is still factored and solved on its own.  The
right-hand sides are written into the streamed block itself and solved
there in place.

``CoalitionEmbedding`` keeps the factors, for callers that map batches
again and again (the Shapley prior).  ``projected_batch`` and
``embedding_batch`` map one batch and drop each factor after its solve.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import kernels, numerics
from .coalition import CoalitionDesign, StochasticGame
from .errors import DesignMismatch, DimensionMismatch
from .gp import GPPosterior
from .kernels import FeatureSubset, KernelParams
from .numerics import CholeskyFactor


def default_lambda(n_inducing: int) -> float:
    """Regularizer scaled with the embedding sample size."""
    return 1e-3 * n_inducing


# Entries of B(X) one streamed block holds at most (8 MB of float64).  A
# block always holds at least one coalition, even when m*n is larger.
CHUNK_ENTRIES = 1 << 20
# Entries of one stack of coalition grams (1 MB), an eighth of a block; a
# stack holds at least one gram.
STACK_ENTRIES = CHUNK_ENTRIES // 8


def _stacks(masks: Iterable[int], entries: int) -> Iterator[list[int]]:
    """The masks in order, as ``kernels.grams`` stacks: runs of equal-size
    masks (contiguous: a design sorts its masks by size), each cut into
    pieces of at most ``STACK_ENTRIES`` entries for grams of ``entries``."""
    step = max(1, STACK_ENTRIES // max(entries, 1))
    for _, run in groupby(masks, key=lambda mask: int(mask).bit_count()):
        run = list(run)
        for lo in range(0, len(run), step):
            yield run[lo:lo + step]


def _coalition_factors(kernel: KernelParams, masks: np.ndarray, rows: np.ndarray,
                       lam: float | None) -> Iterator[CholeskyFactor]:
    """Cholesky factors of K_S + lambda*I over the m rows, one per mask, in turn;
    lambda None is default_lambda(m).  Lambda is checked when the first is asked for."""
    if lam is None:
        lam = default_lambda(rows.shape[0])
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    m = rows.shape[0]
    for stack in _stacks(masks, m * m):
        for K in kernels.grams(kernel, stack, rows, rows):
            yield numerics.cholesky_psd(K, shift=lam)


def _weight_chunks(kernel: KernelParams, rows: np.ndarray, masks: np.ndarray,
                   factors: Iterable[CholeskyFactor],
                   X: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(lo, B(X)[lo:lo + c])`` for successive blocks of c coalitions.

    Where the weights are solved against the coalition factors; each block
    holds at most ``CHUNK_ENTRIES`` entries (or one coalition).  The
    right-hand sides k_S(rows, X) are built in the block itself, one
    ``kernels.grams`` call per stack, and each is solved there in place.
    Every block is a view of one reused buffer, so a consumer must be done
    with a block before it asks for the next.  ``factors`` may be a
    one-pass iterator, so a caller that maps a single batch can drop each
    factor as soon as it has been used.
    """
    m, n = rows.shape[0], X.shape[0]
    step = max(1, CHUNK_ENTRIES // max(m * n, 1))
    buffer = np.empty((min(step, len(masks)), m, n))
    factors = iter(factors)
    for lo in range(0, len(masks), step):
        block = buffer[:min(step, len(masks) - lo)]
        j = 0
        for stack in _stacks(masks[lo:lo + len(block)], m * n):
            kernels.grams(kernel, stack, rows, X, out=block[j:j + len(stack)])
            j += len(stack)
        for k_sx, factor in zip(block, factors):
            factor.solve_in_place(k_sx)
        yield lo, block


def _solve_all(kernel: KernelParams, rows: np.ndarray, masks: np.ndarray,
               factors: Iterable[CholeskyFactor], X: np.ndarray) -> np.ndarray:
    """B(X), shape (n_coalitions, m, n), from one factor per coalition."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty((len(masks), rows.shape[0], X.shape[0]))
    for lo, block in _weight_chunks(kernel, rows, masks, factors, X):
        out[lo:lo + len(block)] = block
    return out


def _project_all(A: np.ndarray, kernel: KernelParams, rows: np.ndarray,
                 masks: np.ndarray, factors: Iterable[CholeskyFactor], X: np.ndarray,
                 mean: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """A.B(X), shape (n, d, m), summed block by block; B(X) is never whole.

    With ``mean`` (length m) the payoff means B(X)^T mean, shape
    (n_coalitions, n), come back too; otherwise None does.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d, m, n = A.shape[0], rows.shape[0], X.shape[0]
    P = np.zeros((d, m * n))
    E = None if mean is None else np.empty((len(masks), n))
    for lo, block in _weight_chunks(kernel, rows, masks, factors, X):
        hi = lo + len(block)
        P += A[:, lo:hi] @ block.reshape(hi - lo, m * n)
        if E is not None:
            # einsum sums over i in the same order for any block size, so the
            # payoff means do not depend on CHUNK_ENTRIES
            E[lo:hi] = np.einsum("jik,i->jk", block, mean)
    return P.reshape(d, m, n).transpose(2, 0, 1), E


@dataclass(frozen=True)
class CoalitionEmbedding:
    """Per-coalition factors of K_S + lambda*I over fixed embedding rows.

    ``factors[j]`` belongs to ``design.masks[j]``.  Mapping inputs
    only builds k_S(rows, X) and back-substitutes; it never factors.
    """

    kernel: KernelParams
    rows: np.ndarray                        # m x d
    design: CoalitionDesign
    factors: tuple[CholeskyFactor, ...]

    def weights(self, X: np.ndarray) -> np.ndarray:
        """B(X): CME weights, shape (n_coalitions, m, n)."""
        return _solve_all(self.kernel, self.rows, self.design.masks, self.factors, X)

    def projected(self, X: np.ndarray) -> np.ndarray:
        """A.B(X): projected embedding maps, shape (n, d, m)."""
        return _project_all(self.design.A, self.kernel, self.rows,
                            self.design.masks, self.factors, X)[0]


def coalition_embedding(kernel: KernelParams, rows: np.ndarray, design: CoalitionDesign,
                        lam: float | None) -> CoalitionEmbedding:
    """Factor K_S + lambda*I once for every coalition of ``design``."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    factors = tuple(_coalition_factors(kernel, design.masks, rows, lam))
    return CoalitionEmbedding(kernel=kernel, rows=rows, design=design, factors=factors)


@dataclass(frozen=True)
class EmbeddingWeights:
    """Per-coalition CME weights, one column per explained instance."""

    coalition: FeatureSubset
    weights: np.ndarray  # n_inducing x n_instances


@dataclass(frozen=True)
class EmbeddingBatch:
    """Embedding weights for every coalition of a design, in design order."""

    design: CoalitionDesign
    weights: np.ndarray                     # n_coalitions x n_inducing x n_instances

    def tensor(self) -> np.ndarray:
        """Stacked weights, shape (n_coalitions, n_inducing, n_instances)."""
        return self.weights


def embedding_weights(posterior: GPPosterior, subset: FeatureSubset,
                      X_explain: np.ndarray, lam: float) -> EmbeddingWeights:
    """CME weight columns for one coalition at a batch of instances."""
    if subset.d != posterior.d:
        raise DimensionMismatch("subset and posterior disagree on feature count")
    Xi = posterior.inducing_points
    factors = _coalition_factors(posterior.kernel, [subset.mask], Xi, lam)
    weights = _solve_all(posterior.kernel, Xi, [subset.mask], factors, X_explain)[0]
    return EmbeddingWeights(coalition=subset, weights=weights)


def _one_batch(posterior: GPPosterior, design: CoalitionDesign, X_explain: np.ndarray,
               lam: float | None) -> tuple[np.ndarray, Iterator[CholeskyFactor]]:
    """Checked instances and a one-pass iterator of coalition factors.

    One batch only: each factor is dropped right after its solve instead of
    being kept in a CoalitionEmbedding (ell*m^2 floats, 328 MB at d=10, m=200).
    """
    X_explain = np.atleast_2d(np.asarray(X_explain, dtype=float))
    if X_explain.shape[1] != design.d:
        raise DesignMismatch(
            f"instances have {X_explain.shape[1]} features, design expects {design.d}"
        )
    if posterior.d != design.d:
        raise DesignMismatch("posterior and design disagree on feature count")
    return X_explain, _coalition_factors(posterior.kernel, design.masks,
                                         posterior.inducing_points, lam)


def embedding_batch(posterior: GPPosterior, design: CoalitionDesign,
                    X_explain: np.ndarray, lam: float | None = None) -> EmbeddingBatch:
    """Embedding weights for every coalition in a design, as one tensor."""
    X_explain, factors = _one_batch(posterior, design, X_explain, lam)
    weights = _solve_all(posterior.kernel, posterior.inducing_points, design.masks,
                         factors, X_explain)
    return EmbeddingBatch(design=design, weights=weights)


def projected_batch(posterior: GPPosterior, design: CoalitionDesign,
                    X_explain: np.ndarray,
                    lam: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A.B(X) (n x d x n_inducing) and payoff means (n_coalitions x n).

    The payoff means are B(X)^T m with m the posterior mean at the inducing
    rows.  B(X) is streamed in blocks and never held whole.
    """
    X_explain, factors = _one_batch(posterior, design, X_explain, lam)
    return _project_all(design.A, posterior.kernel, posterior.inducing_points,
                        design.masks, factors, X_explain, posterior.mean_at_inducing)


def game_moments(posterior: GPPosterior, batch: EmbeddingBatch) -> list[StochasticGame]:
    """Per-instance stochastic games: payoff means and covariances.

    payoff_mean[j] = b(x, S_j)^T m and payoff_cov[j, j'] =
    b(x, S_j)^T K b(x, S_j') with m, K the posterior moments at the
    inducing rows.
    """
    B = batch.tensor()                      # ell x n_I x n
    if B.shape[1] != posterior.n_inducing:
        raise DesignMismatch("embedding batch and posterior disagree on inducing size")
    E = np.einsum("jik,i->jk", B, posterior.mean_at_inducing)
    games = []
    for k in range(B.shape[2]):
        Bk = B[:, :, k]
        cov = numerics.symmetrize(Bk @ posterior.cov_at_inducing @ Bk.T)
        games.append(
            StochasticGame(design=batch.design, payoff_mean=E[:, k], payoff_cov=cov)
        )
    return games
