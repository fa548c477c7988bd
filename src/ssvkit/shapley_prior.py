"""Matrix-valued explanation kernel and multi-output GP over explanations.

A GP prior on the underlying model induces, through conditional
expectations and the projection matrix A, a vector-valued GP prior over
the explanation function itself.  Fitting that prior to previously
computed explanations (from any SHAP-style source) yields predictive
explanations with uncertainty for unseen inputs, without access to the
underlying model.

``fit`` factors every coalition's anchor gram once, in a
``cme.CoalitionEmbedding`` that the fitted model keeps.  The kernel
M(x) K M(x')^T has rank at most m, the anchor count, so fitting is
Bayesian linear regression on m weights (the weight-space view of
Rasmussen & Williams, GPML 2.1): with K = L L^T and G = F L stacking the
training maps, only L and the m x m factor of G^T G + noise*I are
factored.  With ell coalitions, fit costs O(ell*m^3 + n*ell*m*(m + d)
+ n*d*m^2) time: one m x m factor per coalition, a back-substitution and
projection of each of the n inputs against each factor, then the
weight-space solve.  It needs
O(n*d*m) transient memory, and the model keeps the ell*m^2 floats of the
coalition factors.  No (n*d)^2 gram is formed, so the number of
explanations is not capped.  ``predict_batch`` factors nothing, but it
back-substitutes each input against all ell coalition factors and projects
the result: O(ell*m*(m + d)) per input.  ``predict`` is its one-input case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cme, gp, kernels, numerics
from .coalition import CoalitionDesign
from .errors import CountOutOfRange
from .kernels import KernelParams
from .numerics import CholeskyFactor

# predict_batch works through the new inputs in blocks whose projected maps
# (d x n_anchors per input; the embedding weights are streamed in blocks of
# their own) have at most this many entries, so memory stays bounded however
# many inputs one call receives.
PREDICT_BLOCK_ENTRIES = 1 << 22


@dataclass(frozen=True)
class ExplanationDataset:
    """Inputs paired with their explanation vectors."""

    X: np.ndarray
    Phi: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Phi = np.atleast_2d(np.asarray(self.Phi, dtype=float))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Phi", Phi)
        if X.shape != Phi.shape:
            raise ValueError("X and Phi must have identical shapes")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Phi))):
            raise ValueError("explanation dataset contains non-finite entries")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class ShapleyPriorModel:
    """Fitted multi-output GP over explanation functions, in weight space.

    With the anchor gram K = L L^T (``anchor_factor``), the explanation at x
    is M(x) L w for weights w ~ N(0, I_m), where M(x) = A.B(x) is the
    projected map of ``embedding``.  Given the training explanations the
    weights are N(w_mean, noise * S^-1) with S = G^T G + noise*I = R R^T,
    so the predictive mean is M(x) ``mean_map`` (mean_map = L w_mean) and
    the predictive covariance is P P^T with P = M(x) ``cov_root``
    (cov_root = sqrt(noise) * (R^-1 L^T)^T).
    """

    embedding: cme.CoalitionEmbedding
    anchor_factor: CholeskyFactor           # of K, n_anchors x n_anchors
    mean_map: np.ndarray                    # n_anchors
    cov_root: np.ndarray                    # n_anchors x n_anchors


def kappa(model: ShapleyPriorModel, x: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Matrix-valued explanation kernel between two inputs, shape d x d."""
    L = model.anchor_factor.lower
    return (model.embedding.projected(x)[0] @ L) @ (model.embedding.projected(x2)[0] @ L).T


def fit(data: ExplanationDataset, anchors: np.ndarray, kernel: KernelParams,
        design: CoalitionDesign, lam: float | None, noise: float) -> ShapleyPriorModel:
    """Fit the anchor weights' posterior (the multi-output GP); lam None: default_lambda(m)."""
    gp._require_noise(noise)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    n, d, m = data.n, data.d, anchors.shape[0]
    anchor_factor = numerics.cholesky_psd(kernels.gram(kernel, (1 << d) - 1, anchors, anchors))
    L = anchor_factor.lower
    embedding = cme.coalition_embedding(kernel, anchors, design, lam)
    F = embedding.projected(data.X).reshape(n * d, m)
    G = F @ L
    y = data.Phi.reshape(-1)
    weight_factor = numerics.cholesky_psd(G.T @ G, shift=noise)
    weight_mean = weight_factor.solve(G.T @ y)
    # R^-1 L^T by the dtrsm that LAPACK's dtrtrs (scipy's solve_triangular)
    # calls once it finds no zero on R's diagonal, which cholesky_psd rules out
    cov_root = np.sqrt(noise) * numerics.blas.dtrsm(1.0, weight_factor.lower, L.T, lower=1).T
    return ShapleyPriorModel(embedding=embedding, anchor_factor=anchor_factor,
                             mean_map=L @ weight_mean, cov_root=cov_root)


def predict_batch(model: ShapleyPriorModel,
                  X_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means (n x d) and covariances (n x d x d) at new inputs.

    mean(x) = M(x) L w_mean and cov(x) = noise * M(x) L S^-1 L^T M(x)^T,
    written as P P^T with P = M(x) cov_root, so every covariance is a gram
    matrix.
    """
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    m = model.mean_map.shape[0]
    step = max(1, PREDICT_BLOCK_ENTRIES // (model.embedding.design.d * m))
    means, covs = [], []
    for lo in range(0, max(X_new.shape[0], 1), step):
        M = model.embedding.projected(X_new[lo:lo + step])    # n_block x d x m
        P = (M.reshape(-1, m) @ model.cov_root).reshape(M.shape)
        means.append(M @ model.mean_map)
        covs.append(numerics.symmetrize(P @ P.transpose(0, 2, 1)))
    return np.concatenate(means), np.concatenate(covs)


def predict(model: ShapleyPriorModel, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and covariance of the explanation at a new input."""
    means, covs = predict_batch(model, np.reshape(x_new, (1, -1)))
    return means[0], covs[0]


def induced_payoff(model: ShapleyPriorModel, x_new: np.ndarray) -> np.ndarray:
    """Payoff vector whose projection under A is the predictive mean.

    v_tilde = B(x_new) L w_mean, so A @ v_tilde == predict(model, x_new)[0].
    """
    B_new = model.embedding.weights(x_new)[:, :, 0]        # ell x n_anchors
    return B_new @ model.mean_map


def farthest_point_anchors(X: np.ndarray, count: int) -> np.ndarray:
    """Greedy farthest-point subset of X for CME anchors (all rows if count >= n)."""
    if count < 1:
        raise CountOutOfRange(f"anchor count must be at least 1, got {count}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return X[gp.farthest_point_indices(X, min(count, X.shape[0]))]
