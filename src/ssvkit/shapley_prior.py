"""Matrix-valued explanation kernel and multi-output GP over explanations.

A GP prior on the underlying model induces, through conditional
expectations and the projection matrix A, a vector-valued GP prior over
the explanation function itself.  Fitting that prior to previously
computed explanations (from any SHAP-style source) yields predictive
explanations with uncertainty for unseen inputs, without access to the
underlying model.

``fit`` factors every coalition's anchor gram once, in a
``cme.CoalitionEmbedding`` that the fitted model keeps.  Prediction is
batched: ``predict_batch`` maps all new inputs through that embedding and
one solve against the training gram, and does no factorizations;
``predict`` is its one-input case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cme, gp, kernels, numerics
from .coalition import CoalitionDesign
from .errors import CountOutOfRange
from .kernels import KernelParams
from .numerics import CholeskyFactor

MAX_SYSTEM_SIZE = 4000
# predict_batch works through the new inputs in blocks whose largest array
# (cross-kernel rows or projected maps; the embedding weights are streamed
# in blocks of their own) has at most this many entries, so memory stays
# bounded however many inputs one call receives.
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
    """Fitted multi-output GP over explanation functions.

    ``alpha`` holds the dual coefficients in instance-major d-blocks:
    block a occupies entries [a*d, (a+1)*d).  ``F`` stacks the training
    inputs' projected maps A.B(x_a) in the same order, so the training
    gram is ``F K F^T`` with K the full-coalition anchor gram.
    """

    embedding: cme.CoalitionEmbedding
    noise: float
    alpha: np.ndarray
    training_X: np.ndarray
    F: np.ndarray                           # (n*d) x n_anchors
    anchor_gram: np.ndarray                 # n_anchors x n_anchors
    gram_factor: Optional[CholeskyFactor]   # of F K F^T + noise*I; None if n == 0

    @property
    def design(self) -> CoalitionDesign:
        return self.embedding.design

    @property
    def n(self) -> int:
        return self.training_X.shape[0]

    @property
    def d(self) -> int:
        return self.design.d


def _embedding_map(anchors: np.ndarray, kernel: KernelParams,
                   design: CoalitionDesign, lam: float, x: np.ndarray) -> np.ndarray:
    """Projected embedding map M(x) = A B(x), shape d x n_anchors.

    Row products M(x) K M(x')^T realize the explanation kernel.
    """
    return cme.coalition_embedding(kernel, anchors, design, lam).projected(x)[0]


def kappa(model: ShapleyPriorModel, x: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Matrix-valued explanation kernel between two inputs, shape d x d."""
    Mx = model.embedding.projected(x)[0]
    Mx2 = model.embedding.projected(x2)[0]
    return Mx @ model.anchor_gram @ Mx2.T


def fit(data: ExplanationDataset, anchors: np.ndarray, kernel: KernelParams,
        design: CoalitionDesign, lam: float, noise: float) -> ShapleyPriorModel:
    """Fit the multi-output GP: solve (gram + noise*I) alpha = vec(Phi)."""
    if noise <= 0:
        raise ValueError("noise must be positive")
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    n, d = data.n, data.d
    if n * d > MAX_SYSTEM_SIZE:
        raise ValueError(
            f"system size n*d = {n * d} exceeds {MAX_SYSTEM_SIZE}; subsample the "
            "explanations before fitting"
        )
    full = kernels.FeatureSubset.full(d)
    K_anchor = kernels.gram(kernel, full, anchors, anchors)
    embedding = cme.coalition_embedding(kernel, anchors, design, lam)
    F = embedding.projected(data.X).reshape(n * d, anchors.shape[0])
    factor, alpha = None, np.zeros(0)
    if n > 0:
        gram = numerics.symmetrize(F @ K_anchor @ F.T)
        factor = numerics.cholesky_psd(gram + noise * np.eye(n * d))
        alpha = factor.solve(data.Phi.reshape(-1))
    return ShapleyPriorModel(
        embedding=embedding, noise=noise, alpha=alpha, training_X=data.X, F=F,
        anchor_gram=K_anchor, gram_factor=factor,
    )


def _predict_block(model: ShapleyPriorModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_new, d = X.shape[0], model.d
    n_train_rows, m = model.F.shape
    M = model.embedding.projected(X)                       # n_new x d x m
    MK = M @ model.anchor_gram
    cov = MK @ M.transpose(0, 2, 1)                        # prior kappa(x, x)
    if model.n == 0:
        return np.zeros((n_new, d)), cov
    cross = MK.reshape(n_new * d, m) @ model.F.T           # kappa(x, X_train) rows
    means = (cross @ model.alpha).reshape(n_new, d)
    solved = model.gram_factor.solve(cross.T).T.reshape(n_new, d, n_train_rows)
    cov = cov - cross.reshape(n_new, d, n_train_rows) @ solved.transpose(0, 2, 1)
    return means, numerics.symmetrize(cov)


def predict_batch(model: ShapleyPriorModel,
                  X_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means (n x d) and covariances (n x d x d) at new inputs."""
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    per_input = model.d * max(model.F.shape)
    step = max(1, PREDICT_BLOCK_ENTRIES // per_input)
    means, covs = zip(*(_predict_block(model, X_new[lo:lo + step])
                        for lo in range(0, max(X_new.shape[0], 1), step)))
    return np.concatenate(means), np.concatenate(covs)


def predict(model: ShapleyPriorModel, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and covariance of the explanation at a new input."""
    means, covs = predict_batch(model, np.reshape(x_new, (1, -1)))
    return means[0], covs[0]


def induced_payoff(model: ShapleyPriorModel, x_new: np.ndarray) -> np.ndarray:
    """Payoff vector whose projection under A is the predictive mean.

    v_tilde = B(x_new) K * sum_a B(x_a)^T A^T alpha_a, so
    A @ v_tilde == predict(model, x_new)[0].
    """
    if model.n == 0:
        return np.zeros(model.design.n_coalitions)
    B_new = model.embedding.weights(x_new)[:, :, 0]        # ell x n_anchors
    return B_new @ model.anchor_gram @ (model.F.T @ model.alpha)


def farthest_point_anchors(X: np.ndarray, count: int) -> np.ndarray:
    """Greedy farthest-point subset of X for CME anchors (all rows if count >= n)."""
    if count < 1:
        raise CountOutOfRange(f"anchor count must be at least 1, got {count}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return X[gp.farthest_point_indices(X, min(count, X.shape[0]))]
