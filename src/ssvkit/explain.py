"""Stochastic Shapley-value explainers for GP posteriors.

Three variants share the same mean explanations and differ in the
covariance they attach:

* ``gpshap`` propagates the GP posterior covariance through the
  conditional-mean-embedding weights and the projection matrix A.  The
  weights are streamed through A in bounded blocks of coalitions
  (``cme.projected_batch``); the ell x n_inducing x n weight tensor is
  never built.
* ``bayesshap_deterministic`` captures only the coalition-sampling
  estimation uncertainty of the weighted least squares fit.
* ``bayesgpshap`` adds both terms; conditionally on the sampled noise
  scale the covariances are additive.

Cross-instance covariance is never materialized: it lives in the low-rank
factor R of shape (d, n_instances, n_inducing); the covariance between
(feature i, instance a) and (feature m, instance b) is
``sum_l R[i, a, l] * R[m, b, l]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import cme, numerics
from .coalition import CoalitionDesign
from .gp import GPPosterior


@dataclass(frozen=True)
class BayesConfig:
    """Prior hyperparameters and seed for the Bayesian WLS noise scale."""

    ell0: float = 0.1
    sigma0_sq: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, value in (("ell0", self.ell0), ("sigma0_sq", self.sigma0_sq)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class ExplanationBatch:
    """Explanations for a batch of instances.

    ``means`` has one row per instance.  ``cov_factor`` is the low-rank
    GP-term factor R; ``sigma2_samples`` and ``bayes_term`` are present for
    the Bayesian variants and add ``bayes_term * sigma2[k]`` to instance
    k's covariance.
    """

    means: np.ndarray                       # n x d
    cov_factor: np.ndarray                  # d x n x n_inducing
    design: CoalitionDesign
    payoff_means: np.ndarray                # ell x n
    sigma2_samples: Optional[np.ndarray] = None
    bayes_term: Optional[np.ndarray] = None
    feature_names: Optional[list[str]] = None

    @property
    def n_instances(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    def covariance(self, k: int) -> np.ndarray:
        """Marginal d x d covariance of instance k."""
        R = self.cov_factor[:, k, :]
        cov = numerics.symmetrize(R @ R.T)
        if self.sigma2_samples is not None and self.bayes_term is not None:
            cov = cov + self.bayes_term * float(self.sigma2_samples[k])
        return cov

    def cross_covariance(self, a: int, b: int) -> np.ndarray:
        """d x d covariance block between instances a and b (GP term only)."""
        return self.cov_factor[:, a, :] @ self.cov_factor[:, b, :].T

    def stds(self) -> np.ndarray:
        """Per-instance, per-feature standard deviations, shape n x d."""
        return marginal_sds(np.stack([self.covariance(k) for k in range(self.n_instances)]))

    def to_json(self, **extra) -> str:
        """The explanation document, with the JSON-ready ``extra`` entries
        added to it: one encoding pass for whatever a caller writes."""
        names = self.feature_names or [f"x_{i + 1}" for i in range(self.d)]
        doc = {
            **extra,
            "feature_names": names,
            "means": self.means.tolist(),
            "design_digest": self.design.digest(),
            "cov": [self.covariance(k).tolist() for k in range(self.n_instances)],
        }
        if self.sigma2_samples is not None:
            doc["sigma2"] = self.sigma2_samples.tolist()
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_csv(self, level: float = 0.95) -> str:
        names = self.feature_names or [f"x_{i + 1}" for i in range(self.d)]
        sds = self.stds()
        lo, hi = credible_intervals(self.means, sds, level)
        rows = (f"{k},{names[i]},{float(self.means[k, i])!r},{float(sds[k, i])!r},"
                f"{float(lo[k, i])!r},{float(hi[k, i])!r}" for k, i in np.ndindex(*sds.shape))
        return "\n".join(["instance,feature,mean,sd,lo,hi", *rows]) + "\n"


def gpshap(posterior: GPPosterior, design: CoalitionDesign, X_explain: np.ndarray,
           lam: float | None = None,
           feature_names: Optional[list[str]] = None) -> ExplanationBatch:
    """Analytic Gaussian explanations under the GP posterior.

    Means are A applied to the estimated payoff means; the covariance
    factor is the projected embedding A.B(x) (d x n_I per instance) times
    the Cholesky factor of the posterior covariance.  Both come from
    ``cme.projected_batch``, which streams the embedding weights, so no
    coalition-sized tensor is ever built.
    """
    P, E = cme.projected_batch(posterior, design, X_explain, lam)  # n x d x n_I, ell x n
    means = (design.A @ E).T
    if np.count_nonzero(posterior.cov_at_inducing) == 0:
        # degenerate posterior: keep the factor exactly zero instead of
        # letting the jittered Cholesky introduce a sqrt(jitter) floor
        L = np.zeros_like(posterior.cov_at_inducing)
    else:
        L = numerics.cholesky_psd(posterior.cov_at_inducing, max_jitter=1e-8).lower
    R = (P @ L).transpose(1, 0, 2)                         # d x n x n_I
    return ExplanationBatch(
        means=means, cov_factor=R, design=design, payoff_means=E,
        feature_names=feature_names,
    )


def bayes_s2(E: np.ndarray, design: CoalitionDesign, means: np.ndarray) -> np.ndarray:
    """Per-instance average weighted residual plus explanation norm.

    ``s2[k] = (1/ell) * [(v - Z Phi)^T W (v - Z Phi) + Phi^T Phi]`` with the
    weighted residual taken over the interior coalitions (boundary residuals
    vanish by construction) and ell the total coalition count.
    """
    E = np.atleast_2d(E)
    ell = design.n_coalitions
    Phi = means.T                                          # d x n
    resid = E - design.Z @ Phi                             # ell x n
    interior = design.interior
    w = design.weights[interior]
    weighted = np.einsum("jk,j,jk->k", resid[interior], w, resid[interior])
    return (weighted + np.einsum("ik,ik->k", Phi, Phi)) / ell


def sample_sigma2(config: BayesConfig, ell: int, s2: np.ndarray | float) -> np.ndarray:
    """Draw noise scales from the scaled inverse chi-squared posterior.

    df = ell0 + ell and scale = (ell0*sigma0^2 + ell*s2) / (ell0 + ell);
    a draw is df * scale / chi2_df, one per entry of s2, from ``config.seed``.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    s2 = np.atleast_1d(np.asarray(s2, dtype=float))
    df = config.ell0 + ell
    scale = (config.ell0 * config.sigma0_sq + ell * s2) / df
    chi2 = np.random.default_rng(config.seed).chisquare(df, size=s2.shape)
    return df * scale / chi2


def _bayes_term(design: CoalitionDesign) -> np.ndarray:
    """(Z^T W Z)^-1 over the interior coalitions and finite weights."""
    d = design.d
    if design.interior.size == 0:
        return np.zeros((d, d))
    factor = numerics.cholesky_psd(design.ZtWZ_interior, max_jitter=1e-8)
    return numerics.symmetrize(factor.solve(np.eye(d)))


def _with_bayes(batch: ExplanationBatch, config: BayesConfig) -> ExplanationBatch:
    """``batch`` plus the Bayesian WLS term: each instance's covariance gains
    ``(Z^T W Z)^-1 * sigma2[k]``, with sigma2 drawn once per instance from the
    scaled inverse chi-squared posterior built on the payoff means."""
    design = batch.design
    s2 = bayes_s2(batch.payoff_means, design, batch.means)
    return replace(batch, sigma2_samples=sample_sigma2(config, design.n_coalitions, s2),
                   bayes_term=_bayes_term(design))


def bayesgpshap(posterior: GPPosterior, design: CoalitionDesign,
                X_explain: np.ndarray, lam: float | None = None,
                config: BayesConfig = BayesConfig(),
                feature_names: Optional[list[str]] = None) -> ExplanationBatch:
    """GP-SHAP plus the Bayesian WLS estimation-uncertainty term; means are
    identical to gpshap's."""
    return _with_bayes(gpshap(posterior, design, X_explain, lam, feature_names), config)


def bayesshap_deterministic(payoffs: np.ndarray, design: CoalitionDesign,
                            config: BayesConfig = BayesConfig(),
                            feature_names: Optional[list[str]] = None) -> ExplanationBatch:
    """Bayesian WLS explanations for deterministic payoff vectors.

    ``payoffs`` holds one column per instance (or a single vector); the GP
    covariance term is absent, so the covariance is the uniform
    ``(Z^T W Z)^-1 * sigma2[k]`` structure.
    """
    E = np.asarray(payoffs, dtype=float)
    if E.ndim == 1:
        E = E[:, None]
    if E.shape[0] != design.n_coalitions:
        raise ValueError("payoff rows must match the design's coalition count")
    base = ExplanationBatch(means=(design.A @ E).T,
                            cov_factor=np.zeros((design.d, E.shape[1], 1)), design=design,
                            payoff_means=E, feature_names=feature_names)
    return _with_bayes(base, config)


def marginal_sds(covs: np.ndarray) -> np.ndarray:
    """Standard deviations on the diagonals of a stack of covariances (n x d x d),
    shape n x d; a negative rounding residue reads as 0."""
    return np.sqrt(np.maximum(np.diagonal(covs, axis1=1, axis2=2), 0.0))


def credible_intervals(means: np.ndarray, sds: np.ndarray,
                       level: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
    """Central Gaussian credible intervals means +- z * sds, per entry."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    from scipy.special import ndtri  # not at module import: it slows every command's start

    z = float(ndtri(0.5 * (1.0 + level)))
    return means - z * sds, means + z * sds
