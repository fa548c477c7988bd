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


# entries from which a symmetric stack's mirrored text beats formatting every
# entry: its index map and object array cost a fixed ~20 us.  Best of 2,001
# calls, mirrored against plain: 3x3 31 vs 7 us, 10x10 65 vs 58 us, 12x12
# 79 vs 82 us, 16x16 117 vs 138 us, (8, 6, 6) 153 vs 158 us
MIRROR_MIN_ENTRIES = 256


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
    GP-term factor R; ``sigma2_samples``, present for the Bayesian variants,
    adds the design's ``(Z^T W Z)^-1 * sigma2[k]`` to instance k's covariance.
    ``covariances`` builds them all in one batched product for every reader.
    """

    means: np.ndarray                       # n x d
    cov_factor: np.ndarray                  # d x n x n_inducing
    design: CoalitionDesign
    payoff_means: np.ndarray                # ell x n
    sigma2_samples: Optional[np.ndarray] = None
    feature_names: Optional[list[str]] = None

    @property
    def n_instances(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    def covariances(self, index: slice = slice(None)) -> np.ndarray:
        """Marginal d x d covariances of the instances ``index`` selects, n x d x d."""
        R = self.cov_factor[:, index].transpose(1, 0, 2)     # n x d x n_inducing
        covs = numerics.symmetrize(R @ R.transpose(0, 2, 1))
        if self.sigma2_samples is not None:
            covs = covs + self.sigma2_samples[index, None, None] * _bayes_term(self.design)
        return covs

    def covariance(self, k: int) -> np.ndarray:
        """Marginal d x d covariance of instance k."""
        return self.covariances(slice(k, k + 1 or None))[0]      # k = -1 too

    def cross_covariance(self, a: int, b: int) -> np.ndarray:
        """d x d covariance block between instances a and b (GP term only)."""
        return self.cov_factor[:, a, :] @ self.cov_factor[:, b, :].T

    def stds(self) -> np.ndarray:
        """Per-instance, per-feature standard deviations, shape n x d."""
        return marginal_sds(self.covariances())

    def to_json(self, level: float | None = None, **extra) -> str:
        """``document`` of this batch with its names, design digest and sigma2."""
        names = self.feature_names or default_names(self.d)
        if self.sigma2_samples is not None:
            extra["sigma2"] = self.sigma2_samples
        return document(self.means, self.covariances(), level, **extra,
                        feature_names=names, design_digest=self.design.digest())

    def to_csv(self, level: float = 0.95) -> str:
        names = csv_names(self.feature_names or default_names(self.d))
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
    the posterior's ``cov_lower``.  Both products come from
    ``cme.projected_batch``, which streams the embedding weights, so no
    coalition-sized tensor is ever built.
    """
    P, E = cme.projected_batch(posterior, design, X_explain, lam)  # n x d x n_I, ell x n
    means = (design.A @ E).T
    R = (P @ posterior.cov_lower).transpose(1, 0, 2)       # d x n x n_I
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
    resid = (E - design.Z @ Phi)[1:-1]                     # interior rows x n
    weighted = np.einsum("jk,j,jk->k", resid, design.weights[1:-1], resid)
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
    """(Z^T W Z)^-1 over the interior coalitions and finite weights: the
    design's ``ZtWZ_inverse``, taken from the factor that built its A."""
    return design.ZtWZ_inverse


def _with_bayes(batch: ExplanationBatch, config: BayesConfig) -> ExplanationBatch:
    """``batch`` plus the Bayesian WLS term: each instance's covariance gains
    ``(Z^T W Z)^-1 * sigma2[k]``, with sigma2 drawn once per instance from the
    scaled inverse chi-squared posterior built on the payoff means."""
    design = batch.design
    s2 = bayes_s2(batch.payoff_means, design, batch.means)
    return replace(batch, sigma2_samples=sample_sigma2(config, design.n_coalitions, s2))


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


def csv_names(names: list[str]) -> list[str]:
    """Names as CSV cells, quoted as ``csv.writer`` quotes them by default: only
    a name holding a comma, a double quote, CR or LF, its quotes doubled."""
    return ['"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s
            for s in names]


def marginal_sds(covs: np.ndarray) -> np.ndarray:
    """Standard deviations on the diagonals of a stack of covariances (n x d x d),
    shape n x d; a negative rounding residue reads as 0."""
    return np.sqrt(np.maximum(np.diagonal(covs, axis1=1, axis2=2), 0.0))


def document(means: np.ndarray, covs: np.ndarray, level: float | None = None,
             **entries) -> str:
    """The one writer of the explanation document: ``means`` (n x d), ``cov``
    (n x d x d), at a credible ``level`` its ``lo``/``hi`` bounds, and ``entries``."""
    doc = {**entries, "means": means, "cov": covs}
    if level is not None:
        lo, hi = credible_intervals(means, marginal_sds(covs), level)
        doc.update(credible_level=level, lo=lo, hi=hi)
    return dumps(doc)


def default_names(d: int) -> list[str]:
    """The feature names ``x_1`` .. ``x_d`` of explanations that carry none."""
    return [f"x_{i + 1}" for i in range(d)]


def dumps(doc: dict) -> str:
    """The package's one JSON writer: ``json.dumps(doc, indent=2, sort_keys=True)``
    byte for byte, where ``doc``'s string-keyed dicts may hold numeric ndarrays.

    A non-empty array of ndim k takes one C-level ``json.dumps`` of its list
    and k ``str.replace`` passes, longest token first: a number's text holds
    no bracket and no ", ", so only the lists at depth i separate their items
    by ``"]" * (k-1-i) + ", " + "[" * (k-1-i)``.  A stack of square matrices
    each equal to its transpose bit for bit (a covariance) of at least
    ``MIRROR_MIN_ENTRIES`` entries formats only its upper triangles and
    mirrors their text.  Any other value (empty and 0-d arrays too) is
    ``json.dumps(value, indent=2)``, re-indented.
    """
    return _dumps(doc, 0)


def _symmetric(value: np.ndarray) -> bool:
    """True iff ``value`` is a float64 stack of square matrices, each equal to
    its transpose bit for bit: ``0.0 == -0.0``, but their reprs differ."""
    if value.dtype != np.float64 or value.ndim < 2 or value.shape[-1] != value.shape[-2]:
        return False
    bits = value.view(np.int64)
    return np.array_equal(bits, np.swapaxes(bits, -1, -2))


def _mirrored_text(value: np.ndarray) -> str:
    """``json.dumps(value.tolist())`` for a non-empty ``_symmetric`` value: each
    matrix's upper triangle is formatted once, in one C-level ``json.dumps``,
    and entry (i, j) takes the text of entry (min(i, j), max(i, j))."""
    d = value.shape[-1]
    upper = np.triu_indices(d)
    tokens = np.array(json.dumps(value[..., upper[0], upper[1]].ravel().tolist())[1:-1]
                      .split(", "), dtype=object)
    index = np.zeros((d, d), dtype=np.intp)
    index[upper] = np.arange(upper[0].size)
    index = np.maximum(index, index.T)          # the lower triangle is 0 before this
    stacks = np.arange(value.size // (d * d))[:, None] * upper[0].size
    items = tokens[(stacks + index.ravel()).ravel()].tolist()
    for size in reversed(value.shape):          # innermost lists first
        items = ["[" + ", ".join(items[i:i + size]) + "]"
                 for i in range(0, len(items), size)]
    return items[0]


def _dumps(value, level: int) -> str:
    """``value`` as ``dumps`` writes it when its first line sits at ``level``."""
    pad = "\n" + "  " * level
    if isinstance(value, dict) and value:
        items = (f"{pad}  {json.dumps(key)}: {_dumps(value[key], level + 1)}"
                 for key in sorted(value))
        return "{" + ",".join(items) + pad + "}"
    if not isinstance(value, np.ndarray):
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)
    if not (value.ndim and value.size and value.dtype.kind in "biuf"):
        return _dumps(value.tolist(), level)
    k = value.ndim
    ind = [pad + "  " * q for q in range(k + 1)]         # the indent of depth q
    opens = ["".join("[" + ind[q + 1] for q in range(lo, k)) for lo in range(k + 1)]
    closes = ["".join(ind[q] + "]" for q in range(k - 1, lo - 1, -1)) for lo in range(k + 1)]
    mirror = value.size >= MIRROR_MIN_ENTRIES and _symmetric(value)
    text = _mirrored_text(value) if mirror else json.dumps(value.tolist())
    body = text[k:-k]
    for i in range(k):
        body = body.replace("]" * (k - 1 - i) + ", " + "[" * (k - 1 - i),
                            closes[i + 1] + "," + ind[i + 1] + opens[i + 1])
    return opens[0] + body + closes[0]


def credible_intervals(means: np.ndarray, sds: np.ndarray,
                       level: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
    """Central Gaussian credible intervals means +- z * sds, per entry, where
    z = ``numerics.ndtri((1 + level) / 2)``, scipy.special's ``ndtri`` bit for bit."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    z = numerics.ndtri(0.5 * (1.0 + level))
    return means - z * sds, means + z * sds
