"""Coalition designs, Shapley-kernel weights, and the exact brute-force oracle.

The projection matrix A maps a payoff vector over coalitions to Shapley
values.  Infinite weights on the empty and grand coalitions are realized
as exact equality constraints eliminated through the KKT conditions, so A
remains a single linear map that pushes forward both the mean vector and
the covariance matrix of a stochastic game.  A design over ell coalitions
is built in O(ell * d) memory: no ell x ell matrix is ever formed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import comb, fsum

import numpy as np

from . import numerics
from .errors import (
    BoundaryCoalition,
    CountOutOfRange,
    DimensionTooLarge,
    SingularSystem,
)

ENUMERATION_CAP = 20
# most features a sampled design takes; its masks are int64
MAX_MASK_WIDTH = 30
ORACLE_CAP = 12
PROJECTION_JITTER = 1e-10


def shapley_kernel_weight(d: int, s: int) -> float:
    """Shapley kernel weight (d-1) / (C(d,s) * s * (d-s)) for interior sizes."""
    if s <= 0 or s >= d:
        raise BoundaryCoalition(
            "boundary coalitions carry infinite weight and are handled as constraints"
        )
    return (d - 1) / (comb(d, s) * s * (d - s))


@dataclass(frozen=True)
class CoalitionDesign:
    """An ordered set of coalitions with its constrained-WLS projection.

    ``masks`` (int64, bit u set when feature u plays) is sorted by
    (size, mask value), so the empty coalition is first and the grand
    coalition last; row j of every per-coalition array belongs to
    ``masks[j]``.  ``weights`` holds the finite
    Shapley-kernel weight per coalition with zeros at the two boundary rows
    (their infinite weights live in the equality constraints).
    ``ZtWZ_inverse`` is (Z_i^T W_i Z_i)^-1 over the interior rows ``1:-1``.
    """

    d: int
    masks: np.ndarray
    Z: np.ndarray
    weights: np.ndarray
    A: np.ndarray
    ZtWZ_interior: np.ndarray
    ZtWZ_inverse: np.ndarray

    @property
    def n_coalitions(self) -> int:
        return len(self.masks)

    def digest(self) -> str:
        """SHA-256 hex of d and the masks, each as little-endian int64 bytes."""
        data = np.concatenate(([self.d], self.masks)).astype("<i8").tobytes()
        return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class StochasticGame:
    """Jointly Gaussian payoffs over the coalitions of a design."""

    design: CoalitionDesign
    payoff_mean: np.ndarray
    payoff_cov: np.ndarray

    def __post_init__(self):
        ell = self.design.n_coalitions
        if self.payoff_mean.shape != (ell,) or self.payoff_cov.shape != (ell, ell):
            raise ValueError("payoff moments do not match the design size")


def _design_from_masks(d: int, masks: np.ndarray) -> CoalitionDesign:
    """The design over ``masks`` with its constrained-WLS projection A (d x ell).

    A minimizes the weighted squared residuals of the interior coalitions
    subject to phi_0 = v_empty and phi_0 + sum_i phi_i = v_full, solved by
    eliminating the constraints and factoring the reduced system
    H = Z_i^T W_i Z_i, whose factor also gives H^-1.  Rows sort by (size,
    mask value), so the empty coalition is row 0, the grand coalition row
    ell - 1 and the interior rows are ``1:-1``.  With no interior rows the
    ridge limit allocates v_full - v_empty equally and H, H^-1 are zero.
    Every array is ell x d or smaller.

    The Shapley values are determined iff rank(Z_i^T Z_i + 1 1^T) == d
    (interior rows plus the efficiency row): integer counts, exact in
    float64, with no weights.  H may still be singular on a determined design; the
    factorization's 1e-10 jitter cap absorbs that.

    Raises
    ------
    SingularSystem
        If the interior rows leave some direction of phi undetermined.
    """
    # duplicates from with-replacement sampling merge by summing weights
    masks, counts = np.unique(np.asarray(masks, dtype=np.int64), return_counts=True)
    Z = ((masks[:, None] >> np.arange(d)) & 1).astype(float)
    sizes = Z.sum(axis=1).astype(int)
    order = np.lexsort((masks, sizes))
    masks, Z = masks[order], Z[order]
    ell = len(masks)
    per_size = np.array([0.0] + [shapley_kernel_weight(d, s) for s in range(1, d)] + [0.0])
    weights = counts[order] * per_size[sizes[order]]

    # Efficiency rows: 1^T A v = v_full - v_empty regardless of interior fit.
    delta = np.zeros(ell)
    delta[-1], delta[0] = 1.0, -1.0
    if ell == 2:
        A, H, H_inv = np.tile(delta / d, (d, 1)), np.zeros((d, d)), np.zeros((d, d))
    else:
        Zi = Z[1:-1]
        rank = np.linalg.matrix_rank(Zi.T @ Zi + 1.0)
        if rank < d:
            raise SingularSystem(f"the {ell - 2} distinct interior coalitions and the "
                                 f"efficiency row have rank {rank} < d = {d}, so some "
                                 "Shapley values are undetermined; use more coalitions")
        ZW = Zi.T * weights[1:-1]                        # d x (ell - 2)
        H = numerics.symmetrize(ZW @ Zi)
        factor = numerics.cholesky_psd(H, max_jitter=PROJECTION_JITTER)
        # G maps v -> Z_i^T W_i (v_interior - v_empty); column 0 is correctly rounded
        G = np.zeros((d, ell))
        G[:, 1:-1] = ZW
        G[:, 0] = [-fsum(row.tolist()) for row in ZW]
        HinvG = factor.solve(G)
        h1 = factor.solve(np.ones(d))
        mu_row = (np.ones(d) @ HinvG - delta) / float(np.ones(d) @ h1)
        A = HinvG - np.outer(h1, mu_row)
        H_inv = numerics.symmetrize(factor.solve(np.eye(d)))
    return CoalitionDesign(
        d=d, masks=masks, Z=Z, weights=weights, A=A, ZtWZ_interior=H, ZtWZ_inverse=H_inv,
    )


def enumerate_coalitions(d: int) -> CoalitionDesign:
    """All 2^d coalitions ordered by (size, mask value)."""
    if not (1 <= d <= ENUMERATION_CAP):
        raise DimensionTooLarge(f"full enumeration supports d <= {ENUMERATION_CAP}")
    return _design_from_masks(d, np.arange(1 << d))


def sample_coalitions(d: int, count: int, seed: int = 0) -> CoalitionDesign:
    """Uniformly sampled coalitions, always including the two boundary ones.

    Takes 1 <= d <= MAX_MASK_WIDTH.  For d <= 20 the interior coalitions
    are sampled without replacement; beyond that they are sampled with
    replacement and duplicates are merged (their Shapley-kernel weights
    coincide anyway, and the merge keeps the WLS system well posed).
    """
    if not (1 <= d <= MAX_MASK_WIDTH):
        raise DimensionTooLarge(f"sampled designs support d <= {MAX_MASK_WIDTH}, got d={d}")
    if count < 2:
        raise CountOutOfRange("need at least the empty and grand coalitions")
    rng = np.random.default_rng(seed)
    if d <= ENUMERATION_CAP:
        n_interior = (1 << d) - 2
        if count > (1 << d):
            raise CountOutOfRange(f"cannot sample {count} distinct coalitions for d={d}")
        interior = rng.choice(n_interior, size=count - 2, replace=False) + 1
    else:
        interior = rng.integers(1, (1 << d) - 1, size=count - 2, dtype=np.int64)
    return _design_from_masks(d, np.concatenate(([0, (1 << d) - 1], interior)))


def _marginal_coefficients(design: CoalitionDesign) -> np.ndarray:
    """Per-player linear weights realizing the classic marginal-sum formula.

    Row i collects +c_{|S|} at S u {i} and -c_{|S|} at S over all subsets S
    excluding i, with c_s = (1/d) * C(d-1, s)^-1.  Applying the matrix to a
    payoff vector evaluates the marginal sum exactly.
    """
    d = design.d
    pos = np.empty(1 << d, dtype=int)          # row of each mask
    pos[design.masks] = np.arange(design.n_coalitions)
    C = np.zeros((d, design.n_coalitions))
    coeff = [1.0 / (d * comb(d - 1, s)) for s in range(d)]
    for i in range(d):
        bit = 1 << i
        for mask in range(1 << d):
            if mask & bit:
                continue
            c = coeff[bin(mask).count("1")]
            C[i, pos[mask | bit]] += c
            C[i, pos[mask]] -= c
    return C


def _require_oracle(game_or_design) -> CoalitionDesign:
    design = getattr(game_or_design, "design", game_or_design)
    if design.d > ORACLE_CAP:
        raise DimensionTooLarge(f"brute-force oracle supports d <= {ORACLE_CAP}")
    if design.n_coalitions != (1 << design.d):
        raise ValueError("the brute-force oracle requires a full enumeration design")
    return design


def exact_ssv(game: StochasticGame) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force mean and covariance of the stochastic Shapley values.

    Evaluates the marginal-contribution sum over all coalition pairs,
    independently of the WLS projection; serves as the oracle for it.
    """
    design = _require_oracle(game)
    C = _marginal_coefficients(design)
    mean = C @ game.payoff_mean
    cov = numerics.symmetrize(C @ game.payoff_cov @ C.T)
    return mean, cov


def shapley_of_variance_game(game: StochasticGame) -> np.ndarray:
    """Deterministic Shapley values of the payoff-variance game S -> Var[nu(S)]."""
    design = _require_oracle(game)
    C = _marginal_coefficients(design)
    return C @ np.diag(game.payoff_cov)
