"""ARD radial basis function kernel and its coalition-restricted variants.

A coalition of features induces a kernel on the corresponding sub-feature
space: distances are accumulated over the active features only.  The empty
coalition uses the empty-product convention k == 1, which makes the
conditional-mean-embedding weight for the empty coalition a plain average
and recovers the marginal expectation of the integrand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, TooFewPoints

MAX_MASK_WIDTH = 30
# bound on |a|^2 + |b|^2 under which no step of the gram's expansion overflows
NORM_LIMIT = np.finfo(float).max / 4


@dataclass(frozen=True)
class KernelParams:
    """Output scale and per-feature lengthscales of an ARD RBF kernel."""

    variance: float
    lengthscales: np.ndarray

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        object.__setattr__(self, "lengthscales", ls)
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ValueError("variance must be positive and finite")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise ValueError("lengthscales must be positive and finite")

    @property
    def dim(self) -> int:
        return self.lengthscales.shape[0]


@dataclass(frozen=True)
class FeatureSubset:
    """A coalition of features encoded as a bitmask over ``d`` features."""

    mask: int
    d: int

    def __post_init__(self):
        if not (1 <= self.d <= MAX_MASK_WIDTH):
            raise ValueError(f"feature count must be in [1, {MAX_MASK_WIDTH}]")
        if not (0 <= self.mask < (1 << self.d)):
            raise ValueError("mask out of range for feature count")

    @classmethod
    def empty(cls, d: int) -> "FeatureSubset":
        return cls(0, d)

    @classmethod
    def full(cls, d: int) -> "FeatureSubset":
        return cls((1 << d) - 1, d)

    @classmethod
    def from_indices(cls, indices, d: int) -> "FeatureSubset":
        mask = 0
        for i in indices:
            mask |= 1 << int(i)
        return cls(mask, d)

    def indices(self) -> np.ndarray:
        return np.array([i for i in range(self.d) if self.mask >> i & 1], dtype=int)

    def size(self) -> int:
        return int(self.mask).bit_count()


def gram(params: KernelParams, subset: FeatureSubset, A: np.ndarray,
         B: np.ndarray) -> np.ndarray:
    """Coalition-restricted ARD RBF gram matrix between rows of A and B.

    Entry (i, j) is ``variance * exp(-0.5 * sum_{u in subset}
    (A[i,u]-B[j,u])^2 / ls[u]^2)``; the empty coalition yields the all-ones
    matrix (times nothing: the output scale is deliberately dropped there so
    the empty-coalition weights reduce to a plain average).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != params.dim or B.shape[1] != params.dim:
        raise DimensionMismatch(
            f"inputs have {A.shape[1]}/{B.shape[1]} columns, kernel expects {params.dim}"
        )
    if subset.d != params.dim:
        raise DimensionMismatch("subset and kernel disagree on feature count")
    idx = subset.indices()
    if idx.size == 0:
        return np.ones((A.shape[0], B.shape[0]))
    ls = params.lengthscales[idx]
    with np.errstate(over="ignore"):    # an overflow here fails the check
        As, Bs = A[:, idx] / ls, B[:, idx] / ls
        sa, sb = np.sum(As**2, axis=1), np.sum(Bs**2, axis=1)
        expand = sa.max(initial=0.0) + sb.max(initial=0.0) <= NORM_LIMIT
    if expand:
        # |a|^2 - 2 a.b + |b|^2 stays below the largest float: clipped at 0,
        # then variance * exp(-sq / 2), every step in the one output buffer
        out = (2.0 * As) @ Bs.T
        np.subtract(sa[:, None], out, out=out)
        out += sb[None, :]
        np.maximum(out, 0.0, out=out)
    else:
        # scaled inputs too large for the expansion: sum the squared scaled
        # differences directly; one that overflows is inf and gives k == 0
        out = np.zeros((A.shape[0], B.shape[0]))
        with np.errstate(over="ignore"):
            for u, l in zip(idx, ls):
                out += ((A[:, u, None] - B[None, :, u]) / l) ** 2
    out *= -0.5
    np.exp(out, out=out)
    out *= params.variance
    return out


def median_heuristic(X: np.ndarray) -> np.ndarray:
    """Per-dimension median of pairwise absolute differences.

    Dimensions whose median distance is zero (constant or near-constant
    columns) fall back to a lengthscale of 1.0.  On a sorted column the
    pairwise distances are the gaps ``xs[k:] - xs[:-k]``, k = 1..n-1; they
    fill one buffer of n(n-1)/2 entries, reused across columns.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    if n < 2:
        raise TooFewPoints("median heuristic needs at least two points")
    diffs = np.empty(n * (n - 1) // 2)
    out = np.empty(d)
    for u in range(d):
        xs = np.sort(X[:, u])
        pos = 0
        for k in range(1, n):
            np.subtract(xs[k:], xs[:-k], out=diffs[pos:pos + n - k])
            pos += n - k
        med = float(np.median(diffs, overwrite_input=True))
        out[u] = med if med > 0.0 else 1.0
    return out
