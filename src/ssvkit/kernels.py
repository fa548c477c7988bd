"""ARD radial basis function kernel and its coalition-restricted variants.

A coalition of features induces a kernel on the corresponding sub-feature
space: distances are accumulated over the active features only.  The empty
coalition uses the empty-product convention k == 1, which makes the
conditional-mean-embedding weight for the empty coalition a plain average
and recovers the marginal expectation of the integrand.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooFewPoints

# bound on |a|^2 + |b|^2 under which no step of the gram's GEMM form overflows
NORM_LIMIT = np.finfo(float).max / 4
# rows median_heuristic reads at most: n(n-1)/2 pair distances, 4.0 MB
MEDIAN_MAX_ROWS = 1000


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
        if self.d < 1:
            raise ValueError("feature count must be at least 1")
        if not (0 <= self.mask < (1 << self.d)):
            raise ValueError("mask out of range for feature count")

    @classmethod
    def empty(cls, d: int) -> "FeatureSubset":
        return cls(0, d)

    @classmethod
    def full(cls, d: int) -> "FeatureSubset":
        return cls((1 << d) - 1, d)


def gram(params: KernelParams, mask: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Coalition-restricted ARD RBF gram matrix between rows of A and B: the
    one-mask case of ``grams``."""
    return grams(params, [mask], A, B)[0]


def grams(params: KernelParams, masks: Sequence[int], A: np.ndarray,
          B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Grams between rows of A and B of masks that select equally many features,
    one (c, m, n) stack; a mixed-size mask list is a ValueError.  ``out``, a
    C-ordered float (c, m, n) array, receives the stack instead of a new one.

    A mask is an int whose bit u selects feature u; ``(1 << d) - 1`` is the
    full gram.  Entry (j, i, l) is ``variance * exp(-0.5 * sum_{u in mask_j}
    (A[i,u]-B[l,u])^2 / ls[u]^2)``; the empty coalition yields all ones
    (times nothing: the output scale is deliberately dropped there so the
    empty-coalition weights reduce to a plain average).

    The squared distances come from one stacked GEMM, (c, m, k+2) @ (c, k+2,
    n), of the scaled inputs augmented with their halved squared norms,
    ``-|a - b|^2 / 2 = a.b - |a|^2/2 - |b|^2/2``, then elementwise passes
    over the stack: clip at 0, exp, and scale unless the variance is 1.0
    (x * 1.0 is x, so skipping it keeps every bit).  Each slice's product is
    the one ``dgemm`` of a one-mask stack, so slice j is bit for bit
    ``gram(params, masks[j], A, B)``.  For a mask whose ``|a|^2 + |b|^2``
    could overflow (above ``NORM_LIMIT``) the squared differences are summed
    directly instead.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    dim = params.dim
    if A.shape[1] != dim or B.shape[1] != dim:
        raise DimensionMismatch(
            f"inputs have {A.shape[1]}/{B.shape[1]} columns, kernel expects {dim}"
        )
    idx = []
    for mask in masks:
        mask = int(mask)        # a Python int, so any feature count fits
        if mask < 0 or mask >> dim:
            raise DimensionMismatch(f"mask {mask} sets a bit at or above the kernel's "
                                    f"{dim} features")
        idx.append([u for u in range(dim) if mask >> u & 1])
    if len({len(row) for row in idx}) != 1:
        raise ValueError("grams needs masks that all select equally many features")
    idx = np.array(idx, dtype=int)                          # c x k
    (c, k), m, n = idx.shape, A.shape[0], B.shape[0]
    if out is None:
        out = np.empty((c, m, n))
    elif not (out.shape == (c, m, n) and out.dtype == float and out.flags.c_contiguous):
        raise ValueError(f"out must be a C-ordered float array of shape {(c, m, n)}")
    if k == 0:
        out[...] = 1.0
        return out
    ls = params.lengthscales[idx][:, None, :]               # c x 1 x k
    # the scaled inputs, each with two more columns for the norm terms
    Aa, Ba = np.empty((c, m, k + 2)), np.empty((c, n, k + 2))
    with np.errstate(over="ignore"):    # an overflow here fails the check
        As = np.divide(A[:, idx].transpose(1, 0, 2), ls, out=Aa[:, :, :k])
        Bs = np.divide(B[:, idx].transpose(1, 0, 2), ls, out=Ba[:, :, :k])
        # np.sum's bits without np.sum's wrapper, which costs more than the
        # sum on small grams
        sa, sb = np.add.reduce(As**2, axis=2), np.add.reduce(Bs**2, axis=2)
        expand = sa.max(axis=1, initial=0.0) + sb.max(axis=1, initial=0.0) <= NORM_LIMIT
    # one GEMM per mask: [As, -|a|^2/2, 1] . [Bs, 1, -|b|^2/2]^T = -|a - b|^2 / 2,
    # clipped at 0, then variance * exp(.), in the one output stack
    np.multiply(sa, -0.5, out=Aa[:, :, k])
    np.multiply(sb, -0.5, out=Ba[:, :, k + 1])
    Aa[:, :, k + 1] = Ba[:, :, k] = 1.0
    far = np.flatnonzero(~expand)
    if far.size:
        Aa[far] = Ba[far] = 0.0         # these slices come from the direct sums below
    np.matmul(Aa, Ba.transpose(0, 2, 1), out=out)
    np.minimum(out, 0.0, out=out)
    for j in far:
        # scaled inputs too large for the expansion: sum the squared scaled
        # differences directly; one that overflows is inf and gives k == 0
        out[j] = 0.0
        with np.errstate(over="ignore"):
            for u, l in zip(idx[j], ls[j, 0]):
                out[j] += ((A[:, u, None] - B[None, :, u]) / l) ** 2
        out[j] *= -0.5
    np.exp(out, out=out)
    if params.variance != 1.0:
        out *= params.variance
    return out


def median_heuristic(X: np.ndarray) -> np.ndarray:
    """Per-dimension median of pairwise absolute differences.

    Dimensions whose median distance is zero (constant or near-constant
    columns) fall back to a lengthscale of 1.0.  On a sorted column the
    pairwise distances are the gaps ``xs[k:] - xs[:-k]``, k = 1..n-1; they
    fill one buffer of n(n-1)/2 entries, reused across columns.  Above
    ``MEDIAN_MAX_ROWS`` rows only that many evenly spaced rows are read
    (row ``k * n // MEDIAN_MAX_ROWS`` for each k), so the buffer stays
    below 4 MB and the result is still deterministic.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    if n < 2:
        raise TooFewPoints("median heuristic needs at least two points")
    if n > MEDIAN_MAX_ROWS:
        X = X[np.arange(MEDIAN_MAX_ROWS) * n // MEDIAN_MAX_ROWS]
        n = MEDIAN_MAX_ROWS
    diffs = np.empty(n * (n - 1) // 2)
    lo, hi = (diffs.size - 1) // 2, diffs.size // 2       # the middle rank(s)
    out = np.empty(d)
    for u in range(d):
        xs = np.sort(X[:, u])
        pos = 0
        for k in range(1, n):
            np.subtract(xs[k:], xs[:-k], out=diffs[pos:pos + n - k])
            pos += n - k
        # np.median's selection without its NaN check, which imports numpy.ma:
        # the middle rank(s), and the last, where a NaN sorts
        diffs.partition([lo, hi, diffs.size - 1])
        med = float(diffs[hi] if lo == hi else (diffs[lo] + diffs[hi]) / 2.0)
        out[u] = med if med > 0.0 and not np.isnan(diffs[-1]) else 1.0
    return out
