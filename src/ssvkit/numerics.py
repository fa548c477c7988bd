"""Dense symmetric linear algebra shared by every module.

All gram and covariance matrices in this package are symmetric and at
least positive semi-definite up to floating point noise, so every solve
routes through a jittered Cholesky factorization.

``cholesky_psd`` checks its input for non-finite entries once and returns
a Fortran-ordered factor from LAPACK's ``dpotrf``, so ``CholeskyFactor.solve``
never rescans it.  The solve works on the right-hand side in its own
layout: a vector or a column-major matrix is solved from the left, any
other matrix from the right on its transpose, with no transposing copy.
A right-side system of more than ``_SOLVE_LEAF`` rows is solved
recursively: the factor is halved, each off-diagonal block is applied by
one ``dgemm``, and only diagonal blocks of at most ``_SOLVE_LEAF`` rows go
to ``dtrsm``, so most of the flops run at GEMM speed (Elmroth, Gustavson,
Jonsson & Kagstrom, SIAM Review 2004).  No block of the factor is
contiguous, so f2py copies each block it hands to BLAS: 1.25 m^2 entries
per solve at m = 200.  The rhs is never copied past its one row-major copy.

``blas`` and ``lapack`` are scipy's f2py modules ``scipy.linalg._fblas`` and
``_flapack``, whose Fortran routines ``scipy.linalg.blas`` and ``lapack``
re-export; ``_compiled_linalg`` loads them without ``scipy.linalg``'s package
init, which is about half of every command's start-up.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import JitterExceeded

INITIAL_JITTER = 1e-12
JITTER_GROWTH = 10.0
DEFAULT_MAX_JITTER = 1e-4
# largest diagonal block a right-side solve hands to dtrsm; a system of at
# most this many rows is two whole-matrix dtrsm calls.  From a scan of
# m = 48..400 with 100 columns, one BLAS thread: no size got slower, and
# halving at 65 rows (blocks of 32) took x1.09 the time
_SOLVE_LEAF = 96


def _compiled_linalg():
    """scipy.linalg's ``_fblas`` and ``_flapack``, loaded from their files.

    The package init imports ``numpy.testing``, ``numpy.f2py``,
    ``numpy.random`` and ``numpy.ma``; ``find_spec`` runs only the ``scipy``
    top package's.  Each module is registered in ``sys.modules`` under its
    name, so a later ``import scipy.linalg`` reuses it (and one loaded
    before is reused here).  Without the files (an unusual scipy layout) the
    modules are imported by name, through the package init.
    """
    folder = importlib.util.find_spec("scipy.linalg").submodule_search_locations[0]
    finder = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    specs = [finder.find_spec(f"scipy.linalg.{name}") for name in ("_fblas", "_flapack")]
    if None in specs:
        from scipy.linalg import _fblas, _flapack
        return _fblas, _flapack
    modules = []
    for spec in specs:
        if spec.name not in sys.modules:
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module
            spec.loader.exec_module(module)
        modules.append(sys.modules[spec.name])
    return modules


blas, lapack = _compiled_linalg()


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor of a (possibly jittered) symmetric matrix."""

    lower: np.ndarray
    jitter_used: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (L L^T) x = rhs by two triangular solves on one copy of rhs.

        A vector or a column-major rhs is solved from the left, L y = rhs
        then L^T x = y, exactly as LAPACK's ``potrs``.  Any other rhs is
        copied row-major (for a row-major rhs a plain copy, not a
        transposing one) and solved from the right on the copy's
        column-major transpose, x^T = rhs^T L^-T L^-1, so x comes back
        row-major.  Up to ``_SOLVE_LEAF`` rows that is two ``dtrsm`` calls;
        above it each of the two solves recurses on halves of L (see
        ``_solve_right``), which agrees with the two calls to about 1e-14
        of max|x| but not bit for bit.  Only rhs is checked for
        non-finite entries here; the factor was checked once, when
        ``cholesky_psd`` built it.  rhs is never modified.

        Raises
        ------
        ValueError
            If rhs is not finite or its row count differs from the factor's.
        """
        b = np.asarray(rhs, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != self.lower.shape[0]:
            raise ValueError(f"rhs has shape {b.shape}, expected a vector or a matrix "
                             f"with {self.lower.shape[0]} rows")
        if not np.all(np.isfinite(b)):
            raise ValueError("rhs contains non-finite entries")
        # one numpy copy of rhs in the layout its solve reads (faster than
        # letting f2py copy it); every BLAS call then works in place
        L = self.lower
        if b.ndim == 1 or b.flags.f_contiguous:
            x = blas.dtrsm(1.0, L, np.array(b, order="F"), lower=1, overwrite_b=1)
            return blas.dtrsm(1.0, L, x, lower=1, trans_a=1, overwrite_b=1)
        xt = np.array(b, order="C").T
        _solve_right(L, xt, trans=1)
        _solve_right(L, xt, trans=0)
        return xt.T

    def logdet(self) -> float:
        """Log-determinant of the factored matrix."""
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))


def _solve_right(L: np.ndarray, y: np.ndarray, trans: int) -> None:
    """Overwrite the column-major y with y L^-T (``trans=1``) or y L^-1.

    With L = [[L11, 0], [L21, L22]] split at half its rows and y = [y1, y2]
    split alike, y L^-T is y1 L11^-T, then y2 - y1 L21^T solved by L22^T;
    y L^-1 is y2 L22^-1, then y1 - y2 L21 solved by L11.  Each half of y is
    a block of whole columns of one Fortran-ordered float array, so f2py
    hands it to BLAS without a copy and every call overwrites it in place.
    """
    m = L.shape[0]
    if m <= _SOLVE_LEAF:
        blas.dtrsm(1.0, L, y, side=1, lower=1, trans_a=trans, overwrite_b=1)
        return
    k = m // 2
    L11, L21, L22 = L[:k, :k], L[k:, :k], L[k:, k:]
    y1, y2 = y[:, :k], y[:, k:]
    if trans:
        _solve_right(L11, y1, 1)
        blas.dgemm(-1.0, y1, L21, 1.0, y2, trans_b=1, overwrite_c=1)
        _solve_right(L22, y2, 1)
    else:
        _solve_right(L22, y2, 0)
        blas.dgemm(-1.0, y2, L21, 1.0, y1, overwrite_c=1)
        _solve_right(L11, y1, 0)


def cholesky_psd(m: np.ndarray, max_jitter: float = DEFAULT_MAX_JITTER, *,
                 shift: float = 0.0) -> CholeskyFactor:
    """Cholesky-factor ``m + shift*I`` for a symmetric PSD ``m``, escalating jitter.

    Jitter starts at 1e-12 and grows by a factor of 10 until the
    factorization succeeds.  An attempt with a shift or a jitter adds them,
    in that order, to the diagonal of its own Fortran-order copy of ``m``
    and factors the copy in place; otherwise it factors ``m`` as given.
    This is the only code that adds to a diagonal.  ``m`` is never modified.

    Raises
    ------
    ValueError
        If ``m`` is not square, or ``m`` or its shifted diagonal is not finite.
    JitterExceeded
        If no factorization succeeds with jitter <= ``max_jitter``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore"):    # an overflow here fails the check
        diag = np.diagonal(m) + shift
    if not (np.all(np.isfinite(m)) and np.isfinite(shift) and np.all(np.isfinite(diag))):
        raise ValueError("matrix contains non-finite entries")

    jitter = 0.0
    while True:
        a = m
        if shift != 0.0 or jitter != 0.0:
            a = np.array(m, order="F")
            np.fill_diagonal(a, diag + jitter)
        # finiteness was checked above; a copy is ours to overwrite
        lower, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=a is not m)
        if info == 0:
            return CholeskyFactor(lower=lower, jitter_used=jitter)
        if info < 0:
            raise ValueError(f"dpotrf rejected its argument {-info}")
        jitter = INITIAL_JITTER if jitter == 0.0 else jitter * JITTER_GROWTH
        if jitter > max_jitter:
            raise JitterExceeded(
                f"Cholesky failed for {m.shape[0]}x{m.shape[0]} matrix at jitter cap {max_jitter:g}"
            )


def solve_regularized(m: np.ndarray, lam: float, rhs: np.ndarray,
                      max_jitter: float = DEFAULT_MAX_JITTER) -> np.ndarray:
    """Solve (m + lam*I) x = rhs through the jittered Cholesky path."""
    m = np.asarray(m, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != m.shape[0]:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {m.shape[0]}")
    factor = cholesky_psd(m, max_jitter=max_jitter, shift=lam)
    return factor.solve(rhs)


def is_psd(m: np.ndarray, tol_jitter: float = 1e-8) -> bool:
    """True iff the jittered Cholesky succeeds with jitter <= ``tol_jitter``."""
    try:
        cholesky_psd(np.asarray(m, dtype=float), max_jitter=tol_jitter)
        return True
    except JitterExceeded:
        return False


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average a matrix (or a stack of them) with its transpose so entries
    match exactly."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + np.swapaxes(m, -1, -2))
