"""Dense symmetric linear algebra shared by every module.

All gram and covariance matrices in this package are symmetric and at
least positive semi-definite up to floating point noise, so every solve
routes through a jittered Cholesky factorization.

``cholesky_psd`` checks its input for non-finite entries once and returns
a Fortran-ordered factor from LAPACK's ``dpotrf``, so ``CholeskyFactor.solve``
never rescans it.  ``cholesky_in_place`` makes the same factors, for a
run of shifts, in a C-ordered gram's own memory instead of a copy.  The
solve works on the right-hand side in its own layout: a vector or a
column-major matrix is solved from the left, any other matrix from the
right on its transpose, with no transposing copy.
A right-side system of more than ``_SOLVE_LEAF`` rows is solved
recursively: the factor is halved, each off-diagonal block is applied by
one ``dgemm``, and only diagonal blocks of at most ``_SOLVE_LEAF`` rows go
to ``dtrsm``, so most of the flops run at GEMM speed (Elmroth, Gustavson,
Jonsson & Kagstrom, SIAM Review 2004).  No block of the factor is
contiguous, so f2py copies each block it hands to BLAS: 1.25 m^2 entries
per solve at m = 200.  The rhs is never copied past its one row-major copy.

``blas`` and ``lapack`` are scipy's f2py modules ``scipy.linalg._fblas`` and
``_flapack``, whose Fortran routines ``scipy.linalg.blas`` and ``lapack``
re-export; ``_compiled_module`` loads them without ``scipy.linalg``'s package
init, which is about half of every command's start-up.  The normal CDF
``ndtr`` is scipy.special's own ufunc, loaded the same way from
``scipy.special._special_ufuncs`` on its first use, and the quantile
``ndtri`` is a port of the Cephes routine that scipy compiles into
``_ufuncs`` (a module that cannot be loaded alone), so no command pays for
``scipy.special``'s init.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections.abc import Callable, Iterable, Iterator
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
# columns of the gram one step of cholesky_in_place's mirror copies, and the
# strict lower triangle of a diagonal block (np.tril_indices per block cost
# more than the copies at n = 300)
_MIRROR_BLOCK = 64
_BELOW_DIAGONAL = np.tri(_MIRROR_BLOCK, k=-1, dtype=bool)


def _compiled_module(package: str, name: str):
    """scipy's compiled module ``package.name``, loaded from its file.

    ``find_spec`` runs only the ``scipy`` top package's init, not
    ``package``'s: scipy.linalg's imports ``numpy.testing``, ``numpy.f2py``,
    ``numpy.random`` and ``numpy.ma``, and scipy.special's runs scipy's
    array-API init too.  The module is registered in ``sys.modules`` under
    its name, so a later ``import package`` reuses it (and one loaded before
    is reused here).  Without the file (an unusual scipy layout) the module
    is imported by name, through the package init.
    """
    qualified = f"{package}.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    folder = importlib.util.find_spec(package).submodule_search_locations[0]
    spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(qualified)
    if spec is None:
        return importlib.import_module(qualified)
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module
    spec.loader.exec_module(module)
    return module


blas = _compiled_module("scipy.linalg", "_fblas")
lapack = _compiled_module("scipy.linalg", "_flapack")


def __getattr__(name: str):
    # ndtr, scipy.special's own ufunc, is loaded on its first use: importing
    # the package pays nothing for it
    if name == "ndtr":
        global ndtr
        ndtr = _compiled_module("scipy.special", "_special_ufuncs").ndtr
        return ndtr
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Cephes' ndtri (Moshier), as scipy compiles it: rational approximations in
# (p - 1/2)^2 for exp(-2) < p < 1 - exp(-2), else in z = 1/sqrt(-2 log y), y
# the smaller tail, one above y = exp(-32) and one below; leading 1s of Q added
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_MINUS_2 = 0.13533528323661269189


def _polevl(x: float, coefs: tuple) -> float:
    """Horner's rule, highest power first."""
    out = 0.0
    for c in coefs:
        out = out * x + c
    return out


def ndtri(p: float) -> float:
    """The standard normal quantile: ``scipy.special.ndtri(p)`` bit for bit, as a float.

    0 and 1 give -inf and inf; p outside [0, 1] (or NaN) gives NaN.
    """
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    upper = p > 1.0 - _EXP_MINUS_2
    y = 1.0 - p if upper else p
    if y > _EXP_MINUS_2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * 2.50662827463100050242          # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    P, Q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _polevl(z, P) / _polevl(z, Q)
    return x if upper else -x


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
        order = "F" if b.ndim == 1 or b.flags.f_contiguous else "C"
        return self.solve_in_place(np.array(b, order=order))

    def solve_in_place(self, x: np.ndarray) -> np.ndarray:
        """Overwrite x with the solution of (L L^T) x' = x and return it.

        x is a contiguous float vector or matrix, solved as ``solve`` solves
        its copy, so the two agree bit for bit; its finiteness is not checked.

        Raises
        ------
        ValueError
            If x is not float64 or is neither C- nor F-contiguous (BLAS
            would solve a copy and leave x as it was).
        """
        if not (x.dtype == np.float64 and (x.flags.c_contiguous or x.flags.f_contiguous)):
            raise ValueError(f"solve_in_place needs a contiguous float64 array, got {x.dtype}")
        L = self.lower
        if x.ndim == 1 or x.flags.f_contiguous:
            blas.dtrsm(1.0, L, x, lower=1, overwrite_b=1)
            blas.dtrsm(1.0, L, x, lower=1, trans_a=1, overwrite_b=1)
        else:
            _solve_right(L, x.T, trans=1)
            _solve_right(L, x.T, trans=0)
        return x

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
    Only the lower triangle and the diagonal are read, and ``m`` is never
    modified (``cholesky_in_place`` factors in ``m``'s own memory instead).

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

    def attempt(jitter):
        if shift == 0.0 and jitter == 0.0:
            return lapack.dpotrf(m, lower=1, clean=1)
        a = np.array(m, order="F")
        np.fill_diagonal(a, diag + jitter)
        # finiteness was checked above; the copy is ours to overwrite
        return lapack.dpotrf(a, lower=1, clean=1, overwrite_a=True)

    return _jittered(attempt, m.shape[0], max_jitter)


def cholesky_in_place(m: np.ndarray, shifts: Iterable[float]) -> Iterator[CholeskyFactor]:
    """Factors of ``m + s*I`` for each s of ``shifts`` in turn, each in ``m``'s own memory.

    ``m`` is a C-ordered symmetric matrix, of which (as in ``cholesky_psd``,
    whose factors these equal bit for bit in their lower triangle) only the
    lower triangle and the diagonal are read.  Its Fortran view m.T holds
    that lower triangle in its upper one.  Each attempt mirrors it into the
    lower triangle a block of columns at a time, with no n x n temporary,
    sets the diagonal to the saved one plus s (plus jitter) and runs
    ``dpotrf`` there, on the same escalating jitter as ``cholesky_psd``.  So
    ``m``'s strict lower triangle is never written and every factor's upper
    triangle holds it, not zeros: a factor is only fit for its own solves
    and ``logdet``, and the next one overwrites it.  The diagonal is saved
    when the first factor is asked for, so ``m`` serves one call only.

    Raises
    ------
    ValueError
        If ``m`` is not a square C-ordered float array, or ``m`` or a shifted
        diagonal is not finite.
    JitterExceeded
        If a factorization fails with every jitter <= ``DEFAULT_MAX_JITTER``.
    """
    if not (m.ndim == 2 and m.shape[0] == m.shape[1] and m.dtype == float
            and m.flags.c_contiguous):
        raise ValueError(f"expected a square C-ordered float matrix, got {m.dtype} {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    a, diag = m.T, m.diagonal().copy()
    for shift in shifts:
        with np.errstate(over="ignore"):    # an overflow here fails the check
            shifted = diag + shift
        if not (np.isfinite(shift) and np.all(np.isfinite(shifted))):
            raise ValueError("matrix contains non-finite entries")

        def attempt(jitter):
            _mirror_upper(a)
            np.fill_diagonal(a, shifted + jitter)
            return lapack.dpotrf(a, lower=1, clean=0, overwrite_a=True)

        yield _jittered(attempt, m.shape[0], DEFAULT_MAX_JITTER)


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the square a's strict upper triangle into its strict lower one,
    ``_MIRROR_BLOCK`` columns at a time."""
    n = a.shape[0]
    for lo in range(0, n, _MIRROR_BLOCK):
        hi = min(lo + _MIRROR_BLOCK, n)
        a[hi:, lo:hi] = a[lo:hi, hi:].T
        block = a[lo:hi, lo:hi]
        np.copyto(block, block.T, where=_BELOW_DIAGONAL[:hi - lo, :hi - lo])


def _jittered(attempt: Callable[[float], tuple[np.ndarray, int]], n: int,
              max_jitter: float) -> CholeskyFactor:
    """The first factor ``attempt(jitter)`` returns as ``dpotrf`` does, with
    jitter 0, then 1e-12 growing tenfold up to ``max_jitter``."""
    jitter = 0.0
    while True:
        lower, info = attempt(jitter)
        if info == 0:
            return CholeskyFactor(lower=lower, jitter_used=jitter)
        if info < 0:
            raise ValueError(f"dpotrf rejected its argument {-info}")
        jitter = INITIAL_JITTER if jitter == 0.0 else jitter * JITTER_GROWTH
        if jitter > max_jitter:
            raise JitterExceeded(
                f"Cholesky failed for {n}x{n} matrix at jitter cap {max_jitter:g}"
            )


def solve_regularized(m: np.ndarray, lam: float, rhs: np.ndarray,
                      max_jitter: float = DEFAULT_MAX_JITTER) -> np.ndarray:
    """Solve (m + lam*I) x = rhs through the jittered Cholesky path."""
    return cholesky_psd(m, max_jitter=max_jitter, shift=lam).solve(rhs)


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
