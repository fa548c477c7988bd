import warnings

import numpy as np
import pytest

from ssvkit import kernels, numerics
from ssvkit.errors import JitterExceeded

from conftest import run_python


class TestCholeskyPsd:
    def test_identity_needs_no_jitter(self):
        factor = numerics.cholesky_psd(np.eye(3))
        assert factor.jitter_used == 0.0
        np.testing.assert_allclose(factor.lower, np.eye(3))

    def test_zero_matrix_gets_first_jitter_level(self):
        factor = numerics.cholesky_psd(np.zeros((2, 2)), max_jitter=1e-6)
        assert factor.jitter_used == pytest.approx(1e-12)
        np.testing.assert_allclose(factor.lower, np.sqrt(1e-12) * np.eye(2))

    def test_hand_cholesky_2x2(self):
        factor = numerics.cholesky_psd(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(
            factor.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], atol=1e-12
        )

    def test_jitter_exceeded(self):
        m = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(JitterExceeded):
            numerics.cholesky_psd(m, max_jitter=1e-6)

    def test_non_numerical_failure_is_not_retried(self, monkeypatch):
        # only a positive dpotrf info climbs the jitter ladder; anything
        # else surfaces on the first attempt
        calls = []

        def out_of_memory(*args, **kwargs):
            calls.append(args)
            raise MemoryError

        monkeypatch.setattr(numerics.lapack, "dpotrf", out_of_memory)
        with pytest.raises(MemoryError):
            numerics.cholesky_psd(np.eye(3))
        assert len(calls) == 1

    def test_deterministic(self, rng):
        m = rng.normal(size=(5, 5))
        m = m @ m.T
        f1 = numerics.cholesky_psd(m)
        f2 = numerics.cholesky_psd(m)
        assert f1.jitter_used == f2.jitter_used
        np.testing.assert_array_equal(f1.lower, f2.lower)

    def test_reconstruction(self, rng):
        m = rng.normal(size=(6, 6))
        m = m @ m.T
        factor = numerics.cholesky_psd(m)
        rel = np.linalg.norm(factor.lower @ factor.lower.T - m) / np.linalg.norm(m)
        assert rel < 1e-8

    @pytest.mark.parametrize("needs_jitter", [False, True])
    def test_input_is_left_unmodified(self, rng, needs_jitter):
        m = np.zeros((4, 4)) if needs_jitter else rng.normal(size=(4, 4))
        m = m @ m.T
        before = m.copy()
        factor = numerics.cholesky_psd(m, max_jitter=1e-6)
        assert (factor.jitter_used > 0.0) == needs_jitter
        np.testing.assert_array_equal(m, before)

    def test_first_attempt_factors_the_input_as_given(self, monkeypatch):
        seen = []
        original = numerics.lapack.dpotrf

        def spy(a, *args, **kwargs):
            seen.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(numerics.lapack, "dpotrf", spy)
        m = 2.0 * np.eye(3)
        numerics.cholesky_psd(m)
        assert len(seen) == 1 and seen[0] is m


class TestCompiledLinalg:
    """``numerics.blas``/``lapack`` are the modules behind ``scipy.linalg.blas``
    and ``lapack``, whether ``scipy.linalg`` is imported before ssvkit or after,
    and when their files are not found and they are imported by name."""

    SCRIPT = """
import importlib.machinery
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.linalg
if sys.argv[1] == "fallback":
    importlib.machinery.EXTENSION_SUFFIXES = []     # numerics finds no file
from ssvkit import numerics
assert ("scipy.linalg" in sys.modules) == (sys.argv[1] != "after")
from scipy.linalg import blas, lapack
rng = np.random.default_rng(0)
a, b = rng.normal(size=(7, 7)), rng.normal(size=(7, 3))
m = a @ a.T + np.eye(7)
L = lapack.dpotrf(m, lower=1, clean=1)[0]
calls = [(lapack, numerics.lapack, "dpotrf", (m,), dict(lower=1, clean=1)),
         (blas, numerics.blas, "dtrsm", (1.0, L, b), dict(lower=1, trans_a=1)),
         (blas, numerics.blas, "dgemm", (1.0, a, b), {})]
for theirs, ours, name, args, kwargs in calls:
    got, want = (getattr(module, name)(*args, **kwargs) for module in (ours, theirs))
    if name == "dpotrf":                                # (factor, info)
        (got, got_info), (want, want_info) = got, want
        assert got_info == want_info == 0
    print(name, getattr(ours, name) is getattr(theirs, name), got.tobytes() == want.tobytes())
print(numerics.blas is sys.modules["scipy.linalg._fblas"],
      numerics.lapack is sys.modules["scipy.linalg._flapack"])
"""

    @pytest.mark.parametrize("order", ["before", "after", "fallback"])
    def test_same_routines_and_results_as_scipy_linalg(self, tmp_path, order):
        res = run_python(["-c", self.SCRIPT, order], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split("\n") == ["dpotrf True True", "dtrsm True True",
                                          "dgemm True True", "True True", ""]


class TestCompiledSpecial:
    """``numerics.ndtr`` is ``scipy.special.ndtr``, loaded on first use from its
    own compiled module, whether ``scipy.special`` is imported before ssvkit or
    after, and when the file is not found and it is imported by name."""

    SCRIPT = """
import importlib.machinery
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.special
if sys.argv[1] == "fallback":
    importlib.machinery.EXTENSION_SUFFIXES = []     # numerics finds no file
from ssvkit import numerics
x = np.r_[np.random.default_rng(0).normal(scale=10.0, size=1000),
          0.0, -0.0, np.inf, -np.inf, np.nan, 40.0, -40.0, 1e-300]
got = numerics.ndtr(x)
assert ("scipy.special" in sys.modules) == (sys.argv[1] != "after")
import scipy.special
import scipy.stats
print(numerics.ndtr is scipy.special.ndtr, got.tobytes() == scipy.special.ndtr(x).tobytes())
print(numerics.ndtr is sys.modules["scipy.special._special_ufuncs"].ndtr,
      scipy.stats.norm.ppf(0.975) == scipy.special.ndtri(0.975) == numerics.ndtri(0.975))
"""

    @pytest.mark.parametrize("order", ["before", "after", "fallback"])
    def test_same_ufunc_and_results_as_scipy_special(self, tmp_path, order):
        res = run_python(["-c", self.SCRIPT, order], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split("\n") == ["True True", "True True", ""]


class TestNdtri:
    def test_equals_scipy_bit_for_bit(self):
        from scipy.special import ndtri

        rng = np.random.default_rng(11)
        levels = np.arange(1, 1000) / 1000
        p = np.concatenate([
            rng.uniform(size=100_000),
            10.0 ** -rng.uniform(0, 300, size=100_000),         # the lower tail
            1.0 - 10.0 ** -rng.uniform(1, 16, size=100_000),    # the upper tail
            levels, 0.5 * (1.0 + levels),                       # credible levels and their p
            [0.5, 0.975, 1e-300, 5e-324, np.nextafter(1.0, 0.0), 0.0, 1.0]])
        got = [numerics.ndtri(float(q)) for q in p]
        assert all(type(z) is float for z in got)
        bad = np.flatnonzero(np.array(got).view(np.int64) != ndtri(p).view(np.int64))
        assert bad.size == 0, (p[bad[:5]], np.array(got)[bad[:5]])

    @pytest.mark.parametrize("p", [-0.5, 1.5, np.nan, -np.inf])
    def test_outside_the_unit_interval_is_nan(self, p):
        assert np.isnan(numerics.ndtri(p))


def kernel_gram(repeat=False):
    """A 12 x 12 RBF gram whose two triangles differ in the last bits; with
    ``repeat`` its rows come in equal pairs, so it is singular."""
    X = np.random.default_rng(3).normal(size=(6 if repeat else 12, 3))
    if repeat:
        X = np.vstack([X, X])
    params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(3))
    K = kernels.gram(params, 0b111, X, X)
    assert not np.array_equal(K, K.T)
    return K


class TestShift:
    """``cholesky_psd(m, shift=c)`` factors m + c*I on a copy of its own."""

    @staticmethod
    def spy(monkeypatch):
        seen = []
        original = numerics.lapack.dpotrf

        def recorded(a, *args, **kwargs):
            seen.append((a, a.copy(), kwargs))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(numerics.lapack, "dpotrf", recorded)
        return seen

    # (gram, shift, jitter the factorization needs); -1e-16 rounds differently
    # when added after the 1e-12 jitter rather than before it
    CASES = [(False, 0.1, 0.0), (True, 0.5, 0.0), (True, 1e-17, 1e-12),
             (True, -1e-16, 1e-12)]

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("repeat,shift,jitter", CASES)
    def test_equals_factoring_the_shifted_matrix_bit_for_bit(self, order, repeat,
                                                               shift, jitter):
        m = np.asarray(kernel_gram(repeat=repeat), order=order)
        got = numerics.cholesky_psd(m, shift=shift)
        want = numerics.cholesky_psd(m + shift * np.eye(12))
        assert got.jitter_used == want.jitter_used == jitter
        assert got.lower.tobytes() == want.lower.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("repeat,shift,jitter", CASES)
    def test_input_is_left_unmodified(self, order, repeat, shift, jitter):
        m = np.asarray(kernel_gram(repeat=repeat), order=order)
        before = m.tobytes(order="A")
        assert numerics.cholesky_psd(m, shift=shift).jitter_used == jitter
        assert m.tobytes(order="A") == before

    def test_factors_one_fortran_copy_in_place(self, monkeypatch):
        m = kernel_gram()
        seen = self.spy(monkeypatch)
        numerics.cholesky_psd(m, shift=0.25)
        assert len(seen) == 1
        a, given, kwargs = seen[0]
        assert a is not m and not np.shares_memory(a, m)
        assert a.flags.f_contiguous and kwargs["overwrite_a"] is True
        np.testing.assert_array_equal(given, m + 0.25 * np.eye(12))

    def test_each_jitter_attempt_copies_afresh(self, monkeypatch):
        m = kernel_gram(repeat=True)
        seen = self.spy(monkeypatch)
        numerics.cholesky_psd(m, shift=1e-17)
        assert len(seen) == 2
        for (a, given, kwargs), jitter in zip(seen, [0.0, 1e-12]):
            assert a.flags.f_contiguous and kwargs["overwrite_a"] is True
            np.testing.assert_array_equal(given, (m + 1e-17 * np.eye(12)) + jitter * np.eye(12))

    NON_FINITE = "matrix contains non-finite entries"

    @pytest.mark.parametrize("m,shift,message", [
        (np.eye(2), np.inf, NON_FINITE),
        (np.eye(2), -np.inf, NON_FINITE),
        (np.eye(2), np.nan, NON_FINITE),
        (1e308 * np.eye(2), 1e308, NON_FINITE),     # finite shift, but the diagonal overflows
        # a matrix that is not square is rejected before its entries are read
        (np.zeros((2, 3)), 0.0, r"expected a square matrix, got shape \(2, 3\)"),
        (np.ones(3), 0.0, r"expected a square matrix, got shape \(3,\)"),
    ], ids=["inf", "minus-inf", "nan", "diagonal-overflows", "not-square", "vector"])
    def test_non_finite_shifted_diagonal_is_rejected(self, m, shift, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                numerics.cholesky_psd(m, shift=shift)

    def test_shift_is_keyword_only(self):
        with pytest.raises(TypeError):
            numerics.cholesky_psd(np.eye(2), 1e-4, 0.5)


def gram_of(n, repeat=0, seed=5):
    """An n x n RBF gram, C-ordered, whose two triangles differ in the last
    bits; its last ``repeat`` rows repeat its first ones."""
    X = np.random.default_rng(seed).normal(size=(n - repeat, 3))
    X = np.vstack([X, X[:repeat]])
    return kernels.gram(kernels.KernelParams(variance=1.0, lengthscales=np.ones(3)),
                        0b111, X, X)


class TestCholeskyInPlace:
    """``cholesky_in_place`` makes ``cholesky_psd``'s factors in the gram's memory."""

    @pytest.mark.parametrize("n", [1, 2, 12, 64, 65, 200])
    def test_lower_triangles_equal_cholesky_psd_bit_for_bit(self, n):
        m = gram_of(n)
        assert n < 12 or not np.array_equal(m, m.T)
        pristine, shifts = m.copy(), [1e-3, 1e-2, 0.1, 1.0]
        y = np.random.default_rng(n).normal(size=n)
        factor = numerics.cholesky_in_place(m)
        for shift in shifts:
            got = factor(shift)
            want = numerics.cholesky_psd(pristine, shift=shift)
            assert np.shares_memory(got.lower, m) and got.lower.flags.f_contiguous
            assert np.tril(got.lower).tobytes() == want.lower.tobytes()
            assert got.jitter_used == want.jitter_used == 0.0
            assert got.solve(y).tobytes() == want.solve(y).tobytes()
            assert got.logdet() == want.logdet()
            # the strict lower triangle is never written: the factor's upper one holds it
            np.testing.assert_array_equal(np.tril(m, -1), np.tril(pristine, -1))
            np.testing.assert_array_equal(np.triu(got.lower, 1), np.tril(pristine, -1).T)

    def test_a_jitter_retry_restores_the_triangle_first(self):
        # duplicated rows make the gram singular, and a noise of 1e-20 vanishes
        # on its unit diagonal, so the first attempt fails part way through
        m = gram_of(150, repeat=40)
        pristine, shifts = m.copy(), [1e-20, 0.5, 1e-20]
        factors, factor = [], numerics.cholesky_in_place(m)
        for shift in shifts:
            got = factor(shift)
            want = numerics.cholesky_psd(pristine, shift=shift)
            factors.append(got.jitter_used)
            assert got.jitter_used == want.jitter_used
            assert np.tril(got.lower).tobytes() == want.lower.tobytes()
            np.testing.assert_array_equal(np.tril(m, -1), np.tril(pristine, -1))
        assert factors[0] == factors[2] > 0.0 and factors[1] == 0.0

    def test_jitter_beyond_the_cap_fails(self):
        m = -gram_of(12)
        with pytest.raises(JitterExceeded, match="12x12 matrix at jitter cap 0.0001"):
            numerics.cholesky_in_place(m)(0.5)

    @pytest.mark.parametrize("m", [np.zeros((3, 4)), np.asfortranarray(gram_of(5)),
                                   gram_of(5)[::2, ::2], np.eye(3, dtype=int)],
                             ids=["not-square", "fortran", "strided", "int"])
    def test_only_a_square_c_ordered_float_matrix_is_taken(self, m):
        # the call itself checks m, before any factor is asked for
        with pytest.raises(ValueError, match="expected a square C-ordered float matrix"):
            numerics.cholesky_in_place(m)

    @pytest.mark.parametrize("m,shift,at_call", [
        (np.array([[1.0, np.nan], [0.0, 1.0]]), 0.1, True),
        (np.eye(2), np.inf, False),
        (1e308 * np.eye(2), 1e308, False),
    ], ids=["nan-entry", "inf-shift", "diagonal-overflows"])
    def test_non_finite_entries_are_rejected(self, m, shift, at_call):
        # a non-finite entry fails the call itself; a shift that leaves the
        # diagonal non-finite fails only the factor asked for at it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix contains non-finite entries"):
                factor = numerics.cholesky_in_place(m)
                assert not at_call, "the call did not check m"
                factor(shift)


def solve_problem():
    """The factor of a 200 x 200 RBF gram plus lambda = 1e-3 * m, as a CME
    coalition solve builds it, and a 200 x 100 cross-gram right-hand side."""
    rng = np.random.default_rng(11)
    rows, X = rng.normal(size=(200, 3)), rng.normal(size=(100, 3))
    params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(3))
    full = 0b111
    factor = numerics.cholesky_psd(kernels.gram(params, full, rows, rows), shift=0.2)
    return factor, kernels.gram(params, full, rows, X)


# right-hand sides in every layout the solve distinguishes
LAYOUTS = {
    "vector": lambda B: B[:, 0].copy(),
    "column": lambda B: B[:, :1].copy(),
    "column-major": lambda B: np.asfortranarray(B[:, :30]),
    "row-major": lambda B: B.copy(),
    "strided": lambda B: B[:, ::2],
    "column-major-strided": lambda B: np.asfortranarray(B)[:, 1::3],
}
LEFT = ["vector", "column", "column-major"]
RIGHT = ["row-major", "strided", "column-major-strided"]


class TestSolve:
    """``CholeskyFactor.solve`` against ``scipy.linalg.cho_solve``."""

    @pytest.mark.parametrize("layout", LEFT)
    def test_vector_and_column_major_match_cho_solve_bit_for_bit(self, layout):
        from scipy.linalg import cho_solve

        factor, B = solve_problem()
        b = LAYOUTS[layout](B)
        assert factor.solve(b).tobytes() == cho_solve((factor.lower, True), b).tobytes()

    @pytest.mark.parametrize("layout", RIGHT)
    def test_other_layouts_agree_with_cho_solve(self, layout):
        from scipy.linalg import cho_solve

        factor, B = solve_problem()
        b = LAYOUTS[layout](B)
        assert b.ndim == 2 and not b.flags.f_contiguous
        x, want = factor.solve(b), cho_solve((factor.lower, True), b)
        assert not np.array_equal(x, want)     # solved from the right, not as potrs
        # measured: 5.3e-15 (row-major), 4.7e-15 (strided) and 6.0e-15
        # (column-major strided) of max|x|; 8.6e-15 at worst over 200 random
        # gram problems of 5-200 rows
        assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("layout", LEFT + RIGHT)
    def test_result_has_the_rhs_shape_and_rhs_is_unmodified(self, layout):
        factor, B = solve_problem()
        b = LAYOUTS[layout](B)
        before = b.copy()
        x = factor.solve(b)
        assert x.shape == b.shape and not np.shares_memory(x, b)
        assert b.tobytes() == before.tobytes()

    @pytest.mark.parametrize("layout", ["vector", "column", "column-major", "row-major"])
    def test_in_place_solve_overwrites_its_argument_with_solves_result(self, layout):
        factor, B = solve_problem()
        b = LAYOUTS[layout](B)
        want = factor.solve(b)
        assert factor.solve_in_place(b) is b
        assert b.tobytes() == want.tobytes()

    @pytest.mark.parametrize("b", [lambda B: B[:, ::2], lambda B: B[::2, 0],
                                   lambda B: B.astype(np.float32)],
                             ids=["strided", "strided-vector", "float32"])
    def test_in_place_solve_refuses_what_blas_would_copy(self, b):
        factor, B = solve_problem()
        x = b(B)
        before = x.copy()
        with pytest.raises(ValueError, match="contiguous float64"):
            factor.solve_in_place(x)
        assert x.tobytes() == before.tobytes()

    def test_row_major_rhs_gives_a_row_major_result(self):
        factor, B = solve_problem()
        assert factor.solve(B).flags.c_contiguous
        assert factor.solve(np.asfortranarray(B)).flags.f_contiguous

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layout", ["vector", "column-major", "row-major"])
    def test_non_finite_rhs_is_rejected(self, layout, bad):
        factor, B = solve_problem()
        b = LAYOUTS[layout](B)
        b[(3,) * b.ndim] = bad
        with pytest.raises(ValueError, match="rhs contains non-finite entries"):
            factor.solve(b)

    @pytest.mark.parametrize("shape", [(199,), (201,), (199, 4), (0, 4), (200, 2, 2)],
                             ids=["short", "long", "short-matrix", "empty", "3-d"])
    def test_wrong_row_count_is_rejected(self, shape):
        factor, _ = solve_problem()
        with pytest.raises(ValueError, match="expected a vector or a matrix with 200 rows"):
            factor.solve(np.ones(shape))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("repeat,shift,jitter", [(False, 0.0, 0.0)] + TestShift.CASES)
    def test_factor_is_column_major(self, order, repeat, shift, jitter):
        # no shift, a shift, and a jittered retry: dtrsm never copies it
        m = np.asarray(kernel_gram(repeat=repeat), order=order)
        factor = numerics.cholesky_psd(m, shift=shift)
        assert factor.jitter_used == jitter
        assert factor.lower.flags.f_contiguous

    # right-hand sides that take the right-side path, from a row-major m x 100
    # cross-gram: n = 1 (a column view), 2, 100 columns and a strided one
    RIGHT_COLUMNS = {
        "n=1": lambda B: B[:, 1:2],
        "n=2": lambda B: B[:, :2].copy(),
        "n=100": lambda B: B,
        "strided": lambda B: B[:, ::3],
    }

    @staticmethod
    def right_problem(m):
        """``solve_problem``'s system at m rows with a shift of 1, so that it
        stays well-conditioned (condition number 23-76 for m = 96..333)."""
        rng = np.random.default_rng(m)
        rows, X = rng.normal(size=(m, 3)), rng.normal(size=(100, 3))
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(3))
        factor = numerics.cholesky_psd(kernels.gram(params, 0b111, rows, rows), shift=1.0)
        return factor, kernels.gram(params, 0b111, rows, X)

    @pytest.mark.parametrize("columns", RIGHT_COLUMNS)
    @pytest.mark.parametrize("m", [numerics._SOLVE_LEAF, numerics._SOLVE_LEAF + 1,
                                   97, 129, 200, 333])
    def test_recursive_right_side_solve_agrees_with_cho_solve(self, m, columns):
        from scipy.linalg import cho_solve

        factor, B = self.right_problem(m)
        b = self.RIGHT_COLUMNS[columns](B)
        assert b.ndim == 2 and not b.flags.f_contiguous
        b_before, L_before = b.tobytes(), factor.lower.tobytes()
        x, want = factor.solve(b), cho_solve((factor.lower, True), b)
        assert x.shape == b.shape and x.flags.c_contiguous
        assert b.tobytes() == b_before and factor.lower.tobytes() == L_before
        # measured: at most 5.9e-15 of max|x| over these 24 cases
        assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("m", [50, numerics._SOLVE_LEAF])
    def test_right_side_at_or_below_the_leaf_is_two_dtrsm_bit_for_bit(self, m):
        from scipy.linalg import blas

        factor, B = self.right_problem(m)
        L = factor.lower
        xt = blas.dtrsm(1.0, L, B.T, side=1, lower=1, trans_a=1)
        want = blas.dtrsm(1.0, L, xt, side=1, lower=1).T
        assert factor.solve(B).tobytes() == want.tobytes()

    def test_recursive_solve_backward_error_on_an_ill_conditioned_coalition(self):
        # a one-feature coalition of 200 rows of ten at lengthscale 3 plus
        # lambda = 1e-3 * m: condition number about 900, near the ~1,000 a
        # unit-variance gram can reach at that lambda.  Measured: the
        # normwise backward error is 1.7e-16 against cho_solve's 2.0e-16, a
        # ratio of 0.82-0.88 over five seeds
        from scipy.linalg import cho_solve

        rng = np.random.default_rng(0)
        rows, X = rng.normal(size=(200, 10)), rng.normal(size=(100, 10))
        params = kernels.KernelParams(variance=1.0, lengthscales=np.full(10, 3.0))
        K = kernels.gram(params, 0b1, rows, rows)
        M = K + 0.2 * np.eye(200)
        factor = numerics.cholesky_psd(K, shift=0.2)
        b = kernels.gram(params, 0b1, rows, X)

        def backward_error(x):
            return np.linalg.norm(M @ x - b) / (np.linalg.norm(M, 2) * np.linalg.norm(x)
                                                + np.linalg.norm(b))

        assert np.linalg.cond(M) > 500
        assert (backward_error(factor.solve(b))
                <= 2.0 * backward_error(cho_solve((factor.lower, True), b)))


class TestSolveRegularized:
    def test_zero_matrix_is_identity_solve(self):
        b = np.array([1.0, -2.0])
        np.testing.assert_allclose(
            numerics.solve_regularized(np.zeros((2, 2)), 1.0, b), b, atol=1e-10
        )

    def test_identity_halves(self):
        b = np.array([3.0, 4.0])
        np.testing.assert_allclose(
            numerics.solve_regularized(np.eye(2), 1.0, b), b / 2, atol=1e-12
        )

    def test_hand_2x2(self):
        # (m + 0.5 I)^-1 [1, 0]^T with m = [[2,1],[1,2]]: det = 5.25, so the
        # solution is [2.5, -1] / 5.25 = [10/21, -4/21]
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = numerics.solve_regularized(m, 0.5, np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [10.0 / 21.0, -4.0 / 21.0], atol=1e-12)

    def test_residual_and_symmetry(self, rng):
        m = rng.normal(size=(7, 7))
        m = m @ m.T
        inv = numerics.solve_regularized(m, 0.3, np.eye(7))
        assert np.max(np.abs(inv - inv.T)) < 1e-10
        np.testing.assert_allclose((m + 0.3 * np.eye(7)) @ inv, np.eye(7), atol=1e-8)
