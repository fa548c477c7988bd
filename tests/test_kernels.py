import math
import warnings

import numpy as np
import pytest

from ssvkit import kernels, numerics
from ssvkit.errors import DimensionMismatch, TooFewPoints
from ssvkit.kernels import FeatureSubset, KernelParams, gram, median_heuristic


@pytest.fixture
def params():
    return KernelParams(variance=2.0, lengthscales=np.array([1.0, 2.0, 0.5]))


class TestFeatureSubset:
    def test_bounds(self):
        with pytest.raises(ValueError):
            FeatureSubset(0, 0)
        with pytest.raises(ValueError):
            FeatureSubset(8, 3)
        assert FeatureSubset.full(70).mask == (1 << 70) - 1


class TestGram:
    def test_zero_distance_gives_variance(self, params):
        x = np.array([[0.3, -1.0, 2.0]])
        K = gram(params, 0b111, x, x)
        assert K[0, 0] == pytest.approx(2.0)

    def test_matches_the_textbook_expression_bit_for_bit(self, params, rng):
        # the in-place evaluation keeps the operation order of
        # variance * exp(-0.5 * max(|a|^2 - 2 a.b + |b|^2, 0))
        A = rng.normal(size=(7, 3))
        B = rng.normal(size=(5, 3))
        for mask, idx in ((0b111, [0, 1, 2]), (0b101, [0, 2])):
            As = A[:, idx] / params.lengthscales[idx]
            Bs = B[:, idx] / params.lengthscales[idx]
            sq = (np.sum(As**2, axis=1)[:, None] - 2.0 * As @ Bs.T
                  + np.sum(Bs**2, axis=1)[None, :])
            expected = params.variance * np.exp(-0.5 * np.maximum(sq, 0.0))
            np.testing.assert_array_equal(gram(params, mask, A, B), expected)

    def test_one_far_instance_leaves_the_other_entries_exact(self, rng):
        # one instance at 1e8 in a batch of unit-scale rows: only its own
        # column sees the large value, so every entry matches the direct
        # differences (a shared centre such as the range midpoint would move
        # all the other rows to about -5e7 and cancel them)
        unit = KernelParams(variance=1.0, lengthscales=np.ones(3))
        A = rng.normal(size=(50, 3))
        B = rng.normal(size=(20, 3))
        B[0, 0] = 1e8
        direct = np.exp(-0.5 * np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2))
        np.testing.assert_allclose(gram(unit, 0b111, A, B), direct, rtol=0, atol=1e-12)

    def test_empty_subset_is_all_ones(self, params, rng):
        A = rng.normal(size=(4, 3))
        B = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(
            gram(params, 0, A, B), np.ones((4, 5))
        )

    def test_scalar_formula(self):
        p = KernelParams(variance=1.0, lengthscales=np.array([1.0]))
        K = gram(p, 1, [[0.0]], [[1.0]])
        assert K[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_symmetric_psd_for_all_subsets(self, params, rng):
        X = rng.normal(size=(10, 3))
        for mask in range(8):
            K = gram(params, mask, X, X)
            np.testing.assert_allclose(K, K.T, atol=1e-12)
            assert numerics.is_psd(numerics.symmetrize(K), tol_jitter=1e-8)

    def test_masked_out_columns_are_ignored_bitwise(self, params, rng):
        X = rng.normal(size=(6, 3))
        K1 = gram(params, 0b010, X, X)
        X2 = X.copy()
        X2[:, 0] += 100.0
        X2[:, 2] = -X2[:, 2]
        K2 = gram(params, 0b010, X2, X2)
        np.testing.assert_array_equal(K1, K2)

    def test_dimension_mismatch(self, params):
        with pytest.raises(DimensionMismatch):
            gram(params, 0b111, np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("mask", [0b1000, 0b1111, 1 << 64, -1])
    def test_mask_bits_beyond_the_kernel_are_rejected(self, params, mask):
        with pytest.raises(DimensionMismatch):
            gram(params, mask, np.zeros((2, 3)), np.zeros((2, 3)))

    def test_masks_wider_than_int64(self, rng):
        # 70 features: the full mask does not fit an int64
        params = KernelParams(variance=1.0, lengthscales=np.full(70, 3.0))
        X = rng.normal(size=(4, 70))
        K = gram(params, (1 << 70) - 1, X, X)
        sq = ((X[:, None, :] - X[None, :, :]) / 3.0) ** 2
        np.testing.assert_allclose(K, np.exp(-0.5 * sq.sum(axis=2)), rtol=1e-12)
        # the top feature alone: the others are ignored
        K_top = gram(params, 1 << 69, X, X)
        np.testing.assert_allclose(K_top, np.exp(-0.5 * sq[:, :, 69]), rtol=1e-12)

    @staticmethod
    def reference(params, mask, A, B):
        """variance * exp(-sq / 2) over direct differences, in Python floats."""
        out = np.empty((len(A), len(B)))
        for i, a in enumerate(A):
            for j, b in enumerate(B):
                sq = 0.0
                for u in [u for u in range(params.dim) if mask >> u & 1]:
                    try:
                        sq += ((float(a[u]) - float(b[u]))
                               / float(params.lengthscales[u])) ** 2
                    except OverflowError:
                        sq = math.inf
                out[i, j] = params.variance * math.exp(-0.5 * sq)
        return out

    @pytest.mark.parametrize("A,B,ls", [
        ([[3.3e154, 0.5], [0.0, 0.5]], [[0.1, 0.4], [-0.2, 0.9]], [2.4, 0.9]),
        ([[1.7e308, 0.5], [-1.7e308, 0.0]], [[0.1, 0.4], [1.7e308, 0.5]], [0.9, 0.9]),
        ([[1e200, 1e200], [1e200, 0.0]], [[1e200, 1e200], [0.0, 0.0]], [1.0, 1.0]),
        ([[0.0, 0.5], [1.68e-199, 0.1], [1.0, 0.7]],
         [[0.0, 0.5], [1.68e-199, 0.1], [1.0, 0.7]], [4.2e-200, 0.1]),
    ])
    def test_extreme_magnitudes_are_exact_and_silent(self, A, B, ls):
        # the expansion would overflow (inf - inf = nan on equal rows); the
        # direct differences give k == variance there and k == 0 far away
        params = KernelParams(variance=1.5, lengthscales=np.array(ls))
        A, B = np.array(A), np.array(B)
        for mask in range(1, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                K = gram(params, mask, A, B)
            np.testing.assert_allclose(K, self.reference(params, mask, A, B),
                                       rtol=1e-14, atol=1e-300)

    def test_direct_differences_match_the_expansion(self, params, rng, monkeypatch):
        A = rng.normal(size=(7, 3))
        B = rng.normal(size=(5, 3))
        expanded = gram(params, 0b111, A, B)
        monkeypatch.setattr(kernels, "NORM_LIMIT", -1.0)    # every call takes the other path
        direct = gram(params, 0b111, A, B)
        np.testing.assert_allclose(direct, expanded, rtol=1e-13)
        np.testing.assert_allclose(direct, self.reference(params, 0b111, A, B),
                                   rtol=1e-14)


class TestMedianHeuristic:
    def test_constant_column_falls_back(self):
        X = np.array([[1.0, 0.0], [1.0, 2.0], [1.0, 5.0]])
        ls = median_heuristic(X)
        assert ls[0] == 1.0

    def test_single_pair(self):
        ls = median_heuristic(np.array([[0.0], [1.0]]))
        assert ls[0] == pytest.approx(1.0)

    def test_three_point_median(self):
        # pairwise |diffs| of {0, 1, 3} are {1, 3, 2}, median 2
        ls = median_heuristic(np.array([[0.0], [1.0], [3.0]]))
        assert ls[0] == pytest.approx(2.0)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            median_heuristic(np.array([[1.0, 2.0]]))

    @staticmethod
    def _pairwise_median(X):
        # the definition: median of |X[a, u] - X[b, u]| over all pairs a < b
        iu = np.triu_indices(X.shape[0], k=1)
        meds = [float(np.median(np.abs(X[iu[0], u] - X[iu[1], u])))
                for u in range(X.shape[1])]
        return np.array([m if m > 0.0 else 1.0 for m in meds])

    def test_equals_the_pairwise_definition_exactly(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 17, 60):
            X = rng.normal(size=(n, 4))
            X[:, 1] = np.round(X[:, 1], 1)          # ties
            X[:, 2] = rng.integers(0, 3, size=n)    # heavy ties
            X[:, 3] = -1.25                         # constant column
            np.testing.assert_array_equal(median_heuristic(X), self._pairwise_median(X))

    def test_memory_is_one_buffer_of_pairs(self):
        import tracemalloc

        X = np.random.default_rng(6).normal(size=(1000, 10))
        tracemalloc.start()
        try:
            median_heuristic(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float buffer of n(n-1)/2 pair distances is 4.0 MB
        assert peak < 5e6

    def test_memory_is_capped_above_the_row_cap(self):
        import tracemalloc

        X = np.random.default_rng(7).normal(size=(4000, 6))
        tracemalloc.start()
        try:
            median_heuristic(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all 4,000 rows would be a 64 MB buffer of pair distances
        assert peak < 5e6

    def test_above_the_cap_reads_evenly_spaced_rows(self):
        from ssvkit.kernels import MEDIAN_MAX_ROWS

        rng = np.random.default_rng(8)
        X = rng.normal(size=(4 * MEDIAN_MAX_ROWS + 3, 2))
        rows = X[np.arange(MEDIAN_MAX_ROWS) * X.shape[0] // MEDIAN_MAX_ROWS]
        assert len(np.unique(rows, axis=0)) == MEDIAN_MAX_ROWS
        np.testing.assert_array_equal(median_heuristic(X), self._pairwise_median(rows))
        X = X[:MEDIAN_MAX_ROWS]                     # at the cap every row is read
        np.testing.assert_array_equal(median_heuristic(X), self._pairwise_median(X))
