import numpy as np
import pytest

from ssvkit import numerics
from ssvkit.errors import JitterExceeded


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
        # only LinAlgError climbs the jitter ladder; anything else surfaces
        # on the first attempt
        import scipy.linalg

        calls = []

        def out_of_memory(*args, **kwargs):
            calls.append(args)
            raise MemoryError

        monkeypatch.setattr(scipy.linalg, "cholesky", out_of_memory)
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
        import scipy.linalg

        seen = []
        original = scipy.linalg.cholesky

        def spy(a, *args, **kwargs):
            seen.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cholesky", spy)
        m = 2.0 * np.eye(3)
        numerics.cholesky_psd(m)
        assert len(seen) == 1 and seen[0] is m


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
