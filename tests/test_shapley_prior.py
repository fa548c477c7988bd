import tracemalloc

import numpy as np
import pytest

from ssvkit import cme, coalition, explain, gp, kernels, numerics, shapley_prior
from ssvkit.errors import CountOutOfRange
from ssvkit.shapley_prior import ExplanationDataset, ShapleyPriorModel

from conftest import fit_synthetic_posterior


def small_model(rng, n=6, d=2, noise=1e-2):
    X = rng.normal(size=(n, d))
    Phi = rng.normal(size=(n, d))
    design = coalition.enumerate_coalitions(d)
    params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(d))
    data = ExplanationDataset(X=X, Phi=Phi)
    return shapley_prior.fit(data, X, params, design, lam=1e-3 * n, noise=noise), data


class TestExplanationDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ExplanationDataset(X=np.zeros((3, 2)), Phi=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            ExplanationDataset(X=np.array([[np.inf, 0.0]]), Phi=np.zeros((1, 2)))


class TestKappa:
    def test_symmetric_in_arguments(self, rng):
        model, _ = small_model(rng)
        x, x2 = rng.normal(size=2), rng.normal(size=2)
        K12 = shapley_prior.kappa(model, x, x2)
        K21 = shapley_prior.kappa(model, x2, x)
        np.testing.assert_allclose(K12, K21.T, atol=1e-10)

    def test_diagonal_blocks_are_psd(self, rng):
        model, _ = small_model(rng)
        for _ in range(5):
            x = rng.normal(size=2)
            K = shapley_prior.kappa(model, x, x)
            assert numerics.is_psd(numerics.symmetrize(K))

    def test_efficiency_structure_of_prior(self, rng):
        # rows of A sum to the boundary-difference functional; the induced
        # kernel therefore has 1^T kappa 1 equal to the variance of that
        # difference, which is nonnegative
        model, _ = small_model(rng)
        x = rng.normal(size=2)
        K = shapley_prior.kappa(model, x, x)
        assert np.ones(2) @ K @ np.ones(2) >= -1e-10


class TestFitPredict:
    def test_cov_root_is_scipys_triangular_solve_bit_for_bit(self, rng, monkeypatch):
        from scipy.linalg import solve_triangular

        factors = []
        original = numerics.cholesky_psd

        def recorded(*args, **kwargs):
            factors.append(original(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(numerics, "cholesky_psd", recorded)
        noise = 1e-2
        model, _ = small_model(rng, n=12, d=3, noise=noise)
        weight_factor = factors[-1]                 # the fit's last factorization
        want = np.sqrt(noise) * solve_triangular(
            weight_factor.lower, model.anchor_factor.lower.T, lower=True).T
        assert model.cov_root.tobytes() == want.tobytes()

    def test_interpolates_prior_samples_with_small_noise(self, rng):
        # explanations drawn from the prior's own range are recovered almost
        # exactly as noise shrinks (the kernel has rank at most n_anchors * d,
        # so arbitrary targets cannot be interpolated, but these can)
        n, d = 6, 2
        X = rng.normal(size=(n, d))
        design = coalition.enumerate_coalitions(d)
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(d))
        lam = 1e-3 * n
        maps = cme.coalition_embedding(params, X, design, lam).projected(X)
        K = kernels.gram(params, (1 << d) - 1, X, X)
        w = rng.normal(size=n)
        Phi = maps @ (K @ w)
        model = shapley_prior.fit(
            ExplanationDataset(X=X, Phi=Phi), X, params, design, lam=lam, noise=1e-10
        )
        for a in range(n):
            mean, _ = shapley_prior.predict(model, X[a])
            np.testing.assert_allclose(mean, Phi[a], atol=1e-4)

    def test_lambda_none_is_the_default_of_the_anchor_count(self, rng):
        X, Phi = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
        anchors = X[:5]
        design = coalition.enumerate_coalitions(3)
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(3))
        data = ExplanationDataset(X=X, Phi=Phi)
        default = shapley_prior.fit(data, anchors, params, design, None, 1e-2)
        explicit = shapley_prior.fit(data, anchors, params, design, cme.default_lambda(5), 1e-2)
        np.testing.assert_array_equal(default.mean_map, explicit.mean_map)
        np.testing.assert_array_equal(default.cov_root, explicit.cov_root)
        X_new = rng.normal(size=(4, 3))
        for a, b in zip(shapley_prior.predict_batch(default, X_new),
                        shapley_prior.predict_batch(explicit, X_new)):
            np.testing.assert_array_equal(a, b)

    def test_posterior_variance_shrinks_below_prior(self, rng):
        model, data = small_model(rng)
        x = rng.normal(size=2)
        prior = shapley_prior.kappa(model, x, x)
        _, post = shapley_prior.predict(model, x)
        assert np.all(np.diag(post) <= np.diag(prior) + 1e-10)

    def test_far_field_limit_is_a_constant(self, rng):
        # far from the anchors every non-empty coalition kernel vanishes, so
        # predictions at distinct remote inputs approach a common constant
        model, _ = small_model(rng)
        m1, c1 = shapley_prior.predict(model, np.full(2, 50.0))
        m2, c2 = shapley_prior.predict(model, np.full(2, -60.0))
        np.testing.assert_allclose(m1, m2, atol=1e-6)
        np.testing.assert_allclose(c1, c2, atol=1e-6)

    def test_empty_dataset_predicts_prior(self, rng):
        design = coalition.enumerate_coalitions(2)
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(2))
        anchors = rng.normal(size=(5, 2))
        model = shapley_prior.fit(
            ExplanationDataset(X=np.zeros((0, 2)), Phi=np.zeros((0, 2))),
            anchors, params, design, lam=5e-3, noise=1e-2,
        )
        x = rng.normal(size=2)
        mean, cov = shapley_prior.predict(model, x)
        np.testing.assert_array_equal(mean, np.zeros(2))
        np.testing.assert_allclose(cov, shapley_prior.kappa(model, x, x), atol=1e-12)

    def test_fits_past_the_removed_size_cap(self, rng):
        # n*d = 4,002 was refused when fit formed the (n*d)^2 gram (128 MB);
        # the weight-space fit holds only (n*d) x n_anchors arrays
        X = rng.normal(size=(2001, 2))
        design = coalition.enumerate_coalitions(2)
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(2))
        tracemalloc.start()
        try:
            model = shapley_prior.fit(
                ExplanationDataset(X=X, Phi=rng.normal(size=X.shape)),
                X[:5], params, design, lam=1e-2, noise=1e-2,
            )
            means, covs = shapley_prior.predict_batch(model, rng.normal(size=(50, 2)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert np.all(np.isfinite(means)) and np.all(np.isfinite(covs))
        assert all(numerics.is_psd(c) for c in covs)

    def test_noise_must_be_positive(self, rng):
        X = rng.normal(size=(3, 2))
        design = coalition.enumerate_coalitions(2)
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(2))
        with pytest.raises(ValueError):
            shapley_prior.fit(
                ExplanationDataset(X=X, Phi=X), X, params, design, lam=1e-2, noise=0.0
            )

    def test_predictions_are_permutation_invariant(self, rng):
        # permuting the training instances leaves the predictions unchanged
        X = rng.normal(size=(4, 2))
        Phi = rng.normal(size=(4, 2))
        design = coalition.enumerate_coalitions(2)
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(2))
        anchors = rng.normal(size=(6, 2))
        m1 = shapley_prior.fit(ExplanationDataset(X=X, Phi=Phi), anchors, params,
                               design, lam=6e-3, noise=1e-2)
        perm = np.array([2, 0, 3, 1])
        m2 = shapley_prior.fit(ExplanationDataset(X=X[perm], Phi=Phi[perm]), anchors,
                               params, design, lam=6e-3, noise=1e-2)
        x = rng.normal(size=2)
        np.testing.assert_allclose(
            shapley_prior.predict(m1, x)[0], shapley_prior.predict(m2, x)[0],
            atol=1e-8,
        )


def dense_reference(X, Phi, anchors, kernel, design, lam, noise, X_new):
    """Function-space prior: solve against the (n*d)^2 gram F K F^T + noise*I.

    Returns the predictive means and covariances at X_new and the induced
    payoffs B(x) K F^T alpha, with alpha the dual vector.
    """
    n, d = X.shape
    emb = cme.coalition_embedding(kernel, anchors, design, lam)
    K = kernels.gram(kernel, (1 << d) - 1, anchors, anchors)
    F = emb.projected(X).reshape(n * d, anchors.shape[0])
    gram = F @ K @ F.T + noise * np.eye(n * d)
    alpha = np.linalg.solve(gram, Phi.reshape(-1)) if n else np.zeros(0)
    M = emb.projected(X_new)
    cross = M @ K @ F.T                                     # n_new x d x (n*d)
    means = cross @ alpha
    covs = M @ K @ M.transpose(0, 2, 1)
    if n:
        covs = covs - cross @ np.linalg.solve(gram, cross.transpose(0, 2, 1))
    payoffs = np.einsum("jik,i->kj", emb.weights(X_new), K @ F.T @ alpha)
    return means, covs, payoffs


def assert_relative(actual, expected, rtol=1e-10):
    """Entrywise agreement relative to the largest entry of ``expected``."""
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected), initial=0.0) <= rtol * np.max(
        np.abs(expected), initial=0.0)


class TestWeightSpaceMatchesFunctionSpace:
    @pytest.mark.parametrize("n,n_anchor,copies", [
        (12, 8, 1),      # distinct anchors
        (0, 6, 1),       # empty dataset: the prior itself
        (10, 5, 10),     # 50 anchors, 5 distinct: K_anchor is singular
    ], ids=["distinct", "empty", "duplicate-anchors"])
    def test_fit_predict_and_payoff(self, rng, n, n_anchor, copies):
        d = 3
        X = rng.normal(size=(max(n, n_anchor), d))
        Phi = rng.normal(size=(n, d))
        anchors = np.tile(X[:n_anchor], (copies, 1))
        X = X[:n]
        design = coalition.enumerate_coalitions(d)
        kernel = kernels.KernelParams(variance=1.0, lengthscales=np.ones(d))
        lam, noise = 1e-3 * anchors.shape[0], 1e-2
        X_new = rng.normal(size=(7, d))
        model = shapley_prior.fit(ExplanationDataset(X=X, Phi=Phi), anchors, kernel,
                                  design, lam, noise)
        assert (model.anchor_factor.jitter_used > 0) == (copies > 1)
        means, covs, payoffs = dense_reference(X, Phi, anchors, kernel, design, lam,
                                               noise, X_new)
        got_means, got_covs = shapley_prior.predict_batch(model, X_new)
        assert_relative(got_means, means)
        assert_relative(got_covs, covs)
        assert_relative(np.array([shapley_prior.induced_payoff(model, x) for x in X_new]),
                        payoffs)


class TestInducedPayoff:
    def test_projection_identity(self, rng):
        # the induced payoff vector projects exactly onto the predictive mean
        for _ in range(5):
            n, d = int(rng.integers(3, 7)), int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            Phi = rng.normal(size=(n, d))
            design = coalition.enumerate_coalitions(d)
            params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(d))
            model = shapley_prior.fit(
                ExplanationDataset(X=X, Phi=Phi), X, params, design,
                lam=1e-3 * n, noise=1e-2,
            )
            x = rng.normal(size=d)
            mean, _ = shapley_prior.predict(model, x)
            v = shapley_prior.induced_payoff(model, x)
            np.testing.assert_allclose(design.A @ v, mean, atol=1e-9)

    def test_empty_model_payoff_is_zero(self, rng):
        design = coalition.enumerate_coalitions(2)
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(2))
        model = shapley_prior.fit(
            ExplanationDataset(X=np.zeros((0, 2)), Phi=np.zeros((0, 2))),
            rng.normal(size=(4, 2)), params, design, lam=4e-3, noise=1e-2,
        )
        np.testing.assert_array_equal(
            shapley_prior.induced_payoff(model, np.zeros(2)), np.zeros(4)
        )


class TestPredictiveAccuracy:
    def test_beats_mean_baseline_on_smooth_explanations(self, rng):
        # fit on GP-SHAP explanations of half the data, evaluate on the rest
        post, data = fit_synthetic_posterior(rng, n=60, d=3, n_inducing=25)
        design = coalition.enumerate_coalitions(3)
        batch = explain.gpshap(post, design, data.X)
        train, test = np.arange(0, 40), np.arange(40, 60)
        params = kernels.KernelParams(
            variance=1.0, lengthscales=kernels.median_heuristic(data.X[train])
        )
        anchors = shapley_prior.farthest_point_anchors(data.X[train], 30)
        model = shapley_prior.fit(
            ExplanationDataset(X=data.X[train], Phi=batch.means[train]),
            anchors, params, design, lam=1e-3 * anchors.shape[0], noise=1e-4,
        )
        preds = np.array([shapley_prior.predict(model, x)[0] for x in data.X[test]])
        rmse = np.sqrt(np.mean((preds - batch.means[test]) ** 2))
        baseline = np.sqrt(
            np.mean((batch.means[train].mean(axis=0) - batch.means[test]) ** 2)
        )
        assert rmse < 0.8 * baseline


class TestFarthestPointAnchors:
    def test_count_clamped_and_deterministic(self, rng):
        X = rng.normal(size=(10, 2))
        a = shapley_prior.farthest_point_anchors(X, 25)
        assert a.shape == (10, 2)
        b = shapley_prior.farthest_point_anchors(X, 4)
        c = shapley_prior.farthest_point_anchors(X, 4)
        np.testing.assert_array_equal(b, c)
        # anchors are rows of X
        for row in b:
            assert np.any(np.all(np.isclose(X, row), axis=1))

    def test_same_rows_as_farthest_point_inducing(self, rng):
        X = rng.normal(size=(12, 3))
        idx = gp.select_inducing(gp.Dataset(X=X, y=np.zeros(12)), 5, "farthest_point")
        np.testing.assert_array_equal(shapley_prior.farthest_point_anchors(X, 5), X[idx])

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_raises(self, rng, count):
        with pytest.raises(CountOutOfRange):
            shapley_prior.farthest_point_anchors(rng.normal(size=(4, 2)), count)
