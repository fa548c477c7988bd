import numpy as np
import pytest

from ssvkit import cme, coalition, gp, kernels, numerics
from ssvkit.errors import DesignMismatch, DimensionMismatch
from ssvkit.kernels import FeatureSubset

from conftest import fit_synthetic_posterior


@pytest.fixture
def posterior(rng):
    post, data = fit_synthetic_posterior(rng, n=40, d=3, n_inducing=25)
    return post, data


class TestDefaultLambda:
    def test_scales_with_sample_size(self):
        assert cme.default_lambda(100) == pytest.approx(0.1)
        assert cme.default_lambda(1) == pytest.approx(1e-3)


class TestEmbeddingWeights:
    def test_empty_coalition_is_uniform_average(self, posterior):
        post, data = posterior
        n_i = post.n_inducing
        lam = cme.default_lambda(n_i)
        w = cme.embedding_weights(post, FeatureSubset.empty(3), data.X[:4], lam)
        # (J + lam I)^-1 1 where J is all-ones: every weight equals 1/(n+lam)
        np.testing.assert_allclose(
            w.weights, np.full((n_i, 4), 1.0 / (n_i + lam)), atol=1e-10
        )

    def test_full_coalition_interpolates_at_inducing_row(self, posterior):
        # explaining an inducing input with tiny lambda: weights approach the
        # indicator of that row, so b^T m recovers the posterior mean there
        post, _ = posterior
        x = post.inducing_points[3:4]
        w = cme.embedding_weights(post, FeatureSubset.full(3), x, lam=1e-8)
        val = w.weights[:, 0] @ post.mean_at_inducing
        assert val == pytest.approx(post.mean_at_inducing[3], abs=1e-3)

    def test_lambda_must_be_positive(self, posterior):
        post, data = posterior
        with pytest.raises(ValueError):
            cme.embedding_weights(post, FeatureSubset.full(3), data.X[:1], 0.0)

    def test_matches_direct_solve(self, posterior):
        post, data = posterior
        lam = 0.05
        w = cme.embedding_weights(post, FeatureSubset(0b101, 3), data.X[:3], lam)
        Xi = post.inducing_points
        K_s = kernels.gram(post.kernel, 0b101, Xi, Xi)
        k_sx = kernels.gram(post.kernel, 0b101, Xi, data.X[:3])
        direct = np.linalg.solve(K_s + lam * np.eye(Xi.shape[0]), k_sx)
        np.testing.assert_allclose(w.weights, direct, atol=1e-8)

    def test_subset_feature_count_must_match(self, posterior):
        post, data = posterior
        with pytest.raises(DimensionMismatch):
            cme.embedding_weights(post, FeatureSubset.full(4), data.X[:1], 0.1)


class TestEmbeddingBatch:
    def test_tensor_shape_and_order(self, posterior):
        post, data = posterior
        design = coalition.enumerate_coalitions(3)
        batch = cme.embedding_batch(post, design, data.X[:5])
        B = batch.tensor()
        assert B.shape == (8, post.n_inducing, 5)
        # bit-equal to solves at the default lambda: the default is the one used
        lam = cme.default_lambda(post.n_inducing)
        for j, mask in enumerate(design.masks):
            w = cme.embedding_weights(post, FeatureSubset(int(mask), 3), data.X[:5], lam)
            np.testing.assert_array_equal(B[j], w.weights)

    def test_feature_count_mismatch(self, posterior):
        post, data = posterior
        design = coalition.enumerate_coalitions(4)
        with pytest.raises(DesignMismatch):
            cme.embedding_batch(post, design, data.X[:2])


class TestGameMoments:
    def test_moment_formulas(self, posterior):
        post, data = posterior
        design = coalition.enumerate_coalitions(3)
        batch = cme.embedding_batch(post, design, data.X[:3])
        games = cme.game_moments(post, batch)
        assert len(games) == 3
        B = batch.tensor()
        for k, game in enumerate(games):
            Bk = B[:, :, k]
            np.testing.assert_allclose(
                game.payoff_mean, Bk @ post.mean_at_inducing, atol=1e-12
            )
            np.testing.assert_allclose(
                game.payoff_cov, Bk @ post.cov_at_inducing @ Bk.T, atol=1e-12
            )
            assert numerics.is_psd(game.payoff_cov)

    def test_zero_posterior_cov_gives_exactly_zero_payoff_cov(self, posterior):
        post, data = posterior
        frozen = gp.GPPosterior(
            inducing_points=post.inducing_points,
            mean_at_inducing=post.mean_at_inducing,
            cov_at_inducing=np.zeros((post.n_inducing, post.n_inducing)),
            kernel=post.kernel,
            noise=post.noise,
        )
        design = coalition.enumerate_coalitions(3)
        batch = cme.embedding_batch(frozen, design, data.X[:2])
        for game in cme.game_moments(frozen, batch):
            assert np.all(game.payoff_cov == 0.0)

    def test_grand_coalition_payoff_tracks_posterior_mean(self, posterior):
        # with small lambda the grand-coalition payoff at an inducing input
        # approaches the posterior mean prediction there
        post, _ = posterior
        design = coalition.enumerate_coalitions(3)
        x = post.inducing_points[:4]
        batch = cme.embedding_batch(post, design, x, lam=1e-6)
        games = cme.game_moments(post, batch)
        for k, game in enumerate(games):
            assert game.payoff_mean[-1] == pytest.approx(
                post.mean_at_inducing[k], abs=1e-3
            )
