import warnings

import numpy as np
import pytest

from ssvkit import analysis, coalition, explain

from conftest import fit_synthetic_posterior, random_psd


@pytest.fixture
def batch(rng):
    post, data = fit_synthetic_posterior(rng, n=40, d=4, n_inducing=25)
    design = coalition.enumerate_coalitions(4)
    return explain.gpshap(post, design, data.X[:8])


class TestFoldedMean:
    def test_zero_mean_closed_form(self):
        assert analysis.folded_mean(0.0, 1.0) == pytest.approx(np.sqrt(2.0 / np.pi))
        assert analysis.folded_mean(0.0, 2.0) == pytest.approx(2 * np.sqrt(2.0 / np.pi))

    def test_degenerate_sigma_is_abs(self):
        assert analysis.folded_mean(-3.0, 0.0) == 3.0
        assert analysis.folded_mean(2.5, 0.0) == 2.5

    def test_symmetric_in_mu(self):
        for mu in (0.5, 1.0, 2.0):
            assert analysis.folded_mean(mu, 1.3) == pytest.approx(
                analysis.folded_mean(-mu, 1.3), abs=1e-12
            )

    def test_dominates_abs_mu(self):
        # Jensen: E|X| >= |E X|
        for mu in (-2.0, -0.5, 0.0, 1.0):
            for sigma in (0.1, 1.0, 3.0):
                assert analysis.folded_mean(mu, sigma) >= abs(mu)

    def test_large_mu_limit(self):
        # far from the fold, E|X| ~ mu
        assert analysis.folded_mean(50.0, 1.0) == pytest.approx(50.0, abs=1e-9)

    @pytest.mark.parametrize("mu", [1.0, -2.5])
    def test_denormal_variance_is_silent_and_exact(self, mu):
        # sigma^2 = 4.3e-316 makes mu^2 / (2 sigma^2) overflow; exp(-inf) = 0
        # leaves |mu|, and no RuntimeWarning may reach the caller
        sigma = np.sqrt(np.float64(4.3e-316))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert analysis.folded_mean(np.float64(mu), sigma) == abs(mu)

    @pytest.mark.parametrize("scalar", [float, np.float64])
    @pytest.mark.parametrize("mu", [0.0, 1e-170])
    def test_underflowing_variance_is_silent_and_scale_free(self, scalar, mu):
        # sigma^2 underflows to 0, so mu^2 / (2 sigma^2) would be 0/0;
        # E|N(mu, sigma^2)| = sigma * E|N(mu / sigma, 1)| still holds
        sigma = 1e-170
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = analysis.folded_mean(scalar(mu), scalar(sigma))
        expected = sigma * analysis.folded_mean(mu / sigma, 1.0)
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)
        if mu == 0.0:
            assert got == sigma * np.sqrt(2.0 / np.pi)

    def test_matches_monte_carlo(self, rng):
        for mu in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for sigma in (0.5, 1.0, 2.0):
                draws = np.abs(rng.normal(mu, sigma, size=400_000))
                assert analysis.folded_mean(mu, sigma) == pytest.approx(
                    draws.mean(), abs=5e-3
                )

    def test_negative_sigma_raises(self):
        with pytest.raises(ValueError):
            analysis.folded_mean(0.0, -1.0)

    def test_equals_the_scipy_stats_expression_bit_for_bit(self, rng):
        from scipy import stats

        mus = np.r_[np.linspace(-40.0, 40.0, 161), rng.normal(scale=5.0, size=200), 0.0]
        for sigma in (1e-12, 1e-3, 0.3, 1.0, 2.5, 1e3):
            for mu in mus:
                old = float(
                    sigma * np.sqrt(2.0 / np.pi) * np.exp(-mu * mu / (2.0 * sigma * sigma))
                    + mu * (1.0 - 2.0 * stats.norm.cdf(-mu / sigma))
                )
                assert analysis.folded_mean(mu, sigma) == old

    def test_array_call_equals_entry_by_entry_calls_bit_for_bit(self, rng):
        mus = np.r_[np.linspace(-40.0, 40.0, 81), rng.normal(scale=5.0, size=40), 0.0, 1e-170]
        sigmas = np.array([0.0, 1e-170, np.sqrt(4.3e-316), 1e-12, 0.3, 1.0, 2.5, 1e3])
        mu, sigma = np.meshgrid(mus, sigmas, indexing="ij")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = analysis.folded_mean(mu, sigma)
            want = [[analysis.folded_mean(a, b) for b in sigmas] for a in mus]
        assert got.shape == mu.shape
        assert got.tobytes() == np.array(want).tobytes()
        assert all(type(v) is float for row in want for v in row)

    def test_negative_sigma_in_an_array_raises(self):
        with pytest.raises(ValueError):
            analysis.folded_mean(np.zeros(3), np.array([1.0, -1.0, 1.0]))

    def test_importance_calls_it_once(self, monkeypatch, rng):
        calls, original = [], analysis.folded_mean

        def counted(mu, sigma):
            calls.append(np.shape(mu))
            return original(mu, sigma)

        monkeypatch.setattr(analysis, "folded_mean", counted)
        analysis.importance(rng.normal(size=(7, 3)), rng.uniform(size=(7, 3)))
        assert calls == [(7, 3)]


class TestAverageRanks:
    def test_untied_ranks_are_a_permutation(self, rng):
        x = rng.normal(size=50)
        ranks = analysis.average_ranks(x)
        np.testing.assert_array_equal(np.sort(ranks), np.arange(1.0, 51.0))
        np.testing.assert_array_equal(np.argsort(ranks), np.argsort(x))

    def test_ties_share_their_average_rank(self):
        ranks = analysis.average_ranks(np.array([3.0, 1.0, 3.0, 2.0, 3.0, -0.0, 0.0]))
        np.testing.assert_array_equal(ranks, [6.0, 3.0, 6.0, 4.0, 6.0, 1.5, 1.5])

    def test_equals_scipy_rankdata_exactly(self, rng):
        from scipy import stats

        for n in (0, 1, 2, 7, 100):
            for x in (rng.normal(size=n),
                      rng.integers(0, 4, size=n).astype(float),
                      np.full(n, 2.5),
                      np.r_[rng.normal(size=n), np.nan]):    # NaN propagates
                ranks = analysis.average_ranks(x)
                expected = stats.rankdata(x)
                assert ranks.dtype == expected.dtype
                np.testing.assert_array_equal(ranks, expected)


class TestGlobalImportance:
    def test_jensen_inequality_per_feature(self, batch):
        gi = analysis.global_importance(batch)
        assert np.all(gi.mean_abs_ssv >= gi.abs_mean_ssv - 1e-12)

    def test_zero_uncertainty_collapses_the_gap(self, batch):
        # with covariance removed both notions coincide
        frozen = explain.ExplanationBatch(
            means=batch.means,
            cov_factor=np.zeros_like(batch.cov_factor),
            design=batch.design,
            payoff_means=batch.payoff_means,
        )
        gi = analysis.global_importance(frozen)
        np.testing.assert_allclose(gi.mean_abs_ssv, gi.abs_mean_ssv, atol=1e-12)

    def test_matches_the_axis_0_mean_formula(self, batch):
        # the importance averages column by column; mean(axis=0) may differ
        # from it in the last bit only
        sds = batch.stds()
        folded = np.array([[analysis.folded_mean(batch.means[k, i], sds[k, i])
                            for i in range(batch.d)] for k in range(batch.n_instances)])
        gi = analysis.global_importance(batch)
        np.testing.assert_allclose(gi.mean_abs_ssv, folded.mean(axis=0), rtol=1e-14, atol=0)
        np.testing.assert_allclose(gi.abs_mean_ssv, np.abs(batch.means).mean(axis=0),
                                   rtol=1e-14, atol=0)

    def test_importance_of_arrays_equals_column_means_exactly(self, rng):
        means, sds = rng.normal(size=(7, 3)), rng.uniform(0, 2, size=(7, 3))
        gi = analysis.importance(means, sds)
        for i in range(3):
            folded = [analysis.folded_mean(means[k, i], sds[k, i]) for k in range(7)]
            assert gi.mean_abs_ssv[i] == np.array(folded).mean()
            assert gi.abs_mean_ssv[i] == np.abs(means[:, i]).mean()


class TestValueQuantiles:
    def test_midpoint_quantiles_per_column(self):
        X = np.array([[3.0, 1.0], [1.0, 1.0], [2.0, 5.0], [2.0, 0.0]])
        expected = np.array([[3.5, 2.0], [0.5, 2.0], [2.0, 3.5], [2.0, 0.5]]) / 4
        np.testing.assert_array_equal(analysis.value_quantiles(X), expected)


class TestCorrelationMatrix:
    def test_unit_diagonal_and_range(self, rng):
        corr = analysis.correlation_matrix(random_psd(rng, 5))
        np.testing.assert_allclose(np.diag(corr), np.ones(5), atol=1e-12)
        assert np.all(np.abs(corr) <= 1.0 + 1e-10)
        np.testing.assert_allclose(corr, corr.T, atol=1e-14)

    def test_hand_2x2(self):
        cov = np.array([[4.0, 2.0], [2.0, 9.0]])
        corr = analysis.correlation_matrix(cov)
        assert corr[0, 1] == pytest.approx(2.0 / 6.0)

    def test_degenerate_rows_become_isolated(self):
        cov = np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 1.0]])
        corr = analysis.correlation_matrix(cov)
        assert corr[1, 1] == 1.0
        assert np.all(corr[1, [0, 2]] == 0.0)
        assert np.all(corr[[0, 2], 1] == 0.0)
        assert corr[0, 2] == pytest.approx(0.5)


class TestPrecisionGraph:
    def test_chain_covariance_recovers_chain_edges(self):
        # AR(1)-style chain: partial correlations vanish beyond lag one, so
        # thresholding keeps exactly the consecutive pairs
        r, d = 0.6, 5
        cov = np.array([[r ** abs(i - j) for j in range(d)] for i in range(d)])
        edges = analysis.precision_graph(cov, sparsity=0.6)
        assert sorted((i, j) for i, j, _ in edges) == [(i, i + 1) for i in range(d - 1)]
        for _, _, rho in edges:
            assert rho > 0

    def test_diagonal_cov_yields_no_edges(self):
        edges = analysis.precision_graph(np.diag([1.0, 2.0, 3.0]), sparsity=0.0)
        assert edges == []

    def test_sparsity_monotonicity(self, rng):
        cov = random_psd(rng, 6) + np.eye(6)
        low = analysis.precision_graph(cov, sparsity=0.1)
        high = analysis.precision_graph(cov, sparsity=0.9)
        assert len(high) <= len(low)
        assert set(high).issubset(set(low))

    def test_sparsity_validation(self, rng):
        with pytest.raises(ValueError):
            analysis.precision_graph(np.eye(2), sparsity=1.0)

    def test_single_feature_graph_is_empty(self):
        assert analysis.precision_graph(np.array([[2.0]])) == []


class TestQuantile:
    """``analysis._quantile`` is ``np.quantile``'s default method bit for bit."""

    def test_equals_numpy_bit_for_bit(self):
        rng = np.random.default_rng(8)
        levels = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]
        for k in range(3000):
            n = int(rng.integers(1, 50))
            v = np.abs(rng.standard_cauchy(size=n))
            if k % 3 == 0:
                v = np.round(v, 1)                  # ties
            if k % 7 == 0:
                v[rng.integers(n)] = np.inf
            if k % 11 == 0:
                v[rng.integers(n)] = np.nan
            for q in [*levels, float(rng.uniform())]:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)     # inf - inf
                    want, got = np.quantile(v, q), analysis._quantile(v, q)
                assert np.float64(got).tobytes() == want.tobytes(), (v, q)


class TestBeeswarmExport:
    def test_rows_and_quantiles(self, batch, rng):
        X = rng.normal(size=(8, 4))
        rows = analysis.beeswarm_export(batch.means, batch.stds(), X)
        assert len(rows) == 8 * 4
        # instance-major: instance k's d rows come before instance k + 1's
        assert [row[:2] for row in rows] == [(k, i) for k in range(8) for i in range(4)]
        # quantiles use the midpoint convention: (rank - 0.5) / n
        by_feature = {}
        for row in rows:
            by_feature.setdefault(row[1], []).append(row)
        for feature_rows in by_feature.values():
            qs = sorted(r[5] for r in feature_rows)
            np.testing.assert_allclose(qs, (np.arange(8) + 0.5) / 8, atol=1e-12)

    def test_shape_mismatch(self, batch):
        with pytest.raises(ValueError):
            analysis.beeswarm_export(batch.means, batch.stds(), np.zeros((3, 4)))
