"""The factor-once coalition embedding and its two consumers.

The reference functions below are the per-input, per-coalition loops the
embedding replaced, kept verbatim in arithmetic order: every coalition
gram is refactored for every input, the prior gram is filled block by
block, and the GP-SHAP factor contracts B with L before A.  The streamed
projection (B(X) in bounded blocks of coalitions) is checked against one
block and against the memory of the whole weight tensor.
"""

import tracemalloc
from math import comb

import numpy as np
import pytest

from ssvkit import cme, coalition, explain, kernels, numerics, shapley_prior
from ssvkit.shapley_prior import ExplanationDataset

from conftest import fit_synthetic_posterior


def reference_map(anchors, kernel, design, lam, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_anchor = anchors.shape[0]
    B = np.empty((design.n_coalitions, n_anchor))
    eye = lam * np.eye(n_anchor)
    for j, mask in enumerate(design.masks):
        K_s = kernels.gram(kernel, mask, anchors, anchors)
        k_sx = kernels.gram(kernel, mask, anchors, x)
        B[j] = numerics.cholesky_psd(K_s + eye).solve(k_sx)[:, 0]
    return design.A @ B


def reference_fit_predict(X, Phi, anchors, kernel, design, lam, noise, X_new):
    n, d = X.shape
    K = kernels.gram(kernel, (1 << d) - 1, anchors, anchors)
    maps = [reference_map(anchors, kernel, design, lam, X[a]) for a in range(n)]
    big = np.empty((n * d, n * d))
    for a in range(n):
        rowa = maps[a] @ K
        for b in range(a, n):
            block = rowa @ maps[b].T
            big[a * d:(a + 1) * d, b * d:(b + 1) * d] = block
            if b != a:
                big[b * d:(b + 1) * d, a * d:(a + 1) * d] = block.T
    factor = numerics.cholesky_psd(numerics.symmetrize(big) + noise * np.eye(n * d))
    alpha = factor.solve(Phi.reshape(-1))
    means, covs = [], []
    for x in X_new:
        Mx = reference_map(anchors, kernel, design, lam, x)
        left = Mx @ K
        cross = np.hstack([left @ maps[a].T for a in range(n)])
        means.append(cross @ alpha)
        covs.append(numerics.symmetrize(Mx @ K @ Mx.T - cross @ factor.solve(cross.T)))
    return np.array(means), np.array(covs)


def prior_problem(rng, n=12, d=3, n_anchor=8, n_new=7, sampled=None):
    X = rng.normal(size=(n, d))
    Phi = rng.normal(size=(n, d))
    design = (coalition.enumerate_coalitions(d) if sampled is None
              else coalition.sample_coalitions(d, sampled, seed=3))
    kernel = kernels.KernelParams(variance=1.0, lengthscales=kernels.median_heuristic(X))
    anchors = X[:n_anchor]
    lam = cme.default_lambda(n_anchor)
    return X, Phi, anchors, kernel, design, lam, 1e-2, rng.normal(size=(n_new, d))


class TestCoalitionEmbedding:
    def test_weights_match_per_coalition_solves(self, rng):
        X, _, anchors, kernel, design, lam, _, X_new = prior_problem(rng)
        emb = cme.coalition_embedding(kernel, anchors, design, lam)
        B = emb.weights(X_new)
        assert B.shape == (design.n_coalitions, anchors.shape[0], X_new.shape[0])
        for j, mask in enumerate(design.masks):
            K_s = kernels.gram(kernel, mask, anchors, anchors)
            k_sx = kernels.gram(kernel, mask, anchors, X_new)
            direct = numerics.cholesky_psd(K_s + lam * np.eye(len(anchors))).solve(k_sx)
            np.testing.assert_array_equal(B[j], direct)

    def test_projected_is_the_per_input_map(self, rng):
        X, _, anchors, kernel, design, lam, _, X_new = prior_problem(rng)
        M = cme.coalition_embedding(kernel, anchors, design, lam).projected(X_new)
        assert M.shape == (X_new.shape[0], design.d, anchors.shape[0])
        for k, x in enumerate(X_new):
            np.testing.assert_allclose(
                M[k], reference_map(anchors, kernel, design, lam, x), atol=1e-12)

    def test_embedding_batch_equals_retained_factors(self, rng):
        # explain's one-pass weights and the prior's kept factors agree exactly
        post, data = fit_synthetic_posterior(rng, n=30, d=3, n_inducing=15)
        design = coalition.enumerate_coalitions(3)
        lam = cme.default_lambda(post.n_inducing)
        batch = cme.embedding_batch(post, design, data.X[:4], lam)
        emb = cme.coalition_embedding(post.kernel, post.inducing_points, design, lam)
        np.testing.assert_array_equal(batch.tensor(), emb.weights(data.X[:4]))

    def test_lambda_must_be_positive(self, rng):
        _, _, anchors, kernel, design, _, _, _ = prior_problem(rng)
        with pytest.raises(ValueError):
            cme.coalition_embedding(kernel, anchors, design, 0.0)


class TestBatchedPrior:
    @pytest.mark.parametrize("sampled", [None, 5])
    def test_predict_batch_matches_predict_and_reference(self, rng, sampled):
        X, Phi, anchors, kernel, design, lam, noise, X_new = prior_problem(
            rng, sampled=sampled)
        model = shapley_prior.fit(ExplanationDataset(X=X, Phi=Phi), anchors, kernel,
                                  design, lam, noise)
        means, covs = shapley_prior.predict_batch(model, X_new)
        assert means.shape == (len(X_new), design.d)
        assert covs.shape == (len(X_new), design.d, design.d)
        ref_means, ref_covs = reference_fit_predict(X, Phi, anchors, kernel, design,
                                                    lam, noise, X_new)
        for k, x in enumerate(X_new):
            mean, cov = shapley_prior.predict(model, x)
            np.testing.assert_allclose(means[k], mean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(covs[k], cov, rtol=0, atol=1e-12)
            np.testing.assert_allclose(mean, ref_means[k], rtol=0, atol=1e-10)
            np.testing.assert_allclose(cov, ref_covs[k], rtol=0, atol=1e-10)
        np.testing.assert_allclose(means, ref_means, rtol=0, atol=1e-10)
        np.testing.assert_allclose(covs, ref_covs, rtol=0, atol=1e-10)

    def test_blocked_prediction_matches_one_block(self, rng, monkeypatch):
        X, Phi, anchors, kernel, design, lam, noise, X_new = prior_problem(rng)
        model = shapley_prior.fit(ExplanationDataset(X=X, Phi=Phi), anchors, kernel,
                                  design, lam, noise)
        whole = shapley_prior.predict_batch(model, X_new)
        # one entry per block forces one input per block
        monkeypatch.setattr(shapley_prior, "PREDICT_BLOCK_ENTRIES", 1)
        blocked = shapley_prior.predict_batch(model, X_new)
        for a, b in zip(whole, blocked):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_fit_factors_once_and_predict_never(self, rng, count_cholesky):
        X, Phi, anchors, kernel, design, lam, noise, X_new = prior_problem(rng, d=3)
        count_cholesky.clear()  # building the design factors its own system
        model = shapley_prior.fit(ExplanationDataset(X=X, Phi=Phi), anchors, kernel,
                                  design, lam, noise)
        assert len(count_cholesky) == 2 ** 3 + 2  # the coalitions, K_anchor and S
        count_cholesky.clear()
        shapley_prior.predict_batch(model, X_new)
        shapley_prior.induced_payoff(model, X_new[0])
        assert count_cholesky == []


class TestGpshapContraction:
    def test_cov_factor_matches_seed_einsum_order(self, rng):
        post, data = fit_synthetic_posterior(rng, n=40, d=4, n_inducing=20)
        design = coalition.enumerate_coalitions(4)
        X = data.X[:6]
        batch = explain.gpshap(post, design, X)
        B = cme.embedding_batch(post, design, X).tensor()
        L = numerics.cholesky_psd(post.cov_at_inducing, max_jitter=1e-8).lower
        Q = np.einsum("jik,il->jkl", B, L)
        R = np.einsum("ij,jkl->ikl", design.A, Q)
        assert batch.cov_factor.shape == R.shape
        np.testing.assert_allclose(batch.cov_factor, R, rtol=0, atol=1e-12)


def spy_chunks(monkeypatch):
    """Record the coalition count of every block the weight generator yields."""
    sizes = []
    original = cme._weight_chunks

    def recorded(*args):
        for lo, block in original(*args):
            sizes.append(len(block))
            yield lo, block

    monkeypatch.setattr(cme, "_weight_chunks", recorded)
    return sizes


class TestStreamedProjection:
    def test_one_entry_chunks_match_one_chunk(self, rng, monkeypatch):
        post, data = fit_synthetic_posterior(rng, n=40, d=4, n_inducing=20)
        design = coalition.enumerate_coalitions(4)
        X = data.X[:6]
        _, _, anchors, kernel, prior_design, lam, _, X_new = prior_problem(rng)
        emb = cme.coalition_embedding(kernel, anchors, prior_design, lam)
        sizes = spy_chunks(monkeypatch)
        whole = explain.gpshap(post, design, X)
        whole_maps = emb.projected(X_new)
        assert sizes == [design.n_coalitions, prior_design.n_coalitions]
        # one entry per block forces one coalition per block
        monkeypatch.setattr(cme, "CHUNK_ENTRIES", 1)
        sizes.clear()
        streamed = explain.gpshap(post, design, X)
        maps = emb.projected(X_new)
        assert sizes == [1] * (design.n_coalitions + prior_design.n_coalitions)
        for name in ("means", "payoff_means", "cov_factor"):
            np.testing.assert_allclose(getattr(streamed, name), getattr(whole, name),
                                       rtol=0, atol=1e-12)
        np.testing.assert_allclose(maps, whole_maps, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,n,block", [(4, 6, 3), (11, 40, 600)],
                             ids=["blocks-span-size-levels", "several-wide-blocks"])
    def test_maps_are_the_blockwise_sum_bit_for_bit(self, rng, monkeypatch, d, n, block):
        # P += A[:, block] @ B[block], summed block by block in numpy; wide
        # blocks are where a BLAS that accumulates into P (dgemm with beta 1)
        # splits the sum over the block and loses these bits
        post, data = fit_synthetic_posterior(rng, n=60, d=d, n_inducing=20)
        design = coalition.enumerate_coalitions(d)
        X = data.X[:n]
        ell, m = len(design.masks), 20
        monkeypatch.setattr(cme, "CHUNK_ENTRIES", block * m * n)
        maps, _ = cme.projected_batch(post, design, X)
        B = cme.embedding_batch(post, design, X).tensor()
        P = np.zeros((d, m * n))
        for lo in range(0, ell, block):
            P += design.A[:, lo:lo + block] @ B[lo:lo + block].reshape(-1, m * n)
        assert maps.tobytes() == P.reshape(d, m, n).transpose(2, 0, 1).tobytes()

    def test_zero_instances(self, rng):
        post, _ = fit_synthetic_posterior(rng, n=30, d=3, n_inducing=10)
        design = coalition.enumerate_coalitions(3)
        X = np.zeros((0, 3))
        maps, E = cme.projected_batch(post, design, X)
        assert maps.shape == (0, 3, 10) and E.shape == (8, 0)
        assert cme.embedding_batch(post, design, X).tensor().shape == (8, 10, 0)
        X_old, Phi, anchors, kernel, _, lam, noise, _ = prior_problem(rng)
        emb = cme.coalition_embedding(kernel, anchors, design, lam)
        assert emb.projected(X).shape == (0, 3, 8) and emb.weights(X).shape == (8, 8, 0)
        model = shapley_prior.fit(ExplanationDataset(X=X_old, Phi=Phi), anchors, kernel,
                                  design, lam, noise)
        means, covs = shapley_prior.predict_batch(model, X)
        assert means.shape == (0, 3) and covs.shape == (0, 3, 3)

    def test_streamed_payoff_means_match_the_weight_tensor(self, rng, monkeypatch):
        post, data = fit_synthetic_posterior(rng, n=40, d=4, n_inducing=20)
        design = coalition.enumerate_coalitions(4)
        X = data.X[:6]
        monkeypatch.setattr(cme, "CHUNK_ENTRIES", 3 * 20 * 6)  # 3 coalitions a block
        maps, E = cme.projected_batch(post, design, X)
        B = cme.embedding_batch(post, design, X).tensor()
        np.testing.assert_array_equal(E, np.einsum("jik,i->jk", B, post.mean_at_inducing))
        np.testing.assert_allclose(
            maps, np.einsum("ij,jlk->kil", design.A, B), rtol=0, atol=1e-12)

    def test_gpshap_peak_stays_below_the_weight_tensor(self, rng):
        d, m, n = 8, 60, 200
        post, _ = fit_synthetic_posterior(rng, n=80, d=d, n_inducing=m)
        design = coalition.enumerate_coalitions(d)
        X = rng.normal(size=(n, d))
        tensor_bytes = design.n_coalitions * m * n * 8

        def traced_peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the whole tensor is visible to tracemalloc, so the bound below bites
        assert traced_peak(lambda: cme.embedding_batch(post, design, X)) >= tensor_bytes
        assert traced_peak(lambda: explain.gpshap(post, design, X)) < tensor_bytes


class TestStackedGrams:
    """Both sides of the coalition solves are built one ``kernels.grams``
    stack per size level when a level fits one stack."""

    @pytest.fixture
    def spied(self, monkeypatch):
        calls = []
        grams = kernels.grams

        def spy(params, masks, A, B, out=None):
            calls.append((len(A), len(B), int(masks[0]).bit_count(), len(masks)))
            return grams(params, masks, A, B, out)   # which rejects mixed sizes

        def forbidden(*args, **kwargs):
            raise AssertionError("kernels.gram called on the coalition path")

        monkeypatch.setattr(kernels, "grams", spy)
        monkeypatch.setattr(kernels, "gram", forbidden)
        return calls

    @staticmethod
    def levels(calls, m, n):
        """(size, count) of each call whose inputs are m x n rows."""
        return [(size, count) for a, b, size, count in calls if (a, b) == (m, n)]

    @pytest.fixture
    def posterior(self, rng):
        return fit_synthetic_posterior(rng, n=30, d=6, n_inducing=8)

    def test_one_call_per_size_level_per_side(self, posterior, spied):
        (d, m, n), (post, data) = (6, 8, 5), posterior      # fitted before the spy
        design = coalition.enumerate_coalitions(d)
        kernel, rows, X = post.kernel, post.inducing_points, data.X[:n]
        lam = cme.default_lambda(m)
        assert m * m * 20 <= cme.STACK_ENTRIES            # the widest level fits one stack
        full = [(s, comb(d, s)) for s in range(d + 1)]
        cme.projected_batch(post, design, X, lam)
        assert len(spied) == 2 * (d + 1)
        assert self.levels(spied, m, m) == full and self.levels(spied, m, n) == full
        spied.clear()
        cme.coalition_embedding(kernel, rows, design, lam).projected(X)
        assert len(spied) == 2 * (d + 1)
        assert self.levels(spied, m, m) == full and self.levels(spied, m, n) == full

    def test_a_level_wider_than_a_stack_is_cut_into_stacks(self, rng, monkeypatch):
        # one instance: one block holds every coalition, so only the stack
        # bound keeps the right-hand sides' grams from spanning a whole level
        (d, m), n = (10, 100), 1
        post, data = fit_synthetic_posterior(rng, n=120, d=d, n_inducing=m)
        design = coalition.enumerate_coalitions(d)
        X = data.X[:n]
        monkeypatch.setattr(cme, "STACK_ENTRIES", 8 * m * n)
        sizes, grams = [], kernels.grams

        def spy(params, masks, A, B, out=None):
            sizes.append((len(B), len(masks)))
            return grams(params, masks, A, B, out)

        monkeypatch.setattr(kernels, "grams", spy)
        tracemalloc.start()
        try:
            cme.projected_batch(post, design, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(count for b, count in sizes if b == n) == 8
        assert sum(count for b, count in sizes if b == n) == len(design.masks)
        # measured 1.14 MB; 3.5 MB with each level's grams in one stack
        assert peak < 2 * len(design.masks) * m * n * 8
