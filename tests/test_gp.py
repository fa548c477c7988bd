import json
import tracemalloc
import weakref

import numpy as np
import pytest

from ssvkit import gp, kernels, numerics
from ssvkit.errors import CountOutOfRange

from conftest import make_regression


@pytest.fixture
def small_data(rng):
    return make_regression(rng, n=30, d=3)


LS_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
NOISE_FRACTIONS = (1e-3, 1e-2, 1e-1, 1.0)


def grid_points(data, ls_multipliers=LS_MULTIPLIERS, noise_fractions=NOISE_FRACTIONS):
    """The grid's (lengthscales, noise) points, lengthscale-major."""
    base = kernels.median_heuristic(data.X)
    var_y = float(np.var(data.y))
    return [(mult * base, frac * var_y) for mult in ls_multipliers for frac in noise_fractions]


def fresh_lml(data, lengthscales, noise):
    params = kernels.KernelParams(variance=1.0, lengthscales=lengthscales)
    return gp.log_marginal_likelihood(data, params, noise)


def record_points(monkeypatch):
    """(params, noise, terms) of each grid point the search factors, in order, from a
    spy on ``gp._grid_row``; terms are the likelihood, y^T alpha, the log-determinant
    and the jitter."""
    points, original = [], gp._grid_row

    def recorded(data, params, noises):
        for row in original(data, params, noises):
            points.append((params, row[0], row[1:]))
            yield row

    monkeypatch.setattr(gp, "_grid_row", recorded)
    return points


def brute_force(data, ls_multipliers=LS_MULTIPLIERS, noise_fractions=NOISE_FRACTIONS):
    """Every grid point's fresh likelihood, lengthscale-major, and the first maximum's index."""
    fresh = [fresh_lml(data, *point)
             for point in grid_points(data, ls_multipliers, noise_fractions)]
    return fresh, int(np.argmax(fresh))


def assert_exhaustive_result(data, post, ll, points, ls_multipliers=LS_MULTIPLIERS,
                             noise_fractions=NOISE_FRACTIONS):
    """The search's contract against a brute-force loop: each factored point equals
    its fresh likelihood bit for bit and is factored once, every skipped point's
    fresh likelihood is below the winner's, and the winner (the first maximum),
    its noise and its likelihood are the brute force's bit for bit."""
    grid = grid_points(data, ls_multipliers, noise_fractions)
    fresh, best = brute_force(data, ls_multipliers, noise_fractions)
    keys = [(ls.tobytes(), noise) for ls, noise in grid]
    seen = [(params.lengthscales.tobytes(), noise) for params, noise, _ in points]
    assert len(set(seen)) == len(seen)
    for key, (_, _, terms) in zip(seen, points):
        assert terms[0] == fresh[keys.index(key)]
    for key, want in zip(keys, fresh):
        assert key in seen or want < fresh[best]
    lengthscales, noise = grid[best]
    np.testing.assert_array_equal(post.kernel.lengthscales, lengthscales)
    assert post.kernel.variance == 1.0 and post.noise == noise and ll == fresh[best]


def traced_peak(fn):
    """``fn()`` and the peak of the memory tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spy(monkeypatch, module, name):
    """Record (args, kwargs, result) of every call to ``module.name``."""
    calls, original = [], getattr(module, name)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, recorded)
    return calls


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            gp.Dataset(X=np.zeros((3, 2)), y=np.zeros(4))
        with pytest.raises(ValueError):
            gp.Dataset(X=np.array([[np.nan, 0.0]]), y=np.zeros(1))


class TestSelectInducing:
    def test_uniform_is_seeded_and_sorted(self, small_data):
        a = gp.select_inducing(small_data, 12, "uniform", seed=5)
        b = gp.select_inducing(small_data, 12, "uniform", seed=5)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) > 0)
        assert len(set(a.tolist())) == 12

    def test_farthest_point_starts_near_mean(self, small_data):
        idx = gp.select_inducing(small_data, 5, "farthest_point")
        center = small_data.X.mean(axis=0)
        dists = np.linalg.norm(small_data.X - center, axis=1)
        assert idx[0] == np.argmin(dists)
        assert len(set(idx.tolist())) == 5

    def test_farthest_point_spreads(self, small_data):
        # second pick must be the point farthest from the first
        idx = gp.select_inducing(small_data, 2, "farthest_point")
        d0 = np.linalg.norm(small_data.X - small_data.X[idx[0]], axis=1)
        assert idx[1] == np.argmax(d0)

    def test_count_bounds(self, small_data):
        with pytest.raises(CountOutOfRange):
            gp.select_inducing(small_data, 0, "uniform")
        with pytest.raises(CountOutOfRange):
            gp.select_inducing(small_data, 31, "uniform")

    def test_unknown_strategy(self, small_data):
        with pytest.raises(ValueError):
            gp.select_inducing(small_data, 5, "bogus")

    def test_every_row_is_not_a_strategy(self, small_data):
        # gp.fit's inducing=None is every row; a strategy always keeps its count
        with pytest.raises(ValueError, match="unknown strategy 'all'"):
            gp.select_inducing(small_data, 10, "all")
        assert len(gp.select_inducing(small_data, 10)) == 10


class TestFitExact:
    def test_one_point_closed_form(self):
        # single observation: posterior mean = v/(v+noise) * y at the point
        data = gp.Dataset(X=np.array([[0.0]]), y=np.array([2.0]))
        params = kernels.KernelParams(variance=1.0, lengthscales=np.array([1.0]))
        post = gp.fit_exact(data, params, noise=1.0)
        assert post.mean_at_inducing[0] == pytest.approx(1.0, abs=1e-12)
        assert post.cov_at_inducing[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_interpolates_smooth_targets_with_small_noise(self, rng):
        data = make_regression(rng, n=30, d=3, noise=0.0)
        params = kernels.KernelParams(
            variance=1.0, lengthscales=kernels.median_heuristic(data.X)
        )
        post = gp.fit_exact(data, params, noise=1e-4)
        np.testing.assert_allclose(post.mean_at_inducing, data.y, atol=1e-2)
        assert np.max(np.diag(post.cov_at_inducing)) < 1e-2

    def test_posterior_cov_is_psd_and_shrinks(self, small_data):
        params = kernels.KernelParams(
            variance=1.0, lengthscales=kernels.median_heuristic(small_data.X)
        )
        post = gp.fit_exact(small_data, params, noise=0.1)
        assert numerics.is_psd(post.cov_at_inducing)
        assert np.all(np.diag(post.cov_at_inducing) <= params.variance + 1e-10)

    def test_inducing_subset_rows(self, small_data):
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(3))
        idx = np.array([0, 4, 9])
        post = gp.fit_exact(small_data, params, noise=0.1, inducing=idx)
        np.testing.assert_array_equal(post.inducing_points, small_data.X[idx])
        full = gp.fit_exact(small_data, params, noise=0.1)
        np.testing.assert_allclose(post.mean_at_inducing, full.mean_at_inducing[idx],
                                   atol=1e-10)
        np.testing.assert_allclose(
            post.cov_at_inducing, full.cov_at_inducing[np.ix_(idx, idx)], atol=1e-10
        )

    def test_noise_must_be_positive(self, small_data):
        # log_marginal_likelihood used to return a value at -1e-9 and raise
        # JitterExceeded at -0.5
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(3))
        for noise in (0.0, -1e-9, -0.5):
            for call in (gp.fit_exact, gp.log_marginal_likelihood):
                with pytest.raises(ValueError, match=f"noise must be positive and finite, got {noise!r}"):
                    call(small_data, params, noise=noise)

    def test_factors_once_and_matches_two_regularized_solves(self, small_data,
                                                             count_cholesky):
        params = kernels.KernelParams(variance=1.5, lengthscales=np.ones(3) * 0.8)
        idx = np.array([1, 5, 7, 20])
        post = gp.fit_exact(small_data, params, noise=0.1, inducing=idx)
        assert count_cholesky == [(30, 30)]
        # the seed's two solve_regularized calls, each refactoring K + noise*I
        full = 0b111
        K = kernels.gram(params, full, small_data.X, small_data.X)
        K_ix = kernels.gram(params, full, small_data.X[idx], small_data.X)
        K_ii = kernels.gram(params, full, small_data.X[idx], small_data.X[idx])
        mean = K_ix @ numerics.solve_regularized(K, 0.1, small_data.y)
        cov = numerics.symmetrize(
            K_ii - K_ix @ numerics.solve_regularized(K, 0.1, K_ix.T))
        np.testing.assert_array_equal(post.mean_at_inducing, mean)
        np.testing.assert_array_equal(post.cov_at_inducing, cov)

    def test_builds_one_gram_and_matches_three_gram_reference(self, small_data,
                                                              monkeypatch):
        from scipy import linalg

        params = kernels.KernelParams(variance=1.5, lengthscales=np.ones(3) * 0.8)
        idx = np.array([20, 1, 7, 5])
        grams = spy(monkeypatch, kernels, "gram")
        post = gp.fit_exact(small_data, params, noise=0.1, inducing=idx)
        monkeypatch.undo()
        assert len(grams) == 1
        # the inducing blocks built as grams of their own, factored by scipy
        full, X, Xi = 0b111, small_data.X, small_data.X[idx]
        K_ix, K_ii = kernels.gram(params, full, Xi, X), kernels.gram(params, full, Xi, Xi)
        chol = linalg.cho_factor(kernels.gram(params, full, X, X) + 0.1 * np.eye(30),
                                 lower=True)
        mean = K_ix @ linalg.cho_solve(chol, small_data.y)
        cov = K_ii - K_ix @ linalg.cho_solve(chol, K_ix.T)
        for got, want in ((post.mean_at_inducing, mean), (post.cov_at_inducing, cov)):
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
        np.testing.assert_array_equal(post.inducing_points, Xi)

    def test_every_row_keeps_one_copy_and_matches_the_explicit_rows(self, rng):
        n = 300
        data = make_regression(rng, n=n, d=3)
        params = kernels.KernelParams(variance=1.3, lengthscales=np.full(3, 0.9))
        every, peak = traced_peak(lambda: gp.fit_exact(data, params, 0.1))
        explicit = gp.fit_exact(data, params, 0.1, np.arange(n))
        for field in ("inducing_points", "mean_at_inducing", "cov_at_inducing"):
            assert getattr(every, field).tobytes() == getattr(explicit, field).tobytes()
        # the gram, factored in place, one copy of it and the covariance's
        # temporaries: about 5 n x n arrays; separate copies for the rows and
        # their block, and a copy to factor, held about 7
        assert peak < 6 * n * n * 8

    def test_every_row_peaks_at_three_n_by_n_arrays(self, rng):
        n = 400
        data = make_regression(rng, n=n, d=3)
        params = kernels.KernelParams(variance=1.3, lengthscales=np.full(3, 0.9))
        post, peak = traced_peak(lambda: gp.fit_exact(data, params, 0.1))
        # the expression the covariance is, with every temporary it makes
        K = kernels.gram(params, 0b111, data.X, data.X)
        factor = numerics.cholesky_psd(K, shift=0.1)
        diff = K - K @ factor.solve(K.T)
        assert post.mean_at_inducing.tobytes() == (K @ factor.solve(data.y)).tobytes()
        assert post.cov_at_inducing.tobytes() == (0.5 * (diff + diff.T)).tobytes()
        # the factor, the one copy of the gram and the solve; the expression's
        # temporaries held five; 128 KiB covers numpy's buffers and the vectors
        assert peak < 3 * n * n * 8 + 128 * 1024

    @pytest.mark.parametrize("noise", [np.inf, np.nan])
    def test_non_finite_noise_is_rejected(self, small_data, noise):
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(3))
        with pytest.raises(ValueError, match="noise must be positive and finite"):
            gp.fit_exact(small_data, params, noise=noise)
        with pytest.raises(ValueError, match="noise must be positive and finite"):
            gp.log_marginal_likelihood(small_data, params, noise=noise)

    def test_json_roundtrip(self, small_data):
        params = kernels.KernelParams(variance=2.0, lengthscales=np.ones(3) * 0.7)
        post = gp.fit_exact(small_data, params, noise=0.2)
        restored = gp.GPPosterior.from_json(post.to_json())
        np.testing.assert_array_equal(restored.inducing_points, post.inducing_points)
        np.testing.assert_array_equal(restored.mean_at_inducing, post.mean_at_inducing)
        np.testing.assert_array_equal(restored.cov_at_inducing, post.cov_at_inducing)
        assert restored.kernel.variance == post.kernel.variance
        assert restored.noise == post.noise


class TestPosteriorValidation:
    @pytest.fixture
    def post(self, small_data):
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(3))
        return gp.fit_exact(small_data, params, noise=0.1, inducing=np.array([0, 4, 9]))

    def rebuild(self, post, **fields):
        doc = dict(inducing_points=post.inducing_points, mean_at_inducing=post.mean_at_inducing,
                   cov_at_inducing=post.cov_at_inducing, kernel=post.kernel, noise=post.noise)
        doc.update(fields)
        return gp.GPPosterior(**doc)

    def test_valid_fields_are_kept_as_given(self, post):
        again = self.rebuild(post)
        assert again.inducing_points is post.inducing_points
        assert again.mean_at_inducing is post.mean_at_inducing
        assert again.cov_at_inducing is post.cov_at_inducing

    @pytest.mark.parametrize("fields", [
        {"inducing_points": np.zeros(3)},                       # not 2-D
        {"inducing_points": np.zeros((3, 2))},                  # d != kernel.dim
        {"mean_at_inducing": np.zeros(2)},                      # mean length != m
        {"mean_at_inducing": np.zeros((3, 1))},
        {"cov_at_inducing": np.eye(1)},                         # not m x m
        {"cov_at_inducing": np.eye(3)[:, :2]},
        {"cov_at_inducing": np.diag([1.0, np.nan, 1.0])},       # not finite
        {"mean_at_inducing": np.array([0.0, np.inf, 0.0])},
        {"cov_at_inducing": np.eye(3) + np.triu(np.full((3, 3), 1e-6), 1)},  # asymmetric
        {"noise": 0.0}, {"noise": -1.0}, {"noise": np.nan}, {"noise": np.inf},
    ])
    def test_malformed_posterior_is_rejected(self, post, fields):
        with pytest.raises(ValueError):
            self.rebuild(post, **fields)

    @pytest.mark.parametrize("cov,accepted", [
        ([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]], False),
        (np.diag([1.0, -1e-6, 1.0]), False),        # needs a jitter above 1e-8
        (np.diag([1.0, -1e-10, 1.0]), True),        # factors within gpshap's 1e-8 jitter
        (np.zeros((3, 3)), True),
    ], ids=["indefinite", "negative-1e-6", "negative-1e-10", "zero"])
    def test_loaded_covariance_must_be_psd_within_1e_8(self, post, cov, accepted):
        doc = json.loads(post.to_json())
        doc["cov_at_inducing"] = np.asarray(cov).tolist()
        if accepted:
            gp.GPPosterior.from_json(json.dumps(doc))
        else:
            with pytest.raises(ValueError, match="positive semi-definite"):
                gp.GPPosterior.from_json(json.dumps(doc))

    def test_symmetry_is_relative_to_the_largest_entry(self, post):
        cov = post.cov_at_inducing * 1e6
        cov[0, 1] += 1e-4                     # 1e-10 relative to entries of order 1e6
        self.rebuild(post, cov_at_inducing=cov)


class TestMarginalLikelihood:
    def test_one_point_closed_form(self):
        # y ~ N(0, variance + noise) for a single observation
        data = gp.Dataset(X=np.array([[0.0]]), y=np.array([1.5]))
        params = kernels.KernelParams(variance=1.0, lengthscales=np.array([1.0]))
        ll = gp.log_marginal_likelihood(data, params, noise=0.5)
        var = 1.5
        expected = -0.5 * (1.5**2 / var + np.log(var) + np.log(2 * np.pi))
        assert ll == pytest.approx(expected, abs=1e-10)

    def test_matches_multivariate_normal_logpdf(self, small_data):
        from scipy import stats

        params = kernels.KernelParams(
            variance=1.0, lengthscales=kernels.median_heuristic(small_data.X)
        )
        noise = 0.3
        K = kernels.gram(params, 0b111,
                         small_data.X, small_data.X)
        expected = stats.multivariate_normal.logpdf(
            small_data.y, mean=np.zeros(30), cov=K + noise * np.eye(30)
        )
        assert gp.log_marginal_likelihood(small_data, params, noise) == pytest.approx(
            expected, abs=1e-6
        )


class TestSelectHyperparameters:
    """The grid search inside ``gp.fit``."""

    def test_picks_grid_maximum(self, small_data):
        post, _ = gp.fit(small_data)
        best_ll = gp.log_marginal_likelihood(small_data, post.kernel, post.noise)
        for lengthscales, noise in grid_points(small_data):
            assert best_ll >= fresh_lml(small_data, lengthscales, noise) - 1e-9

    def test_tie_breaks_to_earliest(self, small_data, monkeypatch):
        # repeated values repeat their likelihoods bit for bit: the one distinct
        # point is factored once, and the winner is the grid's first point
        grams = spy(monkeypatch, kernels, "gram")
        points = record_points(monkeypatch)
        post, ll = gp.fit(small_data, ls_multipliers=[1.0, 1.0], noise_fractions=[0.5, 0.5])
        monkeypatch.undo()
        assert len(grams) == 1 + 1 and len(points) == 1
        assert post.kernel is grams[0][0][0] and post.kernel is points[0][0]
        assert post.noise == points[0][1] == 0.5 * float(np.var(small_data.y))
        fresh, best = brute_force(small_data, [1.0, 1.0], [0.5, 0.5])
        assert best == 0 and len(set(fresh)) == 1 and ll == fresh[0]

    def test_grid_crosses_the_given_multipliers_and_fractions(self, small_data, monkeypatch):
        points = record_points(monkeypatch)
        post, ll = gp.fit(small_data, ls_multipliers=[0.5, 3.0], noise_fractions=[0.1, 0.2, 0.3])
        monkeypatch.undo()
        grid = grid_points(small_data, [0.5, 3.0], [0.1, 0.2, 0.3])
        assert len(grid) == 6
        # the first pass: each multiplier in order at the smallest noise
        for (params, noise, _), (lengthscales, want) in zip(points, grid[::3]):
            np.testing.assert_array_equal(params.lengthscales, lengthscales)
            assert params.variance == 1.0 and noise == want
        assert_exhaustive_result(small_data, post, ll, points, [0.5, 3.0], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("ls,noise,message", [
        ([1.0, 0.0], [0.1], "ls_multipliers must be positive and finite, got 0.0"),
        ([np.inf], [0.1], "ls_multipliers must be positive and finite, got inf"),
        ([1.0], [-1.0], "noise_fractions must be positive and finite, got -1.0"),
        ([1.0], [0.1, np.nan], "noise_fractions must be positive and finite, got nan"),
    ])
    def test_default_grid_rejects_bad_values(self, small_data, monkeypatch, ls, noise,
                                             message):
        medians = spy(monkeypatch, kernels, "median_heuristic")
        with pytest.raises(ValueError, match=message):
            gp.fit(small_data, ls_multipliers=ls, noise_fractions=noise)
        assert medians == []        # validated before any work

    def test_empty_grid(self, small_data):
        with pytest.raises(ValueError, match="ls_multipliers must not be empty"):
            gp.fit(small_data, ls_multipliers=[], noise_fractions=[0.1])
        with pytest.raises(ValueError, match="noise_fractions must not be empty"):
            gp.fit(small_data, ls_multipliers=[1.0], noise_fractions=[])

    def test_default_grid_shape(self, small_data, monkeypatch):
        # the first pass factors each of the 5 multipliers at 1e-3 var(y) and
        # bounds it at each other noise fraction: that is the whole grid
        points = record_points(monkeypatch)
        bounded = spy(monkeypatch, gp, "_likelihood_bound")
        post, ll = gp.fit(small_data)
        monkeypatch.undo()
        var_y = float(np.var(small_data.y))
        base = kernels.median_heuristic(small_data.X)
        assert len(points) >= 5 and len(bounded) == 5 * 3
        for mult, (params, noise, _) in zip([0.25, 0.5, 1.0, 2.0, 4.0], points):
            np.testing.assert_array_equal(params.lengthscales, mult * base)
            assert params.variance == 1.0 and noise == 1e-3 * var_y
            rest = [args[5] for args, _, _ in bounded if args[1] is params]
            assert rest == [1e-2 * var_y, 1e-1 * var_y, 1.0 * var_y]
        assert_exhaustive_result(small_data, post, ll, points)


class TestGramReuse:
    """``gp.fit``'s search builds one n x n gram per lengthscale multiplier in its
    first pass and one more for each multiplier it revisits, each factored in
    place for its noise levels; ``fit_exact`` then builds its own."""

    def test_default_grid_builds_one_gram_per_lengthscale(self, small_data, monkeypatch):
        grams = spy(monkeypatch, kernels, "gram")
        in_place, factored = [], numerics.cholesky_in_place

        def recorded(m, shifts, *args, **kwargs):
            drawn = []
            in_place.append((m, drawn))
            for factor in factored(m, shifts, *args, **kwargs):
                drawn.append(factor)
                yield factor

        monkeypatch.setattr(numerics, "cholesky_in_place", recorded)
        grams_before_fit_exact, fit_exact = [], gp.fit_exact

        def counted(*args, **kwargs):
            grams_before_fit_exact.append(len(grams))
            return fit_exact(*args, **kwargs)

        monkeypatch.setattr(gp, "fit_exact", counted)
        points = record_points(monkeypatch)
        post, _ = gp.fit(small_data)
        lengthscales = [ls for ls, _ in grid_points(small_data)[::4]]
        revisited = [params for params, noise, _ in points[5:]]
        revisits = [p for i, p in enumerate(revisited) if i == 0 or p is not revisited[i - 1]]
        assert len(revisits) == len({id(p) for p in revisits}) <= 5
        assert len(grams) == len(in_place) == 5 + len(revisits) + 1
        assert grams_before_fit_exact == [5 + len(revisits)]
        for (args, _, K), (m, drawn), want in zip(grams, in_place, lengthscales):
            np.testing.assert_array_equal(args[0].lengthscales, want)
            assert m is K and len(drawn) == 1
        for (args, _, K), (m, drawn), params in zip(grams[5:], in_place[5:], revisits):
            assert args[0] is params and m is K
            assert len(drawn) == sum(p is params for p, _, _ in points[5:])
        args, _, K = grams[-1]
        assert args[0] is post.kernel and K.shape == (30, 30)
        assert in_place[-1][0] is K and len(in_place[-1][1]) == 1

    def test_holds_at_most_one_gram(self, small_data, monkeypatch):
        refs, original = [], kernels.gram

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in refs), "an earlier gram is still alive"
            K = original(*args, **kwargs)
            refs.append(weakref.ref(K))
            return K

        monkeypatch.setattr(kernels, "gram", tracked)
        points = record_points(monkeypatch)
        gp.fit(small_data)
        revisited = {id(params) for params, _, _ in points[5:]}
        assert len(refs) == 5 + len(revisited) + 1

    def test_grid_likelihoods_equal_fresh_calls_bit_for_bit(self, small_data, monkeypatch):
        points = record_points(monkeypatch)
        post, ll = gp.fit(small_data)
        monkeypatch.undo()
        assert_exhaustive_result(small_data, post, ll, points)


INTERLEAVED = ([1.0, 0.5, 1.0, 2.0], [0.1, 1e-3, 1.0])


class TestFit:
    @pytest.mark.parametrize("inducing", [0, -3])
    def test_bad_inducing_count_fails_before_the_search(self, small_data, monkeypatch,
                                                        inducing):
        grams = spy(monkeypatch, kernels, "gram")
        points = record_points(monkeypatch)
        with pytest.raises(CountOutOfRange, match=f"count must be in \\[1, 30\\], got {inducing}"):
            gp.fit(small_data, inducing=inducing)
        assert grams == [] and points == []

    @pytest.mark.parametrize("grid", [(LS_MULTIPLIERS, NOISE_FRACTIONS), INTERLEAVED],
                             ids=["default", "interleaved"])
    def test_returns_the_winners_likelihood_bit_for_bit(self, small_data, grid):
        post, ll = gp.fit(small_data, ls_multipliers=grid[0], noise_fractions=grid[1])
        assert ll == gp.log_marginal_likelihood(small_data, post.kernel, post.noise)

    @pytest.mark.parametrize("grid", [(LS_MULTIPLIERS, NOISE_FRACTIONS), INTERLEAVED],
                             ids=["default", "interleaved"])
    @pytest.mark.parametrize("inducing", [None, 12])
    def test_builds_each_system_once_and_the_winners_twice(self, small_data, monkeypatch,
                                                           count_cholesky, grid, inducing):
        grams = spy(monkeypatch, kernels, "gram")
        points = record_points(monkeypatch)
        ls, nf = grid
        post, ll = gp.fit(small_data, inducing, ls_multipliers=ls, noise_fractions=nf)
        monkeypatch.undo()
        n, distinct = small_data.n, len(set(ls))
        # the first pass, then each multiplier revisited; fit_exact's once more
        revisited = {id(params) for params, _, _ in points[distinct:]}
        assert sum(K.shape == (n, n) for _, _, K in grams) == distinct + len(revisited) + 1
        assert count_cholesky.count((n, n)) == len(points) + 1
        assert_exhaustive_result(small_data, post, ll, points, ls, nf)

    def test_the_search_holds_one_n_by_n_buffer(self, rng):
        n = 400
        data = make_regression(rng, n=n, d=3)
        _, peak = traced_peak(lambda: gp.fit(data, 40))
        # a factor copied out of each gram would hold two
        assert peak < 1.5 * n * n * 8

    def test_every_row_when_inducing_is_none_or_at_least_n(self, small_data):
        every, ll = gp.fit(small_data)
        np.testing.assert_array_equal(every.inducing_points, small_data.X)
        for inducing in (30, 31):
            post, same = gp.fit(small_data, inducing, "uniform")
            assert post.to_json() == every.to_json() and same == ll

    @pytest.mark.parametrize("strategy,seed", [("farthest_point", 0), ("uniform", 4)])
    def test_below_n_conditions_at_the_selected_rows(self, small_data, strategy, seed):
        post, _ = gp.fit(small_data, 12, strategy, seed)
        rows = gp.select_inducing(small_data, 12, strategy, seed)
        want = gp.fit_exact(small_data, post.kernel, post.noise, rows)
        assert post.to_json() == want.to_json()


class TestPosteriorFactor:
    @pytest.fixture
    def post(self, small_data):
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(3))
        return gp.fit_exact(small_data, params, noise=0.1, inducing=np.array([0, 4, 9]))

    def test_factor_is_built_once_on_first_use(self, post, count_cholesky):
        assert count_cholesky == []
        L = post.cov_lower
        assert post.cov_lower is L
        assert count_cholesky == [(3, 3)]
        want = numerics.cholesky_psd(post.cov_at_inducing, max_jitter=1e-8).lower
        assert np.array_equal(L, want)

    def test_loading_factors_once(self, post, count_cholesky):
        loaded = gp.GPPosterior.from_json(post.to_json())
        loaded.cov_lower
        assert count_cholesky == [(3, 3)]

    def test_zero_covariance_has_an_exactly_zero_factor(self, post, count_cholesky):
        doc = json.loads(post.to_json())
        doc["cov_at_inducing"] = np.zeros((3, 3)).tolist()
        loaded = gp.GPPosterior.from_json(json.dumps(doc))
        assert np.array_equal(loaded.cov_lower, np.zeros((3, 3)))
        assert count_cholesky == []

    def test_not_psd_message(self, post):
        doc = json.loads(post.to_json())
        doc["cov_at_inducing"] = np.diag([1.0, -1e-6, 1.0]).tolist()
        with pytest.raises(ValueError) as info:
            gp.GPPosterior.from_json(json.dumps(doc))
        assert str(info.value) == "posterior covariance is not positive semi-definite within 1e-8"


def workload_data(d, n, seed):
    """A benchmark-shaped dataset: X ~ N(0, I), y = sin x1 + x2^2 / 2 + x3 x4 + 0.1 eps."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + X[:, 2] * X[:, 3] + 0.1 * rng.normal(size=n)
    return gp.Dataset(X=X, y=y)


def duplicated_rows(seed):
    """Every row twice with different targets, so K is singular and y leaves its range."""
    data = workload_data(4, 60, seed)
    rng = np.random.default_rng(seed + 100)
    return gp.Dataset(X=np.vstack([data.X, data.X]),
                      y=np.concatenate([data.y, data.y + 0.1 * rng.normal(size=60)]))


def offset_feature(seed):
    """One feature offset by 1e3: the gram's GEMM form cancels, and the computed
    gram is indefinite at the scale of the smallest noises (where the bound
    without its rounding allowance fails)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(113, 1))
    return gp.Dataset(X=X + 1e3, y=np.sin(X[:, 0]) + 0.1 * rng.normal(size=113))


REORDERED = ([4.0, 1.0, 0.25, 1.0], [1.0, 1e-3, 0.1, 1e-3])
# on duplicated rows the smallest noise, 1e-16 var(y), needs jitter at most
# multipliers, and 1e-13 var(y) lies below it plus that jitter
TINY_NOISE = (LS_MULTIPLIERS, [1e-13, 1e-16, 1e-2, 1.0, 1e-16])
BOUND_CASES = {
    "enum-d10-default": (lambda: workload_data(10, 250, 1), (LS_MULTIPLIERS, NOISE_FRACTIONS)),
    "enum-d10-reordered": (lambda: workload_data(10, 250, 2), REORDERED),
    "prior-d6-default": (lambda: workload_data(6, 300, 1), (LS_MULTIPLIERS, NOISE_FRACTIONS)),
    "prior-d6-reordered": (lambda: workload_data(6, 300, 5), REORDERED),
    "duplicated-rows": (lambda: duplicated_rows(3), TINY_NOISE),
    "offset-feature": (lambda: offset_feature(1), (LS_MULTIPLIERS, [1e-10, 1e-6, 1e-3, 1.0])),
}


class TestBoundedSearch:
    """The likelihood bound ``gp.fit`` skips grid points by, against fresh likelihoods."""

    @pytest.fixture(params=list(BOUND_CASES), ids=list(BOUND_CASES))
    def case(self, request, monkeypatch):
        make, (ls, nf) = BOUND_CASES[request.param]
        data = make()
        points = record_points(monkeypatch)
        post, ll = gp.fit(data, ls_multipliers=ls, noise_fractions=nf)
        monkeypatch.undo()
        return data, ls, nf, post, ll, points

    def first_pass(self, data, ls, nf, points):
        """Each distinct multiplier's grid lengthscales with the bound of each grid
        noise from the first pass's factor of it at the smallest noise."""
        var_y = float(np.var(data.y))
        s0 = min(nf) * var_y
        first = {}
        for params, noise, (_, q0, logdet0, jitter) in points:
            if noise == s0:
                first.setdefault(params.lengthscales.tobytes(), (params, q0, logdet0, s0 + jitter))
        base = kernels.median_heuristic(data.X)
        assert len(first) == len(set(ls))
        return [(mult * base, [(frac * var_y, gp._likelihood_bound(
                     data, *first[(mult * base).tobytes()], frac * var_y)) for frac in nf])
                for mult in ls]

    def test_every_point_is_below_its_bound(self, case):
        data, ls, nf, _, _, points = case
        for lengthscales, row in self.first_pass(data, ls, nf, points):
            for noise, bound in row:
                assert fresh_lml(data, lengthscales, noise) <= bound

    def test_matches_a_brute_force_search_bit_for_bit(self, case):
        data, ls, nf, post, ll, points = case
        assert_exhaustive_result(data, post, ll, points, ls, nf)

    def test_a_non_finite_bound_is_evaluated(self, monkeypatch):
        data = duplicated_rows(3)
        points = record_points(monkeypatch)
        post, ll = gp.fit(data, ls_multipliers=TINY_NOISE[0], noise_fractions=TINY_NOISE[1])
        monkeypatch.undo()
        var_y = float(np.var(data.y))
        rows = self.first_pass(data, *TINY_NOISE, points)
        jittered = [(row, params) for row, (params, _, terms) in zip(rows, points) if terms[3] > 0]
        assert len(jittered) >= 3
        for (_, row), params in jittered:
            assert row[0] == (1e-13 * var_y, np.inf)
            # its likelihood is far below the winner's, and it is factored anyway
            got = [terms[0] for p, noise, terms in points if p is params and noise == row[0][0]]
            assert len(got) == 1 and got[0] < ll - 1e6

    @pytest.mark.parametrize("d,n,most", [(10, 500, 11), (6, 300, 11)])
    def test_the_bound_rules_out_points_on_the_workload_shapes(self, monkeypatch, d, n, most):
        points = record_points(monkeypatch)
        gp.fit(workload_data(d, n, 1))
        assert len(points) <= most
