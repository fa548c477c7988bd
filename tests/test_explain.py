import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssvkit import cme, coalition, explain, gp, kernels, numerics
from ssvkit.explain import BayesConfig

from conftest import fit_synthetic_posterior, make_regression


@pytest.fixture
def setup(rng):
    post, data = fit_synthetic_posterior(rng, n=40, d=3, n_inducing=25)
    design = coalition.enumerate_coalitions(3)
    return post, data, design


class TestGpshap:
    def test_means_match_exact_ssv_per_instance(self, setup):
        post, data, design = setup
        X_explain = data.X[:4]
        batch = explain.gpshap(post, design, X_explain)
        games = cme.game_moments(post, cme.embedding_batch(post, design, X_explain))
        for k, game in enumerate(games):
            mean_o, cov_o = coalition.exact_ssv(game)
            np.testing.assert_allclose(batch.means[k], mean_o, atol=1e-9)
            np.testing.assert_allclose(batch.covariance(k), cov_o, atol=1e-9)

    def test_efficiency_mean_and_variance(self, setup):
        post, data, design = setup
        X_explain = data.X[:6]
        batch = explain.gpshap(post, design, X_explain)
        games = cme.game_moments(post, cme.embedding_batch(post, design, X_explain))
        ones = np.ones(3)
        for k, game in enumerate(games):
            delta_mean = game.payoff_mean[-1] - game.payoff_mean[0]
            assert batch.means[k].sum() == pytest.approx(delta_mean, abs=1e-10)
            delta_var = (
                game.payoff_cov[-1, -1]
                - 2 * game.payoff_cov[-1, 0]
                + game.payoff_cov[0, 0]
            )
            quad = ones @ batch.covariance(k) @ ones
            assert quad == pytest.approx(delta_var, abs=1e-8)

    def test_null_player_constant_feature(self, rng):
        # the last feature is constant, so it is a null player: near-Dirac zero
        X = rng.normal(size=(30, 3))
        X[:, 2] = 1.0
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
        data = gp.Dataset(X=X, y=y)
        params = kernels.KernelParams(
            variance=1.0, lengthscales=kernels.median_heuristic(X)
        )
        post = gp.fit_exact(data, params, noise=0.1)
        design = coalition.enumerate_coalitions(3)
        batch = explain.gpshap(post, design, X[:5])
        for k in range(5):
            assert abs(batch.means[k, 2]) < 1e-8
            assert batch.covariance(k)[2, 2] < 1e-8

    def test_duplicate_features_symmetry(self, rng):
        # two identical columns must receive identical attributions
        X = rng.normal(size=(30, 3))
        X[:, 2] = X[:, 1]
        y = np.tanh(X[:, 0]) + X[:, 1] ** 2
        data = gp.Dataset(X=X, y=y)
        params = kernels.KernelParams(
            variance=1.0, lengthscales=np.ones(3)
        )
        post = gp.fit_exact(data, params, noise=0.1)
        design = coalition.enumerate_coalitions(3)
        batch = explain.gpshap(post, design, X[:5])
        for k in range(5):
            assert batch.means[k, 1] == pytest.approx(batch.means[k, 2], abs=1e-8)
            cov = batch.covariance(k)
            assert cov[1, 1] == pytest.approx(cov[2, 2], abs=1e-8)

    def test_cross_covariance_consistency(self, setup):
        post, data, design = setup
        batch = explain.gpshap(post, design, data.X[:3])
        np.testing.assert_allclose(
            batch.cross_covariance(1, 1), batch.covariance(1), atol=1e-12
        )
        np.testing.assert_allclose(
            batch.cross_covariance(0, 2), batch.cross_covariance(2, 0).T, atol=1e-12
        )
        # the stacked joint covariance over all instances must be PSD
        n, d = 3, 3
        joint = np.zeros((n * d, n * d))
        for a in range(n):
            for b in range(n):
                joint[a * d:(a + 1) * d, b * d:(b + 1) * d] = batch.cross_covariance(a, b)
        assert numerics.is_psd(numerics.symmetrize(joint))

    def test_monte_carlo_oracle_small(self, setup, rng):
        post, data, design = setup
        x = data.X[:1]
        batch = explain.gpshap(post, design, x)
        B = cme.embedding_batch(post, design, x).tensor()
        L = numerics.cholesky_psd(post.cov_at_inducing, max_jitter=1e-8).lower
        draws = post.mean_at_inducing[:, None] + L @ rng.normal(
            size=(post.n_inducing, 20000)
        )
        Phi = design.A @ (B[:, :, 0] @ draws)
        se = Phi.std(axis=1, ddof=1) / np.sqrt(20000)
        np.testing.assert_array_less(
            np.abs(Phi.mean(axis=1) - batch.means[0]), 4 * se + 1e-12
        )
        emp_cov = np.cov(Phi)
        cov = batch.covariance(0)
        np.testing.assert_allclose(emp_cov, cov,
                                   atol=max(1e-3, 0.1 * np.abs(cov).max()))


class TestBayesS2:
    def test_zero_residual_reduces_to_phi_norm(self):
        # a payoff vector lying exactly in the regression span: additive game
        design = coalition.enumerate_coalitions(3)
        phi = np.array([1.0, -2.0, 0.5])
        v = design.Z @ phi                       # v_empty = 0, exact fit
        means = (design.A @ v[:, None]).T
        s2 = explain.bayes_s2(v[:, None], design, means)
        assert s2[0] == pytest.approx(phi @ phi / design.n_coalitions, abs=1e-10)

    def test_nonnegative_and_scales(self, setup, rng):
        post, data, design = setup
        batch = explain.gpshap(post, design, data.X[:5])
        s2 = explain.bayes_s2(batch.payoff_means, design, batch.means)
        assert s2.shape == (5,)
        assert np.all(s2 >= 0)


class TestSampleSigma2:
    def test_seeded_determinism(self):
        config = BayesConfig(seed=42)
        a = explain.sample_sigma2(config, 8, np.array([0.3, 0.6]))
        b = explain.sample_sigma2(config, 8, np.array([0.3, 0.6]))
        np.testing.assert_array_equal(a, b)
        assert np.all(a > 0)

    def test_posterior_mean_matches_closed_form(self):
        # E[sigma^2] = df*scale/(df-2) for a scaled inverse chi-squared
        config = BayesConfig(ell0=2.0, sigma0_sq=1.0, seed=0)
        ell, s2 = 30, 0.5
        draws = explain.sample_sigma2(config, ell, np.full(20000, s2))
        df = config.ell0 + ell
        scale = (config.ell0 * config.sigma0_sq + ell * s2) / df
        expected = df * scale / (df - 2)
        assert draws.mean() == pytest.approx(expected, rel=0.05)

    def test_invalid_ell(self):
        with pytest.raises(ValueError):
            explain.sample_sigma2(BayesConfig(), 0, 1.0)

    @pytest.mark.parametrize("prior", [
        {"ell0": np.nan}, {"ell0": -1.0}, {"ell0": -20.0},
        {"sigma0_sq": -5.0}, {"sigma0_sq": np.inf},
    ])
    def test_prior_must_be_finite_and_non_negative(self, prior):
        with pytest.raises(ValueError):
            BayesConfig(**prior)

    def test_zero_prior_weight_is_allowed(self):
        assert BayesConfig(ell0=0.0, sigma0_sq=0.0).ell0 == 0.0


class TestBayesVariants:
    def test_means_are_shared_across_variants(self, setup):
        post, data, design = setup
        X_explain = data.X[:4]
        base = explain.gpshap(post, design, X_explain)
        bayes = explain.bayesgpshap(post, design, X_explain)
        np.testing.assert_allclose(bayes.means, base.means, atol=1e-12)
        det = explain.bayesshap_deterministic(base.payoff_means, design)
        np.testing.assert_allclose(det.means, base.means, atol=1e-12)

    def test_covariance_decomposition(self, setup):
        # Bayes covariance minus GP covariance is exactly the uniform
        # (Z^T W Z)^-1 * sigma2[k] term
        post, data, design = setup
        X_explain = data.X[:4]
        base = explain.gpshap(post, design, X_explain)
        bayes = explain.bayesgpshap(post, design, X_explain)
        term = explain._bayes_term(design)
        for k in range(4):
            diff = bayes.covariance(k) - base.covariance(k)
            np.testing.assert_allclose(
                diff, term * bayes.sigma2_samples[k], atol=1e-10
            )

    def test_zero_gp_cov_reduces_to_bayesshap(self, setup):
        post, data, design = setup
        frozen = gp.GPPosterior(
            inducing_points=post.inducing_points,
            mean_at_inducing=post.mean_at_inducing,
            cov_at_inducing=np.zeros((post.n_inducing, post.n_inducing)),
            kernel=post.kernel,
            noise=post.noise,
        )
        X_explain = data.X[:3]
        bayes = explain.bayesgpshap(frozen, design, X_explain)
        det = explain.bayesshap_deterministic(bayes.payoff_means, design)
        np.testing.assert_allclose(bayes.means, det.means, atol=1e-12)
        for k in range(3):
            np.testing.assert_allclose(
                bayes.covariance(k), det.covariance(k), atol=1e-12
            )

    def test_deterministic_payoff_shape_validation(self):
        design = coalition.enumerate_coalitions(2)
        with pytest.raises(ValueError):
            explain.bayesshap_deterministic(np.zeros(3), design)


class TestSubsamplingRate:
    def test_variance_decays_roughly_linearly_in_coalitions(self, rng):
        # mean-squared deviation from the full-enumeration attribution should
        # scale like 1/ell across sampled designs
        d = 8
        post, data = fit_synthetic_posterior(rng, n=40, d=d, n_inducing=20)
        x = data.X[:1]
        full = coalition.enumerate_coalitions(d)
        ref = explain.gpshap(post, full, x).means[0]
        ells = [16, 32, 64, 128]
        mse = []
        for ell in ells:
            errs = []
            for seed in range(12):
                design = coalition.sample_coalitions(d, ell, seed=seed)
                est = explain.gpshap(post, design, x).means[0]
                errs.append(np.mean((est - ref) ** 2))
            mse.append(np.mean(errs))
        slope = np.polyfit(np.log(ells), np.log(mse), 1)[0]
        assert -1.6 < slope < -0.4


class TestCredibleIntervalsAndExport:
    def test_interval_width_is_z_times_sd(self, setup):
        post, data, design = setup
        batch = explain.bayesgpshap(post, design, data.X[:3])
        sds = batch.stds()
        lo, hi = explain.credible_intervals(batch.means, sds, 0.95)
        np.testing.assert_allclose(hi - lo, 2 * 1.959963984540054 * sds, atol=1e-9)
        np.testing.assert_allclose((hi + lo) / 2, batch.means, atol=1e-12)

    def test_equals_the_scipy_stats_expression_bit_for_bit(self, setup):
        from scipy import stats

        post, data, design = setup
        batch = explain.bayesgpshap(post, design, data.X[:3])
        sds = batch.stds()
        # the last level is the largest below 1: (1 + level) / 2 rounds to 1, z is inf
        for level in np.r_[np.linspace(0.001, 0.999, 37), 0.5, 0.9, 0.95, 0.99, 1 - 1e-12,
                           np.nextafter(1.0, 0.0)]:
            z = float(stats.norm.ppf(0.5 * (1.0 + level)))
            lo, hi = explain.credible_intervals(batch.means, sds, level)
            np.testing.assert_array_equal(lo, batch.means - z * sds)
            np.testing.assert_array_equal(hi, batch.means + z * sds)

    def test_level_validation(self, setup):
        post, data, design = setup
        batch = explain.gpshap(post, design, data.X[:1])
        with pytest.raises(ValueError):
            explain.credible_intervals(batch.means, batch.stds(), 1.0)

    def test_json_export_fields(self, setup):
        post, data, design = setup
        batch = explain.bayesgpshap(post, design, data.X[:2],
                                    feature_names=["a", "b", "c"])
        doc = json.loads(batch.to_json())
        assert doc["feature_names"] == ["a", "b", "c"]
        assert np.asarray(doc["means"]).shape == (2, 3)
        assert len(doc["cov"]) == 2
        assert len(doc["sigma2"]) == 2
        assert doc["design_digest"] == design.digest()

    def test_json_export_is_the_document_of_its_covariances(self, setup):
        post, data, design = setup
        batch = explain.bayesgpshap(post, design, data.X[:3])
        covs = np.stack([batch.covariance(k) for k in range(3)])
        doc = json.loads(batch.to_json(0.9, X=data.X[:3].tolist()))
        assert doc == json.loads(explain.document(
            batch.means, covs, 0.9, X=data.X[:3].tolist(), feature_names=["x_1", "x_2", "x_3"],
            design_digest=design.digest(), sigma2=batch.sigma2_samples.tolist()))
        lo, hi = explain.credible_intervals(batch.means, batch.stds(), 0.9)
        np.testing.assert_array_equal(doc["lo"], lo)
        np.testing.assert_array_equal(doc["hi"], hi)
        assert doc["credible_level"] == 0.9

    def test_document_of_no_instances(self, setup):
        post, _, design = setup
        doc = json.loads(explain.gpshap(post, design, np.zeros((0, 3))).to_json())
        assert doc["means"] == [] and doc["cov"] == []

    def test_csv_export_roundtrips_floats(self, setup):
        post, data, design = setup
        batch = explain.gpshap(post, design, data.X[:2])
        lines = batch.to_csv().strip().splitlines()
        assert lines[0] == "instance,feature,mean,sd,lo,hi"
        assert len(lines) == 1 + 2 * 3
        k, name, mean, sd, lo, hi = lines[1].split(",")
        assert float(mean) == batch.means[0, 0]
        assert float(sd) == batch.stds()[0, 0]

    def test_csv_export_quotes_names_as_csv_writer_does(self, setup):
        post, data, design = setup
        names = ["a,b", 'c"d', "e"]
        batch = explain.gpshap(post, design, data.X[:2], feature_names=names)
        text = batch.to_csv()
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(csv.reader(io.StringIO(text)))
        assert out.getvalue() == text
        rows = list(csv.reader(io.StringIO(text)))
        assert {len(row) for row in rows} == {6}
        assert [row[1] for row in rows[1:4]] == names


def fresh_bayes_term(design):
    """(Z_i^T W_i Z_i)^-1 as a separate factorization builds it, zeros without
    interior rows."""
    if design.n_coalitions == 2:
        return np.zeros((design.d, design.d))
    factor = numerics.cholesky_psd(design.ZtWZ_interior, max_jitter=1e-8)
    return numerics.symmetrize(factor.solve(np.eye(design.d)))


class TestCovarianceOwners:
    """Each covariance is factored once, by the object that holds its matrix,
    and a batch's covariances come from one product, bit for bit the same."""

    @pytest.mark.parametrize("algo", ["gpshap", "bayesgpshap", "bayesshap"])
    @pytest.mark.parametrize("sampled", [False, True], ids=["full", "sampled"])
    def test_covariances_equal_the_per_instance_formula(self, setup, algo, sampled):
        post, data, _ = setup
        design = (coalition.sample_coalitions(3, 6, seed=0) if sampled
                  else coalition.enumerate_coalitions(3))
        batch = explain.gpshap(post, design, data.X[:7])
        if algo == "bayesgpshap":
            batch = explain.bayesgpshap(post, design, data.X[:7])
        elif algo == "bayesshap":
            batch = explain.bayesshap_deterministic(batch.payoff_means, design)
        covs = batch.covariances()
        assert covs.shape == (7, 3, 3)
        term = fresh_bayes_term(design)
        for k in range(7):
            R = batch.cov_factor[:, k, :]
            want = numerics.symmetrize(R @ R.T)
            if algo != "gpshap":
                want = want + term * float(batch.sigma2_samples[k])
            assert np.array_equal(covs[k], want)
            assert np.array_equal(batch.covariance(k), want)
        assert np.array_equal(batch.covariance(-1), covs[-1])
        assert np.array_equal(batch.covariances(slice(2, 5)), covs[2:5])

    @pytest.mark.parametrize("design", [
        *(coalition.enumerate_coalitions(d) for d in range(2, 9)),
        coalition.sample_coalitions(8, 50, seed=0),
        coalition.sample_coalitions(22, 3000, seed=0),
    ], ids=[*(f"full-{d}" for d in range(2, 9)), "sampled-8-50", "sampled-22-3000"])
    def test_bayes_term_equals_a_fresh_factorization(self, design):
        assert np.array_equal(explain._bayes_term(design), fresh_bayes_term(design))

    def test_bayes_term_is_zero_without_interior_rows(self):
        design = coalition.enumerate_coalitions(1)
        assert design.n_coalitions == 2
        assert np.array_equal(explain._bayes_term(design), np.zeros((1, 1)))

    def test_loaded_posterior_and_bayes_factor_once(self, setup, count_cholesky):
        post, data, design = setup
        loaded = gp.GPPosterior.from_json(post.to_json())
        batch = explain.bayesgpshap(loaded, design, data.X[:4])
        batch.to_json()
        batch.stds()
        # one factor per coalition, and the posterior's own, made by from_json
        assert len(count_cholesky) == design.n_coalitions + 1

    @pytest.mark.parametrize("variant", [explain.gpshap, explain.bayesgpshap])
    def test_empty_batch(self, setup, variant):
        post, _, design = setup
        batch = variant(post, design, np.zeros((0, 3)))
        assert batch.covariances().shape == (0, 3, 3)
        assert batch.stds().shape == (0, 3)
        assert batch.to_csv() == "instance,feature,mean,sd,lo,hi\n"
        doc = json.loads(batch.to_json())
        assert doc["means"] == [] and doc["cov"] == []
        assert doc.get("sigma2", []) == []


def tolisted(value):
    """``value`` with every ndarray replaced by its ``tolist()``."""
    if isinstance(value, dict):
        return {key: tolisted(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e308]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
STRINGS = st.text(alphabet=st.sampled_from('ab,", []\n\\:{}\té€😀'), max_size=12)
ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
               elements=FLOATS),
    hnp.arrays(st.sampled_from([np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
    st.sampled_from([np.zeros((0, 3, 3)), np.zeros((2, 0)), np.zeros((0,)), np.array(1.5)]),
)
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, STRINGS, ARRAYS,
                   st.lists(st.one_of(FLOATS, STRINGS), max_size=3))


def mirrored(a):
    """``a`` with each trailing matrix's lower triangle copied bit for bit from
    its upper one."""
    a = a.copy()
    lower = np.tril_indices(a.shape[-1], -1)
    a[..., lower[0], lower[1]] = a[..., lower[1], lower[0]]
    return a


SYMMETRIC = st.tuples(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
                      st.integers(0, 5)).flatmap(
    lambda dims: hnp.arrays(np.float64, dims[0] + (dims[1], dims[1]), elements=FLOATS)
).map(mirrored)
DOCUMENTS = st.dictionaries(
    STRINGS, st.recursive(LEAVES, lambda inner: st.dictionaries(STRINGS, inner, max_size=3),
                          max_leaves=8), max_size=5)


class TestDumps:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(doc=DOCUMENTS)
    def test_equals_the_stdlib_indent_encoder(self, doc):
        assert explain.dumps(doc) == json.dumps(tolisted(doc), indent=2, sort_keys=True)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(cov=SYMMETRIC)
    def test_symmetric_stacks_equal_the_stdlib_indent_encoder(self, cov):
        assert explain._symmetric(cov)
        assert explain.dumps({"cov": cov}) == json.dumps({"cov": cov.tolist()}, indent=2)
        if cov.size:    # these are below dumps' size cut: call the mirror itself
            assert explain._mirrored_text(cov) == json.dumps(cov.tolist())

    @pytest.mark.parametrize("cov,symmetric", [
        # 0.0 == -0.0, but the two reprs differ, so this one is written in full
        (np.array([[1.0, 0.0], [-0.0, 1.0]]), False),
        (np.array([[1.0, -0.0], [-0.0, 1.0]]), True),
        (np.array([[1.0, np.nan, np.inf], [np.nan, 2.0, -np.inf],
                   [np.inf, -np.inf, 3.0]]), True),
        (np.array([[[np.nan]], [[-np.inf]], [[-0.0]]]), True),       # 1 x 1 trailing axes
        (np.full((1, 1), 2.5), True),
        (np.zeros((0, 3, 3)), True),
        (np.zeros((2, 0, 0)), True),
        (np.arange(9.0).reshape(3, 3), False),
    ], ids=["zero-and-negative-zero", "negative-zeros", "nan-and-inf-off-diagonal",
            "1x1-trailing-axes", "1x1", "empty-stack", "empty-matrices", "not-symmetric"])
    def test_special_stacks(self, cov, symmetric):
        assert explain._symmetric(cov) == symmetric
        doc = {"cov": cov, "means": np.ones((len(cov), 2))}
        assert explain.dumps(doc) == json.dumps(tolisted(doc), indent=2, sort_keys=True)
        if symmetric and cov.size:
            assert explain._mirrored_text(cov) == json.dumps(cov.tolist())

    @pytest.mark.parametrize("shape", [(15, 15), (16, 16), (7, 6, 6), (8, 6, 6)])
    def test_mirrors_only_from_the_size_cut(self, monkeypatch, shape):
        # 225 and 252 entries are formatted in full, 256 and 288 mirrored
        cov = mirrored(np.random.default_rng(2).normal(size=shape))
        mirrored_shapes = []
        original = explain._mirrored_text

        def spy(value):
            mirrored_shapes.append(value.shape)
            return original(value)

        monkeypatch.setattr(explain, "_mirrored_text", spy)
        assert explain.dumps({"cov": cov}) == json.dumps({"cov": cov.tolist()}, indent=2)
        assert mirrored_shapes == ([shape] if cov.size >= explain.MIRROR_MIN_ENTRIES else [])
