"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line naming the property it certifies,
so a plain ``pytest tests/test_acceptance.py -s`` doubles as a checklist.
Every check compares the production path against an independent route
(brute-force enumeration, Monte Carlo, or a closed-form identity) at a
fixed tolerance.
"""

import functools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ssvkit import analysis, cme, coalition, explain, gp, kernels, numerics, shapley_prior

from conftest import fit_synthetic_posterior


def reported(label):
    """Print a single pass/fail line for the wrapped acceptance check."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")
            return result

        return wrapper

    return deco


@reported("exact-ssv oracle equivalence (d=2..8, tol 1e-8, <5s)")
def test_01_exact_ssv_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for d in range(2, 9):
        design = coalition.enumerate_coalitions(d)
        ell = design.n_coalitions
        for _ in range(50):
            M = rng.normal(size=(ell, ell))
            game = coalition.StochasticGame(
                design=design,
                payoff_mean=rng.normal(size=ell),
                payoff_cov=M @ M.T / ell,
            )
            mean_o, cov_o = coalition.exact_ssv(game)
            mean_p = design.A @ game.payoff_mean
            cov_p = design.A @ game.payoff_cov @ design.A.T
            worst = max(
                worst,
                float(np.max(np.abs(mean_p - mean_o))),
                float(np.max(np.abs(cov_p - cov_o))),
            )
    elapsed = time.perf_counter() - start
    assert worst < 1e-8, f"worst deviation {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def mc_setup():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(100, 4))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] - 0.25 * X[:, 2] ** 2 + 0.1 * rng.normal(size=100)
    data = gp.Dataset(X=X, y=y)
    params = kernels.KernelParams(
        variance=1.0, lengthscales=kernels.median_heuristic(X)
    )
    idx = gp.select_inducing(data, 60, "farthest_point")
    posterior = gp.fit_exact(data, params, noise=0.1, inducing=idx)
    design = coalition.enumerate_coalitions(4)
    X_explain = X[:3]
    batch = explain.gpshap(posterior, design, X_explain)
    return posterior, design, X_explain, batch


@reported("monte-carlo posterior oracle (20000 draws, mean 3 SE / cov 5%, <60s)")
def test_02_monte_carlo_posterior_oracle(mc_setup):
    start = time.perf_counter()
    posterior, design, X_explain, batch = mc_setup
    rng = np.random.default_rng(2)
    n_draws = 20000
    B = cme.embedding_batch(posterior, design, X_explain).tensor()
    L = numerics.cholesky_psd(posterior.cov_at_inducing, max_jitter=1e-8).lower
    draws = posterior.mean_at_inducing[:, None] + L @ rng.normal(
        size=(posterior.n_inducing, n_draws)
    )
    for k in range(X_explain.shape[0]):
        Phi = design.A @ (B[:, :, k] @ draws)
        se = Phi.std(axis=1, ddof=1) / np.sqrt(n_draws)
        np.testing.assert_array_less(
            np.abs(Phi.mean(axis=1) - batch.means[k]), 3.0 * se + 1e-12
        )
        emp_cov = np.cov(Phi)
        cov = batch.covariance(k)
        tol = np.maximum(0.05 * np.abs(cov), 1e-3)
        assert np.all(np.abs(emp_cov - cov) <= tol)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@reported("efficiency: means sum to payoff delta (1e-10), quadratic form (1e-8)")
def test_03_efficiency(mc_setup):
    posterior, design, X_explain, batch = mc_setup
    games = cme.game_moments(
        posterior, cme.embedding_batch(posterior, design, X_explain)
    )
    ones = np.ones(design.d)
    for k, game in enumerate(games):
        delta_mean = game.payoff_mean[-1] - game.payoff_mean[0]
        assert abs(batch.means[k].sum() - delta_mean) < 1e-10
        delta_var = (
            game.payoff_cov[-1, -1]
            - 2.0 * game.payoff_cov[-1, 0]
            + game.payoff_cov[0, 0]
        )
        assert abs(ones @ batch.covariance(k) @ ones - delta_var) < 1e-8


@reported("null player: constant feature gets a near-Dirac zero (1e-8)")
def test_04_null_player():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    X[:, 2] = 0.7
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    data = gp.Dataset(X=X, y=y)
    params = kernels.KernelParams(
        variance=1.0, lengthscales=kernels.median_heuristic(X)
    )
    posterior = gp.fit_exact(data, params, noise=0.1)
    design = coalition.enumerate_coalitions(3)
    batch = explain.gpshap(posterior, design, X[:6])
    for k in range(6):
        assert abs(batch.means[k, 2]) < 1e-8
        assert batch.covariance(k)[2, 2] < 1e-8


@reported("symmetry: duplicated feature columns get identical attributions (1e-8)")
def test_05_symmetry():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    X[:, 2] = X[:, 1]
    y = np.tanh(X[:, 0]) + X[:, 1] ** 2
    data = gp.Dataset(X=X, y=y)
    params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(3))
    posterior = gp.fit_exact(data, params, noise=0.1)
    design = coalition.enumerate_coalitions(3)
    batch = explain.gpshap(posterior, design, X[:6])
    for k in range(6):
        assert abs(batch.means[k, 1] - batch.means[k, 2]) < 1e-8
        cov = batch.covariance(k)
        assert abs(cov[1, 1] - cov[2, 2]) < 1e-8


@reported("attribution variance differs from variance-game attribution (> 0.1)")
def test_06_variance_separation():
    design = coalition.enumerate_coalitions(2)
    payoff_cov = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 2.0],
    ])
    game = coalition.StochasticGame(
        design=design,
        payoff_mean=np.array([0.0, 1.0, 0.0, 2.0]),
        payoff_cov=payoff_cov,
    )
    _, ssv_cov = coalition.exact_ssv(game)
    var_game = coalition.shapley_of_variance_game(game)
    assert abs(ssv_cov[0, 0] - 1.5) < 1e-12
    assert np.max(np.abs(var_game - 1.0)) < 1e-12
    assert np.max(np.abs(np.diag(ssv_cov) - var_game)) > 0.1


@reported("covariance decomposition: Bayes term is (Z^T W Z)^-1 sigma^2 (1e-10)")
def test_07_variance_decomposition(mc_setup):
    posterior, design, X_explain, base = mc_setup
    bayes = explain.bayesgpshap(posterior, design, X_explain)
    term = explain._bayes_term(design)
    for k in range(X_explain.shape[0]):
        diff = bayes.covariance(k) - base.covariance(k)
        assert np.max(np.abs(diff - term * bayes.sigma2_samples[k])) < 1e-10
    # with the GP covariance zeroed, the two Bayesian variants coincide
    frozen = gp.GPPosterior(
        inducing_points=posterior.inducing_points,
        mean_at_inducing=posterior.mean_at_inducing,
        cov_at_inducing=np.zeros((posterior.n_inducing,) * 2),
        kernel=posterior.kernel,
        noise=posterior.noise,
    )
    zeroed = explain.bayesgpshap(frozen, design, X_explain)
    det = explain.bayesshap_deterministic(zeroed.payoff_means, design)
    assert np.array_equal(zeroed.means, det.means)
    for k in range(X_explain.shape[0]):
        assert np.array_equal(zeroed.covariance(k), det.covariance(k))


@reported("coalition-subsampling variance decays ~1/ell (slope in [-1.3,-0.7], <2min)")
def test_08_subsampling_rate():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    posterior, data = fit_synthetic_posterior(rng, n=50, d=8, n_inducing=25)
    x = data.X[:1]
    ells = np.array([16, 32, 64, 128])
    variances = []
    for ell in ells:
        estimates = []
        for seed in range(30):
            design = coalition.sample_coalitions(8, int(ell), seed=seed)
            estimates.append(explain.gpshap(posterior, design, x).means[0])
        variances.append(np.mean(np.var(np.asarray(estimates), axis=0, ddof=1)))
    slope = np.polyfit(np.log(ells), np.log(variances), 1)[0]
    elapsed = time.perf_counter() - start
    assert -1.3 <= slope <= -0.7, f"slope {slope:.3f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


@reported("explanation prior: payoff identity (1e-8) and >=20% RMSE gain, <60s")
def test_09_shapley_prior():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        n, d = int(rng.integers(3, 8)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        Phi = rng.normal(size=(n, d))
        design = coalition.enumerate_coalitions(d)
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(d))
        model = shapley_prior.fit(
            shapley_prior.ExplanationDataset(X=X, Phi=Phi),
            X, params, design, lam=1e-3 * n, noise=1e-2,
        )
        x_new = rng.normal(size=d)
        mean, _ = shapley_prior.predict(model, x_new)
        v = shapley_prior.induced_payoff(model, x_new)
        worst = max(worst, float(np.max(np.abs(design.A @ v - mean))))
    assert worst < 1e-8, f"payoff identity deviation {worst:.3e}"

    posterior, data = fit_synthetic_posterior(rng, n=60, d=3, n_inducing=25)
    design = coalition.enumerate_coalitions(3)
    batch = explain.gpshap(posterior, design, data.X)
    train, test = np.arange(40), np.arange(40, 60)
    params = kernels.KernelParams(
        variance=1.0, lengthscales=kernels.median_heuristic(data.X[train])
    )
    anchors = shapley_prior.farthest_point_anchors(data.X[train], 30)
    model = shapley_prior.fit(
        shapley_prior.ExplanationDataset(X=data.X[train], Phi=batch.means[train]),
        anchors, params, design, lam=1e-3 * anchors.shape[0], noise=1e-4,
    )
    preds = np.array([shapley_prior.predict(model, x)[0] for x in data.X[test]])
    rmse = float(np.sqrt(np.mean((preds - batch.means[test]) ** 2)))
    baseline = float(np.sqrt(
        np.mean((batch.means[train].mean(axis=0) - batch.means[test]) ** 2)
    ))
    elapsed = time.perf_counter() - start
    assert rmse <= 0.8 * baseline, f"rmse {rmse:.4f} vs baseline {baseline:.4f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@reported("folded-normal mean matches 1e6-draw MC (1e-3) and Jensen holds")
def test_10_folded_mean(mc_setup):
    rng = np.random.default_rng(10)
    n_draws = 1_000_000
    for mu in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for sigma in (0.5, 1.0, 2.0):
            # antithetic pairs plus an x^2 control variate (its mean
            # mu^2 + sigma^2 is known exactly) keep the 1e6-draw Monte
            # Carlo error well inside the 1e-3 tolerance
            z = rng.standard_normal(n_draws // 2)
            x = np.concatenate([mu + sigma * z, mu - sigma * z])
            ax = x * x
            c = np.cov(np.abs(x), ax)[0, 1] / ax.var()
            mc = np.abs(x).mean() - c * (ax.mean() - (mu * mu + sigma * sigma))
            dev = abs(analysis.folded_mean(mu, sigma) - mc)
            assert dev < 1e-3, f"mu={mu} sigma={sigma} deviation {dev:.2e}"
    _, _, _, batch = mc_setup
    gi = analysis.global_importance(batch)
    assert np.all(gi.mean_abs_ssv >= gi.abs_mean_ssv - 1e-12)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_cli(args, cwd, threads=None):
    # the child runs in cwd, so the package path must be absolute
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if threads is not None:
        env["SSVKIT_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "ssvkit.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


@reported("numerical hygiene: emitted covariances PSD at 1e-8; byte-stable reruns")
def test_11_numerical_hygiene(mc_setup, tmp_path):
    posterior, design, X_explain, batch = mc_setup
    bayes = explain.bayesgpshap(posterior, design, X_explain)
    det = explain.bayesshap_deterministic(batch.payoff_means, design)
    for b in (batch, bayes, det):
        for k in range(b.n_instances):
            assert numerics.is_psd(b.covariance(k), tol_jitter=1e-8)

    (tmp_path / "posterior.json").write_text(posterior.to_json() + "\n")
    lines = [",".join(f"x_{i + 1}" for i in range(4))]
    for row in X_explain:
        lines.append(",".join(repr(float(v)) for v in row))
    (tmp_path / "instances.csv").write_text("\n".join(lines) + "\n")
    outputs = []
    for threads, name in ((1, "a.json"), (8, "b.json")):
        res = _run_cli(
            ["explain", "--posterior", "posterior.json",
             "--instances", "instances.csv", "--algo", "bayesgpshap",
             "--seed", "12", "-o", name],
            tmp_path, threads=threads,
        )
        assert res.returncode == 0, res.stderr
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    for c in doc["cov"]:
        assert numerics.is_psd(np.asarray(c), tol_jitter=1e-8)
