"""Built-in oracle suite backing the `selftest` CLI subcommand.

Each check recomputes a quantity along an independent route (brute-force
enumeration, Monte-Carlo sampling, or a closed-form identity) and compares
it to the production path at a fixed tolerance.
"""

from __future__ import annotations

import time

import numpy as np

from . import analysis, cme, coalition, explain, gp, kernels, numerics, shapley_prior


def _random_game(rng: np.random.Generator, design) -> coalition.StochasticGame:
    ell = design.n_coalitions
    mean = rng.normal(size=ell)
    M = rng.normal(size=(ell, ell))
    cov = M @ M.T / ell
    return coalition.StochasticGame(design=design, payoff_mean=mean, payoff_cov=cov)


def check_projection_oracle(seed: int, corrupt: bool = False) -> float:
    """Max deviation between the WLS projection and the brute-force oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in range(2, 9):
        design = coalition.enumerate_coalitions(d)
        A = design.A.copy()
        if corrupt:
            A[0, 0] += 0.5
        for _ in range(10):
            game = _random_game(rng, design)
            mean_o, cov_o = coalition.exact_ssv(game)
            mean_p = A @ game.payoff_mean
            cov_p = A @ game.payoff_cov @ A.T
            worst = max(worst,
                        float(np.max(np.abs(mean_p - mean_o))),
                        float(np.max(np.abs(cov_p - cov_o))))
    return worst


def _synthetic_posterior(rng: np.random.Generator, n=60, d=3, n_inducing=30):
    X = rng.normal(size=(n, d))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + 0.1 * rng.normal(size=n)
    data = gp.Dataset(X=X, y=y)
    params = kernels.KernelParams(variance=1.0,
                                  lengthscales=kernels.median_heuristic(X))
    idx = gp.select_inducing(data, n_inducing, "farthest_point", seed=0)
    return gp.fit_exact(data, params, noise=0.1, inducing=idx), X


def check_mc_posterior_oracle(seed: int) -> float:
    """GP-SHAP analytic moments vs Monte-Carlo over 8,000 posterior draws.

    Returns the worst entry-wise deviation in units of the tolerance: mean
    deviations are scaled by 3 standard errors, covariance deviations by
    max(5% relative, 1e-3 absolute).
    """
    rng = np.random.default_rng(seed)
    posterior, X = _synthetic_posterior(rng)
    design = coalition.enumerate_coalitions(posterior.d)
    x_explain = X[:2]
    batch = explain.gpshap(posterior, design, x_explain)
    n_draws = 8000
    B = cme.embedding_batch(posterior, design, x_explain).tensor()
    L = numerics.cholesky_psd(posterior.cov_at_inducing, max_jitter=1e-8).lower
    draws = posterior.mean_at_inducing[:, None] + L @ rng.normal(
        size=(posterior.n_inducing, n_draws))
    worst = 0.0
    for k in range(x_explain.shape[0]):
        V = B[:, :, k] @ draws                      # ell x n_draws
        Phi = design.A @ V                          # d x n_draws
        emp_mean = Phi.mean(axis=1)
        emp_cov = np.cov(Phi)
        se = Phi.std(axis=1, ddof=1) / np.sqrt(n_draws)
        worst = max(worst, float(np.max(np.abs(emp_mean - batch.means[k]) /
                                        np.maximum(3.0 * se, 1e-12))))
        cov = batch.covariance(k)
        tol = np.maximum(0.05 * np.abs(cov), 1e-3)
        # MC covariance noise shrinks ~1/sqrt(draws); allow the same slack
        mc_slack = 4.0 * np.abs(cov).max() / np.sqrt(n_draws)
        worst = max(worst, float(np.max(np.abs(emp_cov - cov) / (tol + mc_slack))))
    return worst


def check_prior_payoff_identity(seed: int) -> float:
    """A applied to the induced payoff must equal the predictive mean."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        n, d = int(rng.integers(3, 8)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        Phi = rng.normal(size=(n, d))
        design = coalition.enumerate_coalitions(d)
        params = kernels.KernelParams(variance=1.0, lengthscales=np.ones(d))
        model = shapley_prior.fit(
            shapley_prior.ExplanationDataset(X=X, Phi=Phi),
            anchors=X, kernel=params, design=design, lam=cme.default_lambda(n), noise=1e-2,
        )
        x_new = rng.normal(size=d)
        mean, _ = shapley_prior.predict(model, x_new)
        v = shapley_prior.induced_payoff(model, x_new)
        worst = max(worst, float(np.max(np.abs(design.A @ v - mean))))
    return worst


def check_folded_mean_mc(seed: int) -> float:
    """Analytic folded-normal mean vs Monte-Carlo on a (mu, sigma) grid."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for mu in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for sigma in (0.5, 1.0, 2.0):
            draws = np.abs(rng.normal(mu, sigma, size=200_000))
            worst = max(worst, abs(float(draws.mean()) - analysis.folded_mean(mu, sigma)))
    return worst


def run_selftest(seed: int = 0, corrupt_projection: bool = False) -> list[dict]:
    checks = [
        ("projection-vs-brute-force-oracle", 1e-8,
         lambda: check_projection_oracle(seed, corrupt_projection)),
        ("gpshap-vs-monte-carlo-posterior", 1.0,
         lambda: check_mc_posterior_oracle(seed)),
        ("prior-payoff-identity", 1e-8,
         lambda: check_prior_payoff_identity(seed)),
        ("folded-mean-vs-monte-carlo", 1e-2,
         lambda: check_folded_mean_mc(seed)),
    ]
    report = []
    for name, tol, fn in checks:
        start = time.perf_counter()
        dev = fn()
        report.append({
            "name": name,
            "tolerance": tol,
            "max_deviation": dev,
            "passed": bool(dev <= tol),
            "seconds": time.perf_counter() - start,
        })
    return report
